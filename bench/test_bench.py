"""Tests of the benchmark harness itself (``python -m pytest bench``)."""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import pytest

import run

sys.path.insert(0, str(run.SRC))  # ramid from this checkout, as run.main does

import workloads  # noqa: E402
from oracle import CheckError  # noqa: E402
from ramid import IdentityTuple, rebak_family, render_latex, render_text  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
FALSE_OP = ("rebak", {"a": Fraction(-3, 5)})  # right side negative: not an identity


@pytest.fixture
def few_ops(monkeypatch):
    monkeypatch.setattr(run, "MIN_OPS", 3)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric_without_errors(few_ops, name, trace):
    result, _ = run.measure(name, seed=7, seconds=0, trace=trace)
    wanted = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == wanted
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    if not trace:
        assert result["metrics"]["success_rate"]["value"] == 1


def test_traced_call_counts_repeat_for_a_seed(few_ops):
    def counts():
        result, _ = run.measure("discover", seed=3, seconds=0, trace=True)
        return {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}

    first = counts()
    assert first["construct.build_tuple.calls"] > 0
    assert counts() == first


def test_known_false_identity_is_a_failed_op(monkeypatch):
    workload = workloads.FamilyRender()
    loop = run.Loop(workload)
    assert loop.step(FALSE_OP) is None  # render_latex refuses it
    identity = rebak_family(FALSE_OP[1]["a"])
    text = identity.to_json()
    output = (
        identity,
        text,
        IdentityTuple.from_json(text),
        render_latex(identity, unchecked=True),
        render_text(identity, unchecked=True),
    )
    with pytest.raises(CheckError):
        workload.check(FALSE_OP, output)
    monkeypatch.setattr(workload, "run", lambda op: output)
    assert loop.step(FALSE_OP) is None  # the oracle catches it
    assert loop.failed == 2 and len(loop.latencies) == 2


def test_fails_without_the_sources(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", run.ROOT / "bench" / "no-such-src")
    argv = ["--workload", "enumerate", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) != 0
    assert capsys.readouterr().out == ""


def test_each_op_is_scaled_by_the_samples_around_it(monkeypatch):
    samples = iter([7.0, 3.5, 14.0])  # ms of the calibration loop
    monkeypatch.setattr(run, "_calib_ms", lambda: next(samples))
    monkeypatch.setattr(run, "REF_CALIB_MS", 3.5)
    loop = run.Loop(workloads.Enumerate())  # takes sample 0
    loop.calibrate()  # sample 1
    loop.latencies, loop._calib_before = [0.3, 0.9], [0, 1]
    # Slowdowns (7 + 3.5) / 2 / 3.5 = 1.5 and (3.5 + 14) / 2 / 3.5 = 2.5; the
    # last op has no sample after it yet, so scaled_latencies takes sample 2.
    assert loop.scaled_latencies() == pytest.approx([0.2, 0.36])
