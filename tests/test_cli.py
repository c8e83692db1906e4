"""The command-line front end: exit codes and one-line messages, no tracebacks."""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ramid
from conftest import signed_tuples, variations
from ramid import (
    IdentityTuple,
    VariationIdentity,
    rebak_family,
    surd_family_low,
    verify,
    verify_tuple,
)
from ramid.cli import EXIT_OK, EXIT_UNVERIFIED, EXIT_USAGE, main

NOTEBOOK = {"t": "2", "A": "3", "x": "7", "y": "11", "z": "19"}


def render(monkeypatch, line: str, fmt: str = "json", *flags: str) -> int:
    monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
    return main(["render", "--format", fmt, *flags])


def test_render_round_trips_a_tuple(monkeypatch, capsys):
    assert render(monkeypatch, json.dumps(NOTEBOOK)) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {**NOTEBOOK, "class": "prime"}


def test_render_skips_blank_lines(monkeypatch, capsys):
    assert render(monkeypatch, f"\n  \n{json.dumps(NOTEBOOK)}\n\t") == EXIT_OK
    out, err = capsys.readouterr()
    assert [json.loads(line) for line in out.splitlines()] == [{**NOTEBOOK, "class": "prime"}]
    assert err == ""


@pytest.mark.parametrize(
    "line",
    [
        json.dumps({k: v for k, v in NOTEBOOK.items() if k != "z"}),  # missing key
        json.dumps({**NOTEBOOK, "t": 2}),  # numeric field
        "[1, 2]",  # not an object
        '{"radicand": ["3", "7"], "rhs": [["7"]]}',  # rhs entry of length 1
        '{"radicand": ["3", "7"], "rhs": [7]}',  # rhs entry not a pair
        '{"radicand": ["3", "7"], "rhs": 7}',  # rhs not a list
        '{"radicand": ["3", "7"], "rhs": ["7+"]}',  # a string is not a pair
        '{"radicand": ["3", "7"], "rhs": [["7", "x"]]}',  # sign not + or -
        json.dumps({**NOTEBOOK, "t": "1/0"}),  # zero denominator in a tuple
        '{"radicand": ["1 + 1/0*sqrt(2)", "7"], "rhs": [["7", "+"]]}',  # in a surd
        "[" * 100000 + "]" * 100000,  # nested past the JSON decoder's recursion limit
        json.dumps({**NOTEBOOK, "t": "x" * 100000}),  # a long literal, repeated in the error
        json.dumps({**NOTEBOOK, "t": "2\n"}),  # a literal with a trailing newline
        json.dumps({**NOTEBOOK, "t": "\u0662"}),  # a non-ASCII digit
    ],
    ids=["no-z", "int-t", "list", "rhs-1", "rhs-item-int", "rhs-int", "rhs-str", "rhs-sign",
         "tuple-zero-den", "surd-zero-den", "deep-nesting", "long-literal",
         "trailing-newline", "non-ascii-digit"],
)
def test_render_reports_malformed_records(monkeypatch, capsys, line):
    assert render(monkeypatch, line) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("ramid: not an identity record") and "Traceback" not in err
    assert len(err.encode()) < 1000


FORMATS = ["latex", "text", "json"]
REBAK_FALSE = rebak_family(Fraction(-3, 5)).to_json()  # inside a sign-degenerate window


@pytest.mark.parametrize("fmt", FORMATS)
def test_render_refuses_a_false_record(monkeypatch, capsys, fmt):
    # One check and one message in every format; --unchecked skips the check.
    assert render(monkeypatch, REBAK_FALSE, fmt) == EXIT_UNVERIFIED
    out, err = capsys.readouterr()
    assert out == "" and err == f"ramid: identity does not verify: {REBAK_FALSE}\n"
    assert render(monkeypatch, REBAK_FALSE, fmt, "--unchecked") == EXIT_OK
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 1 and err == ""


def _fraction_sides(text: str) -> tuple[Fraction, Fraction]:
    # Both sides of a render_text line whose radicand is a rational square,
    # evaluated as written in Fractions.
    def sqrt(value: Fraction) -> Fraction:
        n, d = math.isqrt(value.numerator), math.isqrt(value.denominator)
        assert Fraction(n, d) ** 2 == value, value
        return Fraction(n, d)

    def evaluate(expr: str) -> Fraction:
        assert not re.sub(r"\d+|sqrt|[ +\-*/^()]", "", expr), expr
        expr = re.sub(r"\d+", lambda m: f"F({m.group()})", expr).replace("^", "**")
        return eval(expr, {"__builtins__": {}, "F": Fraction, "sqrt": sqrt})

    lhs, rhs = text.split(" = ")
    return evaluate(lhs), evaluate(rhs)


@pytest.mark.parametrize(
    "record, text, latex",
    [
        ('{"scale": "4/3", "radicand": ["2"], "rhs": []}',
         "sqrt(4/3 * (1 - 1/2^2)) = 1",
         r"\sqrt{\frac{4}{3}\left(1-\frac{1}{2^2}\right)} = 1"),
        ('{"scale": "1", "radicand": [], "rhs": []}', "sqrt(1) = 1", r"\sqrt{1} = 1"),
    ],
    ids=["empty-rhs", "both-empty"],
)
def test_render_prints_an_empty_side_as_one(monkeypatch, capsys, record, text, latex):
    assert render(monkeypatch, record, "text") == EXIT_OK
    assert capsys.readouterr().out == text + "\n"
    assert _fraction_sides(text) == (1, 1)
    assert render(monkeypatch, record, "latex") == EXIT_OK
    assert capsys.readouterr().out == latex + "\n"


def test_render_clips_a_false_record(monkeypatch, capsys):
    # The record parses but does not verify; a long one is not copied out in full.
    line = json.dumps({**NOTEBOOK, "t": "1" + "0" * 4000})
    for fmt in FORMATS:
        assert render(monkeypatch, line, fmt) == EXIT_UNVERIFIED
        err = capsys.readouterr().err
        assert err.startswith("ramid: identity does not verify: ") and len(err.encode()) < 1000


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "line", [json.dumps(NOTEBOOK), surd_family_low(Fraction(-9, 4)).to_json()],
    ids=["tuple", "variation"],
)
def test_render_verifies_each_record_once(monkeypatch, capsys, fmt, line):
    calls = []

    def counted(identity):
        calls.append(identity)
        return verify(identity)

    monkeypatch.setattr("ramid.cli.verify", counted)
    monkeypatch.setattr("ramid.render.verify", counted)
    assert render(monkeypatch, "\n".join([line] * 3), fmt) == EXIT_OK
    assert len(calls) == 3 and len(capsys.readouterr().out.splitlines()) == 3


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["verify", "--t", "2", "--A", "3", "--x", "7", "--y", "11", "--z", "19"], None),
        # No two draws of this seed build the same identity, so discover
        # itself verifies each of its 32 hits once.
        (["discover", "--seed", "7", "--trials", "1000", "--t", "2"], None),
        (["family", "general-infinite", "--k", "3"], None),
        (["render", "--format", "json"], json.dumps(NOTEBOOK)),
    ],
    ids=["verify", "discover", "family", "render"],
)
def test_each_printed_tuple_is_verified_once(monkeypatch, capsys, argv, stdin):
    calls = []

    def counted(identity):
        calls.append(identity)
        return verify_tuple(identity)

    for module in ("identity", "families", "cli"):
        monkeypatch.setattr(f"ramid.{module}.verify_tuple", counted)
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin + "\n"))
    assert main(argv) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines and all('"class": ' in line for line in lines)
    assert len(calls) == len(lines)


@st.composite
def _malformed_records(draw):
    """A record of a drawn identity with one fault: a required key missing,
    a number in place of a string, or an rhs sign other than "+" or "-"."""
    record = draw(st.one_of(signed_tuples(), variations())).to_json_dict()
    number = st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False))
    if "radicand" not in record:  # a tuple: every key is a required string
        key = draw(st.sampled_from(sorted(record)))
        if draw(st.booleans()):
            del record[key]
        else:
            record[key] = draw(number)
        return record
    fault = draw(st.sampled_from(["missing", "number"] + ["sign"] * bool(record["rhs"])))
    if fault == "missing":
        del record[draw(st.sampled_from(("radicand", "rhs")))]
    elif fault == "number":
        slots = [(record, "scale"), *((record["radicand"], i) for i in range(len(record["radicand"])))]
        slots += [(entry, 0) for entry in record["rhs"]]
        container, key = draw(st.sampled_from(slots))
        container[key] = draw(number)
    else:
        entry = draw(st.sampled_from(record["rhs"]))
        entry[1] = draw(st.one_of(number, st.text().filter(lambda c: c not in ("+", "-"))))
    return record


@settings(max_examples=200, deadline=None)
@given(_malformed_records())
def test_malformed_records_are_rejected(record):
    # Same dispatch as the CLI: a record with "radicand" is a variation.
    cls = VariationIdentity if "radicand" in record else IdentityTuple
    with pytest.raises((KeyError, TypeError, ValueError)):
        cls.from_json_dict(record)
    err = io.StringIO()
    with (
        mock.patch("sys.stdin", io.StringIO(json.dumps(record) + "\n")),
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(err),
    ):
        assert main(["render", "--format", "json"]) == EXIT_USAGE
    assert err.getvalue().startswith("ramid: not an identity record")


def test_enumerate_super_perfect(capsys):
    assert main(["enumerate", "--primes-only"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3 and all('"class": "prime"' in line for line in out)


# Per class: count, candidates examined and the sha256 of the JSON lines.
ENUMERATED = {
    "perfect": (309, 1527, "1c6ef47ae6142cb00796c9942e2bf54d1d50529e70c7075c8ee1c4d90c1817e5"),
    "super-perfect": (39, 100, "67af4abd32426046619fc746f18057acd3506b12f8bf7634b798e737301cb0d2"),
}


def _counts(summary: str) -> tuple[int, int]:
    data = json.loads(summary)
    return data["count"], data["candidates_examined"]


@pytest.mark.parametrize("klass", ENUMERATED)
def test_enumerate_writes_its_lines_to_stdout(capsys, klass):
    count, examined, digest = ENUMERATED[klass]
    assert main(["enumerate", "--class", klass]) == EXIT_OK
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert _counts(err) == (count, examined)


@pytest.mark.parametrize("klass", ENUMERATED)
def test_enumerate_writes_its_lines_to_the_out_file(capsys, tmp_path, klass):
    count, examined, digest = ENUMERATED[klass]
    path = tmp_path / f"{klass}.jsonl"
    assert main(["enumerate", "--class", klass, "--out", str(path)]) == EXIT_OK
    out, err = capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert _counts(out) == (count, examined) and err == ""


@pytest.mark.parametrize("a", [["--a", "-9/4"], ["--a=-9/4"]], ids=["separate", "joined"])
def test_family_takes_a_negative_fraction(capsys, a):
    assert main(["family", "surd-low", *a]) == EXIT_OK
    assert capsys.readouterr().out.strip() == surd_family_low(Fraction(-9, 4)).to_json()


@pytest.mark.parametrize(
    "argv, got",
    [(["--a", "2", "--k", "3"], "['a', 'k']"), ([], "[]")],
    ids=["extra", "missing"],
)
def test_family_takes_exactly_its_parameters(capsys, argv, got):
    assert main(["family", "rebak", *argv]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"ramid: family rebak takes exactly ['a'] (got {got})\n"


def test_family_options_take_the_registry_types(capsys):
    # --a is rational and --k, --b, --n are int, listed in the registry's order.
    with pytest.raises(SystemExit):
        main(["family", "--help"])
    out = capsys.readouterr().out
    lines = [out.index(f"\n  --{key} {key.upper()}\n") for key in "akbn"]
    assert lines == sorted(lines)
    assert main(["family", "rebak", "--a", "5/2"]) == EXIT_OK
    capsys.readouterr()
    for argv in (["general-infinite", "--k", "5/2"],
                 ["long-identity", "--b", "5/2", "--n", "2"],
                 ["long-identity", "--b", "3", "--n", "5/2"]):
        with pytest.raises(SystemExit) as exc:
            main(["family", *argv])
        assert exc.value.code == EXIT_USAGE
        assert "invalid int value: '5/2'" in capsys.readouterr().err


def test_family_outside_its_domain_exits_2(capsys):
    assert main(["family", "surd-low", "--a", "-1"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("ramid: surd_family_low(-1): ")


@pytest.mark.parametrize(
    "argv, code, expected",
    [
        (["verify", "--t", "1/9", "--A", "-5/4", "--x", "-3/2", "--y", "-11/4", "--z", "-5/2"],
         EXIT_OK, {"t": "1/9", "A": "-5/4", "x": "-3/2", "y": "-11/4", "z": "-5/2"}),
        (["verify", "--t", "-1/2", "--A", "3", "--x", "7", "--y", "11", "--z", "-19/3"],
         EXIT_UNVERIFIED, {"t": "-1/2", "z": "-19/3"}),
        (["solve", "--t", "-1/2", "--A", "3", "--z", "-7/3", "--k", "-1/5"],
         EXIT_OK, {"t": "-1/2", "z": "-7/3", "k": "-1/5"}),
    ],
    ids=["verify", "verify-false", "solve"],
)
def test_rational_options_take_negative_fractions(capsys, argv, code, expected):
    assert main(argv) == code
    out = json.loads(capsys.readouterr().out)
    assert {key: out[key] for key in expected} == expected


@pytest.mark.parametrize(
    "argv",
    [["verify", "--t", "1/0", "--A", "3", "--x", "7", "--y", "11", "--z", "19"],
     ["family", "rebak", "--a", "3/0"]],
    ids=["verify", "family"],
)
def test_zero_denominator_option_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error: argument" in err and "zero denominator" in err


def test_discover_takes_a_negative_t(capsys):
    assert main(["discover", "--seed", "1", "--trials", "2000", "--t", "-15/16"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(json.loads(line)["t"] == "-15/16" for line in lines)


NOTEBOOK_ARGV = ["verify", "--t", "2", "--A", "3", "--x", "7", "--y", "11", "--z", "19"]


def run_cli(
    argv: list[str], stdout, unbuffered: str = "", stdin: bytes = b""
) -> subprocess.CompletedProcess:
    # ramid in a fresh interpreter, its stdout on the given file or descriptor
    env = {**os.environ, "PYTHONPATH": str(Path(ramid.__file__).parent.parent),
           "PYTHONUNBUFFERED": unbuffered}
    return subprocess.run([sys.executable, "-m", "ramid.cli", *argv], input=stdin,
                          stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60)


# The same one-liner guards the import in CI, on every Python version.
IMPORT_GUARD = (
    "import sys; m = set(sys.modules); import ramid; new = set(sys.modules) - m; "
    'assert not {"dataclasses", "inspect"} & new, sorted(new)'
)


def test_import_ramid_loads_neither_dataclasses_nor_inspect():
    # Each command runs in its own process, so the import is most of its wait.
    env = {**os.environ, "PYTHONPATH": str(Path(ramid.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", IMPORT_GUARD], capture_output=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr.decode()


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv", [NOTEBOOK_ARGV, ["enumerate", "--class", "perfect"]], ids=["verify", "enumerate"]
)
def test_a_closed_stdout_exits_0_silently(argv, unbuffered):
    # `ramid ... | head -1`, made deterministic: the reader is gone before
    # the first write.  Unbuffered, the first print fails; buffered, the
    # first flush, which for short output is main's own.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = run_cli(argv, write_end, unbuffered)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (EXIT_OK, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_full_stdout_exits_2_with_its_message(unbuffered):
    with open("/dev/full", "w") as full:
        done = run_cli(NOTEBOOK_ARGV, full, unbuffered)
    assert done.returncode == EXIT_USAGE
    assert done.stderr == b"ramid: [Errno 28] No space left on device\n"


def surd_record(d: int) -> bytes:
    return json.dumps({"scale": "1", "radicand": [f"1 + 1*sqrt({d})"], "rhs": []}).encode() + b"\n"


# A surd whose squarefree part needs two primes near 10^29 and 10^30 split apart.
UNFACTORABLE_RECORD = surd_record((10**29 + 319) * (10**30 + 57))
# A random odd 4,000-digit radicand: past the bit bound on what is factored.
HUGE_RECORD = surd_record(random.Random(4000).randrange(10**3999, 10**4000) | 1)


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["solve", "--t", "2", "--A", "3", "--z", str(10**31 + 57), "--k", "1/7"], b""),
        (["render", "--format", "text"], UNFACTORABLE_RECORD),
        (["render", "--format", "text"], HUGE_RECORD),
    ],
    ids=["solve", "render", "render-4000-digits"],
)
def test_a_radicand_past_the_factoring_bound_exits_2(argv, stdin, unbuffered):
    # The first two would hang for hours without the step bound: the surd
    # roots of the construction need the squarefree part of a 64-digit
    # discriminant too.  The third, without the bit bound, took minutes.
    done = run_cli(argv, subprocess.PIPE, unbuffered, stdin)
    assert (done.returncode, done.stdout) == (EXIT_USAGE, b"")
    lines = done.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("ramid: cannot factor a ")
