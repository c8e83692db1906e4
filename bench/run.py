"""Benchmark harness for ramid.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; it imports ramid from
the checkout's ``src`` and fails (exit 2) when the sources are missing.  One
caller drives ramid in a closed loop, one op at a time, in this process; an op
is defined per workload in ``workloads.py``.  Every op is timed on its own and
its output is checked right after, outside the timed region; a failed check
or an exception counts the op as failed.

The host is a few cores of a shared machine whose speed drifts by up to half
for minutes at a time.  So between ops, every ``CALIB_EVERY_S`` seconds, the
run also times a fixed loop of ``Fraction`` arithmetic, which slows with the
host as ramid does.  Each op's latency, and each setup probe's time, is scaled
to a host on which that loop takes ``REF_CALIB_MS``: measured time x
``REF_CALIB_MS`` / mean of the two samples taken just before and just after
it.  The summary line before the result shows the unscaled values.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

- ``latency_ms.p50`` and ``latency_ms.p90`` over every timed op (at least
  ``MIN_OPS``, so at least 10 samples lie beyond the p90),
- ``identities_per_s``: verified identities emitted per second of op time,
- ``setup_s``: median over ``SETUP_RUNS`` fresh processes of the time to
  import ramid and finish the first, untimed op,
- ``peak_rss_mb`` of this process, and ``success_rate`` (1 - error rate).

All but the last two are scaled to the reference host speed.

``--trace 1`` reports the per-layer metrics instead, per op.  It takes the
first ``MIN_OPS`` ops of the stream as a pass, repeats the pass without
tracing for half the time, then runs it once with every public function
wrapped (``tracer.py``), so the ``calls`` counts repeat exactly for a seed.
The spans are written to ``bench/out/``.  Which layer numbers should move which end-to-end metric:

- ``exact.*`` (squarefree_decompose, is_prime, Surd.init): discover p50 and
  identities_per_s, family-render p90; zero calls on enumerate.
- ``identity.verify_tuple`` and ``classify``: enumerate p50;
  ``verify_variation`` and ``parse``: family-render p50 and p90.
- ``construct.*``: discover only.  ``enumeration.*``: enumerate only.
- ``families.discover.*``: discover; ``families.generate``: family-render p50.
- ``render.*``: family-render p50.

``trace.overhead_ratio`` compares the scaled p50 of the two passes.
``host.calib_ms`` is the run's median time of the calibration loop, so host
drift shows next to the timings, and ``src.lines`` counts the lines of
``src/ramid/*.py``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_RUNS = 7
MIN_OPS = 100
CALIB_EVERY_S = 0.1
# The calibration loop's time on the reference host, a 2-vCPU Intel Xeon VM
# running CPython 3.11, when it was least loaded (10th percentile).
REF_CALIB_MS = 3.5


def _calib_ms() -> float:
    """Time of a fixed loop of ``Fraction`` arithmetic, in ms: the same kind
    of work as ramid's (small objects, big-integer gcds), none of its code."""
    start = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 1000):
        acc += Fraction(k % 7 + 1, k)
        acc = Fraction(acc.numerator % 10**12, acc.denominator % 10**12 + 1)
    return (time.perf_counter() - start) * 1e3


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "ramid").glob("*.py"))


def _time_setup(name: str, seed: int) -> None:
    """Child process: time importing ramid plus the first op, print the result."""
    start = time.perf_counter()
    importlib.import_module("ramid")
    imported = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[name]()
    op = next(workload.ops(seed))
    begin = time.perf_counter()
    output = workload.run(op)
    end = time.perf_counter()
    setup_s = (imported - start) + (end - begin)
    print(json.dumps({"setup_s": setup_s, "fingerprint": workload.fingerprint(output)}))


def _probe(name: str, seed: int) -> tuple[float, str]:
    """Setup time and first-op fingerprint from a fresh process."""
    probe = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", name,
         "--seed", str(seed), "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(probe.stdout.splitlines()[-1])
    return result["setup_s"], result["fingerprint"]


class Loop:
    """Runs ops one at a time, timing each and checking it afterwards, and
    times the calibration loop between ops every ``CALIB_EVERY_S`` seconds."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.latencies: list[float] = []
        self.identities = 0
        self.failed = 0
        self.calib_ms: list[float] = []
        self._calib_before: list[int] = []  # per op, the last sample before it
        self.calibrate()

    def calibrate(self) -> int:
        """Take a calibration sample; return its index."""
        self.calib_ms.append(_calib_ms())
        self._next_calib = time.perf_counter() + CALIB_EVERY_S
        return len(self.calib_ms) - 1

    def slowdown(self, sample: int) -> float:
        """Host slowdown against the reference between calibration samples
        ``sample`` and ``sample + 1``."""
        return (self.calib_ms[sample] + self.calib_ms[sample + 1]) / 2 / REF_CALIB_MS

    def scaled_latencies(self) -> list[float]:
        """Op latencies scaled to the reference host, each by the samples on
        either side of it."""
        if self._calib_before and self._calib_before[-1] == len(self.calib_ms) - 1:
            self.calibrate()
        return [t / self.slowdown(i) for t, i in zip(self.latencies, self._calib_before)]

    def step(self, op):
        """Run, time and check one op; return its output, or None if it failed."""
        if time.perf_counter() >= self._next_calib:
            self.calibrate()
        self._calib_before.append(len(self.calib_ms) - 1)
        start = time.perf_counter()
        try:
            output = self.workload.run(op)
        except Exception as exc:  # a raising op is a failed op, not a crash
            self.latencies.append(time.perf_counter() - start)
            self._fail(op, exc)
            return None
        self.latencies.append(time.perf_counter() - start)
        try:
            self.identities += self.workload.check(op, output)
        except Exception as exc:
            self._fail(op, exc)
            return None
        return output

    def _fail(self, op, exc: Exception) -> None:
        if not self.failed:
            print(f"op {op!r} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        self.failed += 1


def _end_to_end(name: str, seed: int, seconds: float) -> tuple[Loop, bool, dict]:
    import workloads

    _probe(name, seed)  # untimed: leaves compiled bytecode behind
    workload = workloads.WORKLOADS[name]()
    ops = workload.ops(seed)
    output = Loop(workload).step(next(ops))
    expected = None if output is None else workload.fingerprint(output)

    # The setup probes are spread over the run, so their median sees the same
    # host as the timed ops do.
    loop = Loop(workload)
    setups, deterministic = [], expected is not None
    start = time.perf_counter()
    for part in range(1, SETUP_RUNS + 1):
        before = loop.calibrate()
        setup_s, fingerprint = _probe(name, seed)
        loop.calibrate()
        setups.append((setup_s, before))
        deterministic &= fingerprint == expected
        gc.collect()
        deadline = start + seconds * part / SETUP_RUNS
        for op in ops:
            loop.step(op)
            if time.perf_counter() >= deadline and (
                part < SETUP_RUNS or len(loop.latencies) >= MIN_OPS
            ):
                break
    if not deterministic:
        print("the first op gave different outputs in different processes", file=sys.stderr)

    def timings(latencies: list[float], setups: list[float]) -> dict[str, float]:
        return {
            "latency_ms.p50": statistics.median(latencies) * 1e3,
            "latency_ms.p90": statistics.quantiles(latencies, n=10)[-1] * 1e3,
            "identities_per_s": loop.identities / sum(latencies),
            "setup_s": statistics.median(setups),
        }

    values = timings(
        loop.scaled_latencies(), [setup_s / loop.slowdown(i) for setup_s, i in setups])
    values.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1 - loop.failed / len(loop.latencies),
        "unscaled": timings(loop.latencies, [setup_s for setup_s, _ in setups]),
    })
    return loop, deterministic, values


def _per_layer(name: str, seed: int, seconds: float) -> tuple[Loop, bool, dict]:
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[name]()
    ops = workload.ops(seed)
    warmed_up = Loop(workload).step(next(ops)) is not None
    pass_ops = [op for op, _ in zip(ops, range(MIN_OPS))]

    loop = Loop(workload)
    gc.collect()
    deadline = time.perf_counter() + seconds / 2
    while True:
        for op in pass_ops:
            loop.step(op)
        if time.perf_counter() >= deadline:
            break
    untraced = len(loop.latencies)

    spans = tracing.Tracer()
    restore = tracing.instrument(spans)
    gc.collect()
    try:
        for i, op in enumerate(pass_ops):
            spans.current_op = i
            loop.step(op)
    finally:
        restore()
    spans.write(OUT / f"spans-{name}-seed{seed}.tsv.gz")

    n = len(pass_ops)
    latencies = loop.scaled_latencies()
    totals = spans.totals()
    values: dict[str, float] = {}
    for span, (calls, self_ms) in totals.items():
        values[f"{span}.calls"] = calls / n
        values[f"{span}.self_ms"] = self_ms / n

    def share(tally: str, span: str, per_call: float = 1) -> float:
        calls = totals[span][0]
        return spans.tallies[tally] / (calls * per_call) if calls else 0.0

    values.update({
        "construct.solve_roots.surd_share": share(
            "construct.solve_roots.surd", "construct.solve_roots"),
        "enumeration.solve_z.hit_ratio": share(
            "enumeration.solve_z.hits", "enumeration.solve_z"),
        "families.discover.yield": share(
            "families.discover.hits", "families.discover", workloads.Discover.TRIALS),
        "enumeration.candidates": spans.tallies["enumeration.candidates"] / n,
        "trace.overhead_ratio": statistics.median(latencies[untraced:])
        / statistics.median(latencies[:untraced]),
    })
    return loop, warmed_up, values


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; return the result object the harness prints and
    every value measured."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = _per_layer if trace else _end_to_end
    loop, ok, values = run(name, seed, seconds)
    values["host.calib_ms"] = statistics.median(loop.calib_ms)
    values["src.lines"] = _src_lines()
    wanted = spec["per_layer" if trace else "end_to_end"]
    result = {
        "correct": ok and loop.failed == 0,
        "attempted": len(loop.latencies),
        "failed": loop.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return result, values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "ramid" / "__init__.py").is_file():
        print(f"run.py: no ramid sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:  # imports ramid itself, inside its timed region
        _time_setup(args.workload, args.seed)
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    result, values = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    unscaled = "".join(f"; unscaled {k} {v:.6g}" for k, v in values.get("unscaled", {}).items())
    print(
        f"# {args.workload} seed {args.seed}: {result['attempted']} ops timed, "
        f"{result['failed']} failed; host.calib_ms {values['host.calib_ms']:.3f}; "
        f"src.lines {values['src.lines']}{unscaled}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
