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
from typing import NamedTuple
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
    argv: list[str], stdout, unbuffered: str = "", stdin: bytes = b"", timeout: float = 60
) -> subprocess.CompletedProcess:
    # ramid in a fresh interpreter, its stdout on the given file or descriptor
    env = {**os.environ, "PYTHONPATH": str(Path(ramid.__file__).parent.parent),
           "PYTHONUNBUFFERED": unbuffered}
    return subprocess.run([sys.executable, "-m", "ramid.cli", *argv], input=stdin,
                          stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=timeout)


IMPORT_GUARD = (
    "import sys; m = set(sys.modules); import ramid; new = set(sys.modules) - m; "
    'assert not {"dataclasses", "inspect", "typing"} & new, sorted(new)'
)


def test_import_ramid_loads_neither_dataclasses_nor_inspect():
    # Each command runs in its own process, so the import is most of its wait.
    # Nor typing, checked under -S because site may import typing before ramid does.
    env = {**os.environ, "PYTHONPATH": str(Path(ramid.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", IMPORT_GUARD], capture_output=True,
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


def surd_record(d: int) -> str:
    return json.dumps({"scale": "1", "radicand": [f"1 + 1*sqrt({d})"], "rhs": []})


# A surd whose squarefree part needs two primes near 10^29 and 10^30 split apart.
UNFACTORABLE_RECORD = surd_record((10**29 + 319) * (10**30 + 57))
# A random odd 4,000-digit radicand: past the bit bound on what is factored.
HUGE_RECORD = surd_record(random.Random(4000).randrange(10**3999, 10**4000) | 1)


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, stdin, timeout",
    [
        (["solve", "--t", "2", "--A", "3", "--z", str(10**31 + 57), "--k", "1/7"], "", 60),
        (["render", "--format", "text"], UNFACTORABLE_RECORD, 60),
        (["render", "--format", "text"], HUGE_RECORD, 10),
    ],
    ids=["solve", "render", "render-4000-digits"],
)
def test_a_radicand_past_the_factoring_bound_exits_2(argv, stdin, timeout, unbuffered):
    # The first two would hang for hours without the step bound: the surd
    # roots of the construction need the squarefree part of a 64-digit
    # discriminant too.  The third, without the bit bound, took minutes.
    done = run_cli(argv, subprocess.PIPE, unbuffered, f"{stdin}\n".encode(), timeout)
    assert (done.returncode, done.stdout) == (EXIT_USAGE, b"")
    lines = done.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("ramid: cannot factor a ")


class Prefix(str):
    """Expected stdout of which only the start is pinned."""


class Pin(NamedTuple):
    """One command and what it must print.  With FILE in argv, what the file
    holds stands for stdout, and what the command prints for stderr."""

    argv: str  # after `ramid`, split on spaces; FILE names a file in tmp_path
    stdin: str = ""  # a JSON line, fed with its newline, or the id of the pin piped in
    code: int = EXIT_OK
    out: str = ""  # the exact stdout, its sha256, or a Prefix of it
    counts: tuple[int, int] | None = None  # enumerate's summary: count, candidates examined


TIED = '{"t": "-3/4", "A": "5/2", "x": "-5/2", "y": "5/3", "z": "5/2"}'
TIED_Q = ('{"scale": "-9/8", "radicand": ["-5/2", "5/3", "5/2", "-7/3", "10/6"], "rhs": '
          '[["5/2", "-"], ["-5/2", "-"], ["-5/3", "+"], ["7/3", "+"], ["3/2", "+"]]}')
SURD_Q = ('{"scale": "1", "radicand": ["0 + 1*sqrt(2)", "3 - 1*sqrt(2)", "1/2 + 3/4*sqrt(2)", '
          '"-7/3 + 5/2*sqrt(2)"], "rhs": [["3 - 1*sqrt(2)", "-"], ["0 + 2/3*sqrt(2)", "+"]]}')
# The product of every trial prime below 4096.
TRIAL_PRODUCT = math.prod(
    p for p in range(2, 4096) if all(p % q for q in range(2, math.isqrt(p) + 1))
)

# The CLI's output contract, run in-process through main.
PINS = {
    "enumerate-perfect": Pin(
        "enumerate --class perfect", counts=(309, 1527),
        out="1c6ef47ae6142cb00796c9942e2bf54d1d50529e70c7075c8ee1c4d90c1817e5"),
    "enumerate-super-perfect": Pin(
        "enumerate --class super-perfect", counts=(39, 100),
        out="67af4abd32426046619fc746f18057acd3506b12f8bf7634b798e737301cb0d2"),
    "enumerate-perfect-out": Pin(
        "enumerate --class perfect --out FILE", counts=(309, 1527),
        out="1c6ef47ae6142cb00796c9942e2bf54d1d50529e70c7075c8ee1c4d90c1817e5"),
    "enumerate-super-perfect-out": Pin(
        "enumerate --class super-perfect --out FILE", counts=(39, 100),
        out="67af4abd32426046619fc746f18057acd3506b12f8bf7634b798e737301cb0d2"),
    # The prime tags and prime_filter: 43 perfect and 3 prime lines, then the
    # 3 prime super-perfect ones; the filtered count, with the scan's candidates.
    "enumerate-perfect-primes": Pin(
        "enumerate --class perfect --primes-only", counts=(46, 1527),
        out="a0f0767ca01a32491111ff4163bc72e337347a66b3f87452bcdd59570a9bd501"),
    "enumerate-super-perfect-primes": Pin(
        "enumerate --class super-perfect --primes-only", counts=(3, 100),
        out="5f0169e31b74de71a8ef7ab2985177425c5da4be236537c750908e3cd93abea0"),
    "enumerate-perfect-primes-out": Pin(
        "enumerate --class perfect --primes-only --out FILE", counts=(46, 1527),
        out="a0f0767ca01a32491111ff4163bc72e337347a66b3f87452bcdd59570a9bd501"),
    "enumerate-super-perfect-primes-out": Pin(
        "enumerate --class super-perfect --primes-only --out FILE", counts=(3, 100),
        out="5f0169e31b74de71a8ef7ab2985177425c5da4be236537c750908e3cd93abea0"),
    # 452, 334 and 240 lines.  In the third every A is negative, so every hit
    # flips A; z falls below, between and above the roots.
    "discover-t-2": Pin(
        "discover --seed 1 --trials 30000 --t 2",
        out="96002dccca579e256507b274ce3eab5bb9382ce2dead67dbfd6f133c0dcc227b"),
    "discover-t-15-16": Pin(
        "discover --seed 1 --trials 30000 --t 15/16",
        out="9ac8462d3b4144312e6aa653bba89af39def84b13d9dfa8fd3b01eabbeed8a2c"),
    "discover-negative-a": Pin(
        "discover --seed 4 --trials 20000 --t 15/16 --a-min -6 --a-max -2",
        out="90440afe7d3934fb4c041fd726ca7416ce3311b423fbe8f78f0ca6ed2a23c230"),
    # Outside the default box: negative A, trivial z values, a p range of 2^5 + 1 values.
    "discover-custom-box": Pin(
        "discover --seed 2 --trials 5000 --t 7/3 --a-min -6 --a-max 6 --z-min -1 --z-max 20 "
        "--k-den 16",
        out="899059498bd020d7ded19cbcd00164c2922679376997839b198e575856bc3a4f"),
    # build_tuple's roots for G, B and M with a common factor: surd (gcd 3),
    # rational (gcd 6), none (gcd 16).
    "solve-gcd-3": Pin(
        "solve --t 2 --A 4 --z 11 --k 1/3",
        out="9c9a4d32cf5d31e8210cc893a0eaa9ee861d70e9f1f135232e24a7fd0b91280b"),
    "solve-gcd-6": Pin(
        "solve --t 2 --A 3 --z 19 --k 1/6",
        out="a95502148b8abacbd1fa674a5d7539fbe45442dffb43b917b3bfa77c31bdf294"),
    "solve-gcd-16": Pin(
        "solve --t 15/16 --A 2 --z 17 --k 1/2",
        out="872818b5302a3eb574eb63b081cf494f590192582479119092012ec89a5f97ab"),
    "render-perfect-text": Pin(
        "render --format text", "enumerate-perfect",
        out="fd77d115e037f9031ea0d1494e67e14b68dac5bb56e5b377c227a8e4c780f079"),
    "render-perfect-latex": Pin(
        "render --format latex", "enumerate-perfect",
        out="60232eb91e2aee29fa3c2f38196c4322acfb8f4dbe0ec3d0309d6c8b5e8ec64c"),
    "render-zero-denominator": Pin(
        "render", '{"t": "1/0", "A": "3", "x": "7", "y": "11", "z": "19"}', EXIT_USAGE),
    "render-trailing-newline": Pin(
        "render", r'{"t": "2\n", "A": "3", "x": "7", "y": "11", "z": "19"}', EXIT_USAGE),
    # Refused by the step bound, not after hours of factoring.
    "render-unfactorable": Pin("render --format text", UNFACTORABLE_RECORD, EXIT_USAGE),
    # 2^5 3^4 4091^3 4093^2 4099: odd and even exponents on both sides of the trial bound.
    "render-past-the-trial-bound": Pin(
        "render --format text --unchecked", surd_record(12186664168090332002944032),
        out="sqrt((1 - 1/(1 + 602800668*sqrt(33538018))^2)) = 1\n"),
    "render-trial-primes-squared": Pin(
        "render --format text --unchecked", surd_record(TRIAL_PRODUCT**2 * 4099),
        out="d42cb7c9c1806434e366e064398140cc244ba66dec21a2315661212690a13d20"),
    "family-surd-high-13-digits": Pin(
        "family surd-high --a 1000000000039",
        out="76311354039085c8610ebed1a6683a9db732601f05cc99b0447934738e13e093"),
    "render-surd-high-13-digits": Pin(
        "render --format text", "family-surd-high-13-digits",
        out=Prefix("sqrt((1 - 1/(-1 + 2*sqrt(1000000000038))^2)")),
    "family-rebak-negative": Pin(
        "family rebak --a -7",
        out='{"t": "3/4", "A": "-7", "x": "-13", "y": "-19", "z": "-41", '
            '"class": "nontrivial-rational"}\n'),
    "render-rebak-negative": Pin(  # negative entries flipped
        "render --format text", "family-rebak-negative",
        out="sqrt(3/4 * (1 - 1/7^2) * (1 - 1/13^2) * (1 - 1/19^2) * (1 - 1/41^2)) "
            "= (1 - 1/13) * (1 - 1/19) * (1 - 1/41)\n"),
    "family-general-infinite": Pin(
        "family general-infinite --k 3",
        out='{"t": "2", "A": "3", "x": "5", "y": "-17", "z": "7", "class": "general"}\n'),
    "family-long-identity": Pin(
        "family long-identity --b 3 --n 2",
        out='{"scale": "1", "radicand": ["5", "6", "7", "7", "8", "11"], '
            '"rhs": [["5", "+"], ["7", "-"], ["11", "-"]]}\n'),
    "render-long-identity-latex": Pin(
        "render --format latex", "family-long-identity",
        out="584d8e9d6b04707902f33d1e453ac1317674077101e836a025ec8a3386b4c58e"),
    # A signed fractional tuple with ties, in its canonical order: |x| = |z| = A, "+" before "-".
    "render-tied-text": Pin(
        "render --format text --unchecked", TIED,
        out="4e7a56d113c4781129241c94b30ad997b561b41026320164255d69faf1f968c6"),
    "render-tied-latex": Pin(
        "render --format latex --unchecked", TIED,
        out="ae25b9a9c25f6f3b328fb8462c4afdfd063a3f9b9e0a48ed97877681ffba8193"),
    # A 63-entry long identity and a signed fractional record over Q with ties, both
    # ordered on their integer key: 7/3 before 5/2 though 7 > 5, "+" before "-".
    "family-long-identity-63": Pin(
        "family long-identity --b 40 --n 20",
        out="e94e64800386661547545b72d9e3d5713453dbbb6b1d2219322217b80e63994f"),
    "render-long-identity-63-text": Pin(
        "render --format text", "family-long-identity-63",
        out="6137574c13652630de72ab2ee90da14cf24e141745f9e8385ce52bad84a2f42a"),
    "render-long-identity-63-latex": Pin(
        "render --format latex", "family-long-identity-63",
        out="cf914f42a7ceccfe9d040bdab8b19e541ec571952c3c5281508cef83d559dd9d"),
    "render-tied-q-text": Pin(
        "render --format text --unchecked", TIED_Q,
        out="e99fed548c4b75e6704fd588a58c743d4f6c6e7693b50c970973e6fd7d60afdb"),
    "render-tied-q-latex": Pin(
        "render --format latex --unchecked", TIED_Q,
        out="4a0ad295b8fdcfb491f78b4395213da963a957032dc78ab75e746ebedfe11c8d"),
    # A 13-digit field, a fractional a, and an all-rational member (a - 1 = 9).
    "family-surd-low-13-digits": Pin(
        "family surd-low --a -1000000000037",
        out="58f13029422132896bcc01122b9ac3703b0ff3c0c0f2549a4192685866db9b60"),
    "render-surd-low-13-digits-text": Pin(
        "render --format text", "family-surd-low-13-digits",
        out="ee6817baaa38792ba90d47047ca1e9b70a751ce548382c5e043d2345f7c89be1"),
    "render-surd-low-13-digits-latex": Pin(
        "render --format latex", "family-surd-low-13-digits",
        out="700e379dc389ebb32a3a38c9bccff641bb7d16814e7e6aa8b2f1ca9cbffeba9f"),
    "family-surd-high-fraction": Pin(
        "family surd-high --a 7/2",
        out="d70df246386e6060383ffb0e17826ef1a6b62cb151c0b4dece271b522f359f31"),
    "render-surd-high-fraction-text": Pin(
        "render --format text", "family-surd-high-fraction",
        out="a8af63691282b41e1e2752c83f8ef4e3c7f51787445746bd887bec9177a698ea"),
    "render-surd-high-fraction-latex": Pin(
        "render --format latex", "family-surd-high-fraction",
        out="a4c0a0f6175af56813eb7f485eee8e0a9dd1dd9dbce16f961a5bcb82dad0b128"),
    "family-surd-high-rational": Pin(
        "family surd-high --a 10",
        out="34be07958e9130cd7ef53ae0b6af33e1dc3f005a463179ac4185faaad40b0677"),
    "render-surd-high-rational-text": Pin(
        "render --format text", "family-surd-high-rational",
        out="99da7d03a80135bc03726f8fa2ab04beba807f94b316d2d535c748ffb6d80121"),
    "render-surd-high-rational-latex": Pin(
        "render --format latex", "family-surd-high-rational",
        out="8835f93ce89064e230eb7f0edbcdb0c50c736b661119dde82c2224c48eda188b"),
    # Surd values with p = 0, a negative p, a fractional q, and p > 0 with q < 0.
    "render-surd-q-latex": Pin(
        "render --format latex --unchecked", SURD_Q,
        out="d3ee773ab5f9f092bb5bf01b4e82b6be75a3e732b588420a5c5abb55d164f800"),
    "family-rebak-false": Pin(  # a sign-degenerate window
        "family rebak --a -3/5", code=EXIT_UNVERIFIED,
        out='{"t": "-1/4", "A": "-3/5", "x": "-1/5", "y": "1/5", "z": "-13/5"}\n'),
    "render-rebak-false": Pin(
        "render --format latex", "family-rebak-false", EXIT_UNVERIFIED),
    "render-rebak-false-unchecked": Pin(
        "render --format latex --unchecked", "family-rebak-false",
        out="f5dabe159618ab3fcfe79b55af1ce39621f2bf802d20a4325cbe461596e67a18"),
}


def _run_pin(name: str, monkeypatch, capsys, path: Path) -> tuple[int, str, str]:
    pin = PINS[name]
    if pin.stdin in PINS:
        stdin = _run_pin(pin.stdin, monkeypatch, capsys, path)[1]
    else:
        stdin = pin.stdin + "\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    argv = pin.argv.split()
    code = main([str(path) if arg == "FILE" else arg for arg in argv])
    out, err = capsys.readouterr()
    if "FILE" in argv:
        out, err = path.read_text(), out + err
    return code, out, err


@pytest.mark.parametrize("name", PINS)
def test_cli_output_matches_its_pin(monkeypatch, capsys, tmp_path, name):
    pin = PINS[name]
    code, out, err = _run_pin(name, monkeypatch, capsys, tmp_path / "out")
    assert code == pin.code
    if isinstance(pin.out, Prefix):
        assert out.startswith(pin.out)
    elif re.fullmatch(r"[0-9a-f]{64}", pin.out):
        assert hashlib.sha256(out.encode()).hexdigest() == pin.out
    else:
        assert out == pin.out
    if pin.counts:
        summary = json.loads(err)
        assert (summary["count"], summary["candidates_examined"]) == pin.counts
