"""Independent 120-bit mpmath oracle for the benchmark's output checks.

It reads identities from the text ramid prints (JSON lines and the plain-text
rendering), never from ramid's own objects or parsers, and decides whether
sqrt(radicand) equals the right-side product to within 2^-100 relative.  An
identity is true only when the radicand is nonnegative and both sides agree,
so sign-degenerate members (right side negative, squares equal) fail here.
"""

from __future__ import annotations

import re
from fractions import Fraction

import mpmath

_MP = mpmath.MPContext()
_MP.prec = 120
_TOLERANCE = _MP.mpf(2) ** -100

_RATIONAL = re.compile(r"[+-]?\d+(?:/\d+)?")
_SURD = re.compile(
    r"(?P<p>[+-]?\d+(?:/\d+)?) (?P<sign>[+-]) (?P<q>\d+(?:/\d+)?)\*sqrt\((?P<d>\d+)\)"
)
_TEXT = re.compile(r"sqrt\((?P<radicand>.*)\) = (?P<rhs>.*)")
_TEXT_ALPHABET = re.compile(r"[0-9 +\-*/^()]|sqrt")
_INTEGER = re.compile(r"\d+")

TUPLE_KEYS = ("t", "A", "x", "y", "z")


class CheckError(Exception):
    """An op's output is wrong."""


def rational(text: str) -> Fraction:
    if not _RATIONAL.fullmatch(text):
        raise CheckError(f"not a rational literal: {text!r}")
    return Fraction(text)


def _mp_rational(value: Fraction) -> mpmath.mpf:
    return _MP.mpf(value.numerator) / value.denominator


def _mp_value(text: str) -> mpmath.mpf:
    """A rational literal or ``p +/- q*sqrt(d)`` as ramid prints surds."""
    if _RATIONAL.fullmatch(text):
        return _mp_rational(Fraction(text))
    m = _SURD.fullmatch(text)
    if not m:
        raise CheckError(f"not a surd literal: {text!r}")
    q = _mp_rational(Fraction(m["q"])) * _MP.sqrt(int(m["d"]))
    return _mp_rational(Fraction(m["p"])) + (q if m["sign"] == "+" else -q)


def _sides(scale, radicand, rhs) -> tuple[mpmath.mpf, mpmath.mpf]:
    r = scale
    for v in radicand:
        r *= 1 - 1 / (v * v)
    s = _MP.mpf(1)
    for v, sign in rhs:
        s *= 1 + sign / v
    if r < 0:
        raise CheckError("radicand is negative")
    return _MP.sqrt(r), s


def agree(a: mpmath.mpf, b: mpmath.mpf) -> bool:
    return abs(a - b) <= _TOLERANCE * max(abs(a), abs(b), 1)


def tuple_values(record: dict) -> tuple[Fraction, ...]:
    return tuple(rational(record[k]) for k in TUPLE_KEYS)


def _tuple_sides(values: tuple[Fraction, ...]) -> tuple[mpmath.mpf, mpmath.mpf]:
    t, A, x, y, z = (_mp_rational(v) for v in values)
    return _sides(t, (A, x, y, z), ((x, 1), (y, 1), (z, 1)))


def tuple_holds(values: tuple[Fraction, ...]) -> bool:
    try:
        return agree(*_tuple_sides(values))
    except CheckError:
        return False


def record_sides(record: dict) -> tuple[mpmath.mpf, mpmath.mpf]:
    """Both sides of an identity given as ramid's JSON object (tuple or variation)."""
    if "radicand" not in record:
        return _tuple_sides(tuple_values(record))
    return _sides(
        _mp_rational(rational(record["scale"])),
        [_mp_value(v) for v in record["radicand"]],
        [(_mp_value(v), 1 if s == "+" else -1) for v, s in record["rhs"]],
    )


def text_sides(text: str) -> tuple[mpmath.mpf, mpmath.mpf]:
    """Both sides of a ``render_text`` line, evaluated as written."""
    m = _TEXT.fullmatch(text)
    if not m or _TEXT_ALPHABET.sub("", text.replace(" = ", "")):
        raise CheckError(f"not a rendered identity: {text!r}")

    def evaluate(expr: str) -> mpmath.mpf:
        expr = _INTEGER.sub(lambda d: f"mpf({d.group()})", expr).replace("^", "**")
        return eval(expr, {"__builtins__": {}, "mpf": _MP.mpf, "sqrt": _MP.sqrt})

    radicand = evaluate(m["radicand"])
    if radicand < 0:
        raise CheckError("rendered radicand is negative")
    return _MP.sqrt(radicand), evaluate(m["rhs"])


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1
    return True


def tuple_class(values: tuple[Fraction, ...]) -> str:
    """The most specific class tag of a true tuple, from the definitions."""
    t, A, x, y, z = values
    if any(v.denominator != 1 for v in values):
        return "nontrivial-rational"
    if any(v < 2 for v in values):
        return "general"
    lo, mid, hi = sorted((x, y, z))
    if not t < A < lo < mid < hi:
        return "perfect"
    if all(_is_prime(int(v)) for v in (A, lo, mid, hi)):
        return "prime"
    return "super-perfect"
