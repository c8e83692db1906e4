"""Exhaustive search for perfect and super-perfect identities.

For positive integers the identity is equivalent to the product equation

    t = (1 + 1/(A^2-1)) (1 + 2/(x-1)) (1 + 2/(y-1)) (1 + 2/(z-1)),

so z has the closed form z = (N+D)/(N-D) with N = t(A^2-1)(x-1)(y-1) and
D = A^2(x+1)(y+1), and never needs to be looped.  Below, F_A = A^2/(A^2-1)
and F_n = (n+1)/(n-1) for n = x, y, z; each factor exceeds 1 and falls
toward 1 as its variable grows.

Super-perfect search (t < A < x < y < z): t runs over 2..6, and for each
admissible (t, A) the x interval satisfies

    F_A F_x^3 >= t      (upper end; the y and z factors are each below F_x)
    F_A F_x    < t      (lower end; the y and z factors each exceed 1)

and analogously for y given m = t / (F_A F_x) = mn/md:  F_y < m and
F_y^2 > m.  A runs up from t+1 while x = A+1 still passes the upper bound.

Perfect search (x <= y <= z, A unordered, t <= 36): x runs up from 2 while
(4/3) F_x^3 >= t, as F_A <= 4/3.  With r = t / F_x = rn/rd, a0 is the least
A with F_A < r, and y runs up from x while F_y^2 >= r / F_a0 = mn/md.  For
fixed (t, x, y) put P = t(x-1)(y-1) and Q = (x+1)(y+1).  Solutions need
P > Q, and z(A) strictly decreases toward z_c = (P+Q)/(P-Q) as A grows, so
z >= v with v = max(y, floor(z_c)+1) caps A^2 at
P(v-1) / (v(P-Q) - (P+Q)).  That bound is what makes the scan provably
finite for every t, including the small-x cells where comparing A with x
alone bounds nothing.

All interval ends are decided by exact integer comparisons: each ratio is
kept as an unreduced pair of ints, and each upper end (and a0 - 1) is found
by one search, ``_last``, that steps n up while an integer predicate holds.
Every predicate compares a quantity that falls in n with a bound that its
limit lies below, so every search ends: F_A F_x^3 falls toward F_A <= 4/3,
F_A F_(A+1)^3 toward 1 and (4/3) F_x^3 toward 4/3, all below t >= 2; F_y^2
falls toward 1 < mn/md, and F_A toward 1 < rn/rd.

Each cell scan completes its candidates to z in place, from the integers it
already holds: with p = t(x-1)(y-1) and q = (x+1)(y+1), n = (A^2-1)p and
d = A^2 q, a candidate completes when n > d and n - d divides n + d, and is
kept when z = (n+d)/(n-d) is at least its least admissible z (y+1 for
super-perfect cells, y for perfect ones).  ``solve_z`` is the reference for
this completion.

Each distinct completed int is checked once to be at least 2, and each
tuple once for x <= y <= z and t(A^2-1)(x-1)(y-1)(z-1) = A^2(x+1)(y+1)(z+1),
the equation of ``verify_tuple`` with every denominator 1: with every entry
at least 2 both sides are positive, so its sign clause holds and the equation
alone decides the identity.  In the same pass each identity is built from
shared ``Fraction``s, skipping the checks of the named tuple's ``__new__``,
and its tag and JSON line are read from the same ordered ints, so writing a
report only joins its lines.  An ``EnumerationReport`` is an immutable named
tuple, equal to the plain tuple of its fields; ``prime_filter`` derives its
report with ``_replace``.
"""

from __future__ import annotations

import time
from collections import namedtuple
from collections.abc import Callable, Iterable
from fractions import Fraction
from io import TextIOBase
from itertools import chain, compress
from math import isqrt

from .exact import as_rational, is_prime, require_int
from .identity import IdentityTuple, _json_line, _ordered_class

SUPER_PERFECT_T_VALUES = range(2, 7)
PERFECT_T_MAX = 36  # (1 + 1/3)(1 + 2)^3, every variable at its minimum 2

_GOLDEN_RESOURCE = "appendix_super_perfect.jsonl"


# lines holds identity.to_json(classify(identity)) + "\n", one per identity.
class EnumerationReport(namedtuple(
    "EnumerationReport", "identities candidates_examined wall_time lines", defaults=((),)
)):
    __slots__ = ()

    def to_summary_dict(self) -> dict:
        return {
            "count": len(self.identities),
            "candidates_examined": self.candidates_examined,
            "wall_time_seconds": self.wall_time,
        }

    def write_jsonl(self, stream: TextIOBase) -> None:
        if len(self.lines) != len(self.identities):
            raise ValueError("a report needs one JSON line per identity")
        stream.write("".join(self.lines))


def solve_z(t: Fraction | int, A: int, x: int, y: int) -> int | None:
    """Integer z >= 2 completing (t, A, x, y), or None.  A, x and y must be
    ints and t an int or a ``Fraction``; floats are rejected.

    None covers both a non-integral completion and an integral one below 2,
    such as z = -27 for (2, 2, 6, 14).  No search calls it; it stays public
    as the reference the tests hold the cell scans' inline completion to, and
    the benchmark's tracer counts its calls.
    """
    for name, value in (("A", A), ("x", x), ("y", y)):
        require_int(name, value)
    t = as_rational("t", t)
    n = t.numerator * (A * A - 1) * (x - 1) * (y - 1)
    d = t.denominator * A * A * (x + 1) * (y + 1)
    if n <= d:
        return None
    num, den = n + d, n - d
    if num % den:
        return None
    z = num // den
    return z if z >= 2 else None


def _last(holds: Callable[[int], bool], lo: int) -> int:
    """Largest n >= lo with holds(n), or lo - 1 when holds(lo) is false.
    holds must be true on a run of integers from lo and false after it."""
    while holds(lo):
        lo += 1
    return lo - 1


def _cubic_holds(t: int, A: int, x: int) -> bool:
    # F_A F_x^3 >= t
    return A * A * (x + 1) ** 3 >= t * (A * A - 1) * (x - 1) ** 3


def super_x_interval(t: int, A: int) -> tuple[int, int] | None:
    """Admissible x for the super-perfect cell (t, A), or None if empty."""
    c = t * (A * A - 1) - A * A
    lo = max(A + 1, (t * (A * A - 1) + A * A) // c + 1)
    hi = _last(lambda x: _cubic_holds(t, A, x), lo)
    return (lo, hi) if lo <= hi else None


def super_y_interval(t: int, A: int, x: int) -> tuple[int, int] | None:
    """Admissible y for the super-perfect cell (t, A, x), or None if empty."""
    mn, md = t * (A * A - 1) * (x - 1), A * A * (x + 1)  # m = mn / md
    if mn <= md:
        return None
    lo = max(x + 1, (mn + md) // (mn - md) + 1)
    hi = _last(lambda y: (y + 1) ** 2 * md > (y - 1) ** 2 * mn, lo)
    return (lo, hi) if lo <= hi else None


def _super_perfect_cells() -> list[tuple[int, int]]:
    # Once even x = A+1 fails the cubic bound, larger A only gets worse.
    return [
        (t, A)
        for t in SUPER_PERFECT_T_VALUES
        for A in range(t + 1, _last(lambda A: _cubic_holds(t, A, A + 1), t + 1) + 1)
    ]


def _scan_super_cell(cell: tuple[int, int], hits: list[tuple[int, ...]]) -> int:
    """Append each completed (t, A, x, y, z) of the cell; return its candidate count."""
    t, A = cell
    xs = super_x_interval(t, A)
    if xs is None:
        return 0
    examined, a2 = 0, A * A
    for x in range(xs[0], xs[1] + 1):
        ys = super_y_interval(t, A, x)
        if ys is not None:
            examined += ys[1] - ys[0] + 1
            for y in range(ys[0], ys[1] + 1):
                n, d = (a2 - 1) * t * (x - 1) * (y - 1), a2 * (x + 1) * (y + 1)
                if n > d and (n + d) % (n - d) == 0 and (z := (n + d) // (n - d)) > y:
                    hits.append((t, A, x, y, z))
    return examined


def _perfect_cells() -> list[tuple[int, int]]:
    return [
        (t, x)
        for t in range(2, PERFECT_T_MAX + 1)
        for x in range(2, _last(lambda x: 4 * (x + 1) ** 3 >= 3 * t * (x - 1) ** 3, 2) + 1)
    ]


def _scan_perfect_cell(cell: tuple[int, int], hits: list[tuple[int, ...]]) -> int:
    """Append each completed (t, A, x, y, z) of the cell; return its candidate count."""
    t, x = cell
    rn, rd = t * (x - 1), x + 1  # r = t / F_x = rn / rd
    if rn <= rd:
        return 0
    a0 = _last(lambda A: A * A * (rn - rd) <= rn, 1) + 1
    mn, md = rn * (a0 * a0 - 1), rd * a0 * a0  # r / F_a0 = mn / md
    y_hi = _last(lambda y: (y + 1) ** 2 * md >= (y - 1) ** 2 * mn, x)
    examined = 0
    for y in range(x, y_hi + 1):
        p = t * (x - 1) * (y - 1)
        q = (x + 1) * (y + 1)
        if p <= q:
            continue
        v = max(y, (p + q) // (p - q) + 1)
        den = v * (p - q) - (p + q)
        a_max = isqrt(p * (v - 1) // den)
        examined += a_max - 1  # a_max >= 1, as p(v-1) >= den
        for A in range(2, a_max + 1):
            n, d = (A * A - 1) * p, A * A * q
            if n > d and (n + d) % (n - d) == 0 and (z := (n + d) // (n - d)) >= y:
                hits.append((t, A, x, y, z))
    return examined


def _run_cells(
    cells: Iterable[tuple[int, int]],
    scan: Callable[[tuple[int, int], list[tuple[int, ...]]], int],
) -> EnumerationReport:
    """Scan every cell for completed integer tuples, then dedup and sort them
    and build, check, tag and format each identity once, from its ints.

    Each distinct int is checked once to be at least 2, which covers the
    public constructor's checks (t nonzero, no entry 0 or +-1).  Each tuple
    is then checked for x <= y <= z and for
    t(A^2-1)(x-1)(y-1)(z-1) = A^2(x+1)(y+1)(z+1), ``verify_tuple``'s equation
    with every denominator 1; with every entry at least 2 both sides are
    positive, so its sign clause holds and the equation decides what
    ``verify_tuple`` does.  Either failure raises ``AssertionError`` naming
    the tuple.  Each identity is built from one shared ``Fraction`` per
    int, ``_ordered_class`` tags the same ints and ``_json_line`` formats
    them, with the tag, into the identity's JSON line.
    """
    start = time.perf_counter()
    hits: list[tuple[int, ...]] = []
    examined = sum(scan(cell, hits) for cell in cells)
    found = sorted(set(hits))
    fraction_of = {n: Fraction(n) for n in set(chain.from_iterable(found))}
    if min(fraction_of, default=2) < 2:
        low = next(v for v in found if min(v) < 2)
        raise AssertionError(f"enumerated tuple has an entry below 2: {low}")
    get, new = fraction_of.__getitem__, tuple.__new__
    identities, lines = [], []
    for t, A, x, y, z in found:
        a2 = A * A
        identity = new(IdentityTuple, (get(t), get(A), get(x), get(y), get(z)))
        if not (
            x <= y <= z
            and t * (a2 - 1) * (x - 1) * (y - 1) * (z - 1) == a2 * (x + 1) * (y + 1) * (z + 1)
        ):
            raise AssertionError(f"enumerated tuple fails to verify: {identity}")
        identities.append(identity)
        lines.append(_json_line(t, A, x, y, z, _ordered_class(t, A, x, y, z)) + "\n")
    elapsed = time.perf_counter() - start
    return EnumerationReport(tuple(identities), examined, elapsed, tuple(lines))


def enumerate_super_perfect() -> EnumerationReport:
    """All identities with integer entries and t < A < x < y < z, t in 2..6."""
    return _run_cells(_super_perfect_cells(), _scan_super_cell)


def enumerate_perfect() -> EnumerationReport:
    """All identities with positive integer entries > 1, normalized to
    x <= y <= z (A unordered relative to x)."""
    return _run_cells(_perfect_cells(), _scan_perfect_cell)


def prime_filter(report: EnumerationReport) -> EnumerationReport:
    """Keep tuples whose A, x, y, z are all prime."""
    keep = [
        all(v.denominator == 1 and is_prime(int(v)) for v in identity[1:])
        for identity in report.identities
    ]
    return report._replace(
        identities=tuple(compress(report.identities, keep)),
        lines=tuple(compress(report.lines, keep)),
    )


def load_appendix() -> list[IdentityTuple]:
    """The transcribed published list, in print order (one entry repeats)."""
    from importlib import resources  # on Python 3.12+ it imports inspect: not at import

    text = (
        resources.files("ramid").joinpath("data").joinpath(_GOLDEN_RESOURCE)
    ).read_text()
    return [IdentityTuple.from_json(line) for line in text.splitlines() if line]


def appendix_distinct() -> set[IdentityTuple]:
    return set(load_appendix())
