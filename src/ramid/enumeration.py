"""Exhaustive search for perfect and super-perfect identities.

For positive integers the identity is equivalent to the product equation

    t = (1 + 1/(A^2-1)) (1 + 2/(x-1)) (1 + 2/(y-1)) (1 + 2/(z-1)),

so z has the closed form z = (N+D)/(N-D) with N = t(A^2-1)(x-1)(y-1) and
D = A^2(x+1)(y+1), and never needs to be looped.  All interval endpoints are
decided by exact integer comparisons.

Super-perfect search (t < A < x < y < z): t runs over 2..6, and for each
admissible (t, A) the x interval satisfies

    (1 + 1/(A^2-1)) (1 + 2/(x-1))^3 >= t      (upper end; y, z factors are
                                               each smaller than the x one)
    (1 + 1/(A^2-1)) (1 + 2/(x-1))    < t      (lower end; y, z factors are
                                               each > 1)

and analogously for y given m = t / ((1 + 1/(A^2-1))(1 + 2/(x-1))):
(1 + 2/(y-1)) < m and (1 + 2/(y-1))^2 > m.

Perfect search (x <= y <= z, A unordered, t <= 36): for fixed (t, x, y) put
P = t(x-1)(y-1) and Q = (x+1)(y+1).  Solutions need P > Q, and z(A) strictly
decreases toward z_c = (P+Q)/(P-Q) as A grows, so z >= v with
v = max(y, floor(z_c)+1) caps A^2 at P(v-1) / (v(P-Q) - (P+Q)).  That bound
is what makes the scan provably finite for every t, including the small-x
cells where comparing A with x alone bounds nothing.

Each cell scan completes its candidates to z in place, from the integers it
already holds: with p = t(x-1)(y-1) and q = (x+1)(y+1), n = (A^2-1)p and
d = A^2 q, a candidate completes when n > d and n - d divides n + d, and is
kept when z = (n+d)/(n-d) is at least its least admissible z (y+1 for
super-perfect cells, y for perfect ones).  ``solve_z`` is the reference for
this completion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources
from itertools import chain, compress
from math import isqrt
from typing import Callable, Iterable, TextIO

from .exact import as_rational, is_prime, require_int
from .identity import Classification, IdentityTuple, _integer_class, verify_tuple

SUPER_PERFECT_T_VALUES = range(2, 7)
PERFECT_T_MAX = 36  # (1 + 1/3)(1 + 2)^3, every variable at its minimum 2

_GOLDEN_RESOURCE = "appendix_super_perfect.jsonl"


@dataclass(frozen=True)
class EnumerationReport:
    identities: tuple[IdentityTuple, ...]
    candidates_examined: int
    wall_time: float
    tags: tuple[Classification, ...] = ()  # classify(identity), one per identity

    def to_summary_dict(self) -> dict:
        return {
            "count": len(self.identities),
            "candidates_examined": self.candidates_examined,
            "wall_time_seconds": self.wall_time,
        }

    def write_jsonl(self, stream: TextIO) -> None:
        for identity, tag in zip(self.identities, self.tags, strict=True):
            stream.write(identity.to_json(tag) + "\n")


def solve_z(t: Fraction | int, A: int, x: int, y: int) -> int | None:
    """Integer z >= 2 completing (t, A, x, y), or None.  A, x and y must be
    ints and t an int or a ``Fraction``; floats are rejected.

    None covers both a non-integral completion and an integral one below 2,
    such as z = -27 for (2, 2, 6, 14).
    """
    if not (type(A) is type(x) is type(y) is int):
        for name, value in (("A", A), ("x", x), ("y", y)):
            require_int(name, value)
    if type(t) is not int:  # an int has numerator t and denominator 1
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


def _fa(A: int) -> Fraction:
    return Fraction(A * A, A * A - 1)


def _fx(x: int) -> Fraction:
    return Fraction(x + 1, x - 1)


def _cubic_holds(t: int, A: int, x: int) -> bool:
    # (1 + 1/(A^2-1)) (1 + 2/(x-1))^3 >= t
    return A * A * (x + 1) ** 3 >= t * (A * A - 1) * (x - 1) ** 3


def super_x_interval(t: int, A: int) -> tuple[int, int] | None:
    """Admissible x for the super-perfect cell (t, A), or None if empty."""
    c = t * (A * A - 1) - A * A
    lower = (t * (A * A - 1) + A * A) // c + 1
    lo = max(A + 1, lower)
    if not _cubic_holds(t, A, lo):
        return None
    hi = lo
    while _cubic_holds(t, A, hi + 1):
        hi += 1
    return lo, hi


def _largest_y(mn: int, md: int, strict: bool) -> int:
    # Largest y with (y+1)^2 * md > (y-1)^2 * mn (or >= when strict=False);
    # requires mn > md.  y < 2(mn+md)/(mn-md) is a safe cap.
    def holds(y: int) -> bool:
        lhs, rhs = (y + 1) ** 2 * md, (y - 1) ** 2 * mn
        return lhs > rhs if strict else lhs >= rhs

    lo, hi = 2, 2 * (mn + md) // (mn - md) + 2
    if not holds(lo):
        return lo - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if holds(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def super_y_interval(t: int, A: int, x: int) -> tuple[int, int] | None:
    """Admissible y for the super-perfect cell (t, A, x), or None if empty."""
    m = Fraction(t) / (_fa(A) * _fx(x))
    if m <= 1:
        return None
    mn, md = m.numerator, m.denominator
    lo = max(x + 1, (mn + md) // (mn - md) + 1)
    hi = _largest_y(mn, md, strict=True)
    if lo > hi:
        return None
    return lo, hi


def _super_perfect_cells() -> list[tuple[int, int]]:
    cells = []
    for t in SUPER_PERFECT_T_VALUES:
        A = t + 1
        # Once even x = A+1 fails the cubic bound, larger A only gets worse.
        while _cubic_holds(t, A, A + 1):
            cells.append((t, A))
            A += 1
    return cells


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


def _perfect_x_max(t: int) -> int:
    # Largest x with (4/3)(1 + 2/(x-1))^3 >= t; F_A <= 4/3 for every A >= 2.
    x = 2
    while 4 * (x + 2) ** 3 >= 3 * t * x ** 3:  # shifted: test x+1
        x += 1
    return x


def _perfect_cells() -> list[tuple[int, int]]:
    return [
        (t, x) for t in range(2, PERFECT_T_MAX + 1) for x in range(2, _perfect_x_max(t) + 1)
    ]


def _smallest_a_below(r: Fraction) -> int | None:
    # Smallest A >= 2 with A^2/(A^2-1) < r; None when r <= 1.
    if r <= 1:
        return None
    rn, rd = r.numerator, r.denominator
    if 4 * rd < 3 * rn:  # A = 2 already qualifies
        return 2
    # A^2 (rn - rd) > rn
    a = isqrt(rn // (rn - rd)) + 1
    while a * a * (rn - rd) <= rn:
        a += 1
    return max(a, 2)


def _scan_perfect_cell(cell: tuple[int, int], hits: list[tuple[int, ...]]) -> int:
    """Append each completed (t, A, x, y, z) of the cell; return its candidate count."""
    t, x = cell
    fx = _fx(x)
    if fx >= t:
        return 0
    r = Fraction(t) / fx
    a0 = _smallest_a_below(r)
    if a0 is None:
        return 0
    m4 = r / _fa(a0)
    y_hi = _largest_y(m4.numerator, m4.denominator, strict=False)
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
    and build, verify and tag each identity once."""
    start = time.perf_counter()
    hits: list[tuple[int, ...]] = []
    examined = sum(scan(cell, hits) for cell in cells)
    found = sorted(set(hits))
    fraction_of = {n: Fraction(n) for n in set(chain.from_iterable(found))}
    identities = tuple(IdentityTuple(*map(fraction_of.__getitem__, v)) for v in found)
    for identity in identities:
        if not verify_tuple(identity):
            raise AssertionError(f"enumerated tuple fails to verify: {identity}")
    tags = tuple(_integer_class(*v) for v in found)
    elapsed = time.perf_counter() - start
    return EnumerationReport(identities, examined, elapsed, tags)


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
        all(
            v.denominator == 1 and is_prime(int(v))
            for v in (identity.A, identity.x, identity.y, identity.z)
        )
        for identity in report.identities
    ]
    return replace(
        report,
        identities=tuple(compress(report.identities, keep)),
        tags=tuple(compress(report.tags, keep)),
    )


def load_appendix() -> list[IdentityTuple]:
    """The transcribed published list, in print order (one entry repeats)."""
    text = (
        resources.files("ramid").joinpath("data").joinpath(_GOLDEN_RESOURCE)
    ).read_text()
    return [IdentityTuple.from_json(line) for line in text.splitlines() if line]


def appendix_distinct() -> set[IdentityTuple]:
    return set(load_appendix())
