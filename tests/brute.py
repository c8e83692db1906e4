"""Desk-scale references for the searches.

``brute_force_super_perfect`` is independent of the pruned search bounds.  It
loops every 2 <= A < x < y <= limit for t in 2..6 (no inequality pruning),
solves z in closed form with vectorized int64 arithmetic, then confirms each
integer hit exactly with Fractions before reporting it.  With limit = 2000
the products stay below ~1e14, far inside int64.

``normalize_tuple`` is the normal form of a ``discover`` hit: A replaced by
|A| (only A^2 enters the identity) and x, y, z in ascending order.

``discover_reference`` is the seeded search as it was written with
``Random.randint`` and a ``Fraction`` k per draw, tested with
``construct._cleared``.

``is_prime_reference`` is ``exact.is_prime`` as it was before it chose its
Miller-Rabin bases by the size of n: all 12 bases up to 37 on every n that
passes trial division, base 41 too from psi_12 on, then the strong Lucas step.
"""

import random
from fractions import Fraction
from math import isqrt

import numpy as np

from ramid import IdentityTuple, build_tuple, verify_tuple
from ramid.construct import _cleared
from ramid.exact import _strong_lucas

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI_12 = 318665857834031151167461
_PSI_13 = 3317044064679887385961981


def _pair_arrays(limit: int):
    # All (x, y) with 3 <= x < y <= limit, ordered by x; offsets[x] is the
    # start of the block with that x so "x > A" is a suffix slice.
    xs, ys = [], []
    offsets = np.zeros(limit + 2, dtype=np.int64)
    pos = 0
    for x in range(3, limit):
        count = limit - x
        offsets[x] = pos
        xs.append(np.full(count, x, dtype=np.int64))
        ys.append(np.arange(x + 1, limit + 1, dtype=np.int64))
        pos += count
    offsets[limit:] = pos
    return np.concatenate(xs), np.concatenate(ys), offsets


def brute_force_super_perfect(limit: int = 2000) -> set[IdentityTuple]:
    xs, ys, offsets = _pair_arrays(limit)
    xm1, xp1 = xs - 1, xs + 1
    ym1, yp1 = ys - 1, ys + 1
    m = xm1 * ym1
    p = xp1 * yp1
    hits: set[tuple[int, ...]] = set()
    for t in range(2, 7):
        for A in range(2, limit - 1):
            start = offsets[A + 1]
            if start >= len(xs):
                break
            n = (t * (A * A - 1)) * m[start:]
            d = (A * A) * p[start:]
            u = n - d
            v = n + d
            ok = u > 0
            safe_u = np.where(ok, u, 1)
            ok &= v % safe_u == 0
            if not ok.any():
                continue
            z = v[ok] // safe_u[ok]
            bx, by = xs[start:][ok], ys[start:][ok]
            keep = (z > by) & (A > t) & (bx > A)
            for x, y, zz in zip(bx[keep], by[keep], z[keep]):
                hits.add((t, A, int(x), int(y), int(zz)))
    confirmed = set()
    for t, A, x, y, z in hits:
        identity = IdentityTuple(*(Fraction(v) for v in (t, A, x, y, z)))
        assert verify_tuple(identity), identity
        confirmed.add(identity)
    return confirmed


def normalize_tuple(identity: IdentityTuple) -> IdentityTuple:
    return IdentityTuple(identity.t, abs(identity.A), *sorted(identity[2:]))


def discover_reference(
    seed: int,
    trials: int,
    t: Fraction,
    a_range: tuple[int, int] = (2, 6),
    z_range: tuple[int, int] = (-50, 50),
    k_den_max: int = 12,
) -> list[IdentityTuple]:
    rng = random.Random(seed)
    found = set()
    for _ in range(trials):
        A = rng.randint(*a_range)
        z = rng.randint(*z_range)
        if A in (0, 1, -1) or z in (0, 1, -1):
            continue
        m = rng.randint(1, k_den_max)
        if rng.random() < 0.5:
            k = Fraction(1, m)
        else:
            p = rng.randint(-k_den_max, k_den_max)
            if p == 0:
                continue
            k = Fraction(p, m)
        n = _cleared(t, A, z, k)[3]
        if n < 0 or isqrt(n) ** 2 != n:
            continue
        candidate = build_tuple(t, A, z, k).identity()
        if candidate is not None and verify_tuple(candidate):
            found.add(normalize_tuple(candidate))
    return sorted(found)


def is_prime_reference(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES if n < _PSI_12 else _SMALL_PRIMES + (41,):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_13 or _strong_lucas(n)
