"""Desk-scale references for the searches and the exact checks.

``FieldSurd`` is a ``Surd`` with the field arithmetic that the library does
not carry: ``+ - * /``, negation, ``conjugate``, ``norm``, ``inverse``, the
exact ``sign`` and the total order, its results built by
``FieldSurd._field``.  ``lift`` turns a library ``Surd``, an int or a
``Fraction`` into one.  ``tuple_sides`` and ``variation_sides`` are the exact
values (radicand, right side) of an ``IdentityTuple`` in ``Fraction``s and of
a ``VariationIdentity`` in ``FieldSurd``s, the references that the integer
checks ``verify_tuple`` and ``verify_variation`` are tested against.

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

from __future__ import annotations

import random
from fractions import Fraction
from functools import total_ordering
from math import isqrt

import numpy as np

from ramid import IdentityTuple, IncompatibleFieldError, Surd, build_tuple, verify_tuple
from ramid.construct import _cleared
from ramid.exact import _sign, _strong_lucas, as_rational

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI_12 = 318665857834031151167461
_PSI_13 = 3317044064679887385961981
_ZERO = Fraction(0)


@total_ordering
class FieldSurd(Surd):
    __slots__ = ()

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def as_rational(self) -> Fraction:
        if self.q != 0:
            raise ValueError(f"{self} is irrational")
        return self.p

    def _coerce(self, other: object) -> FieldSurd | None:
        # A rational operand embeds as d = 0; it needs no normalization.  A
        # library Surd is lifted, so that it negates and inverts.
        if isinstance(other, (Surd, int, Fraction)):
            return lift(other)
        return None

    def _common_d(self, other: Surd) -> int:
        if self.d and other.d and self.d != other.d:
            raise IncompatibleFieldError(
                f"cannot mix sqrt({self.d}) with sqrt({other.d})"
            )
        return self.d or other.d

    def __add__(self, other: object) -> FieldSurd:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        d = self._common_d(rhs)
        return FieldSurd._field(self.p + rhs.p, self.q + rhs.q, d)

    __radd__ = __add__

    def __neg__(self) -> FieldSurd:
        return FieldSurd._field(-self.p, -self.q, self.d)

    def __sub__(self, other: object) -> FieldSurd:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> FieldSurd:
        return (-self) + other

    def __mul__(self, other: object) -> FieldSurd:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        d = self._common_d(rhs)
        return FieldSurd._field(
            self.p * rhs.p + self.q * rhs.q * d,
            self.p * rhs.q + self.q * rhs.p,
            d,
        )

    __rmul__ = __mul__

    def conjugate(self) -> FieldSurd:
        return FieldSurd._field(self.p, -self.q, self.d)

    def norm(self) -> Fraction:
        """Field norm ``p*p - q*q*d`` (the product with the conjugate)."""
        return self.p * self.p - self.q * self.q * self.d

    def inverse(self) -> FieldSurd:
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError(f"{self} has no inverse")
        return FieldSurd._field(self.p / n, -self.q / n, self.d)

    def __truediv__(self, other: object) -> FieldSurd:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self * rhs.inverse()

    def __rtruediv__(self, other: object) -> FieldSurd:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs * self.inverse()

    def sign(self) -> int:
        """Exact sign of ``p + q*sqrt(d)``: compares p*p against q*q*d."""
        return _sign(self.p, self.q, self.d)

    def __lt__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if not (self.q or rhs.q):
            return self.p < rhs.p
        return _sign(self.p - rhs.p, self.q - rhs.q, self._common_d(rhs)) < 0

    def __float__(self) -> float:
        return float(self.p) + float(self.q) * self.d ** 0.5


def lift(value: Surd | int | Fraction) -> FieldSurd:
    """``value`` as a ``FieldSurd`` with the same fields."""
    if isinstance(value, Surd):
        return value if type(value) is FieldSurd else FieldSurd._field(value.p, value.q, value.d)
    return FieldSurd._field(as_rational("value", value), _ZERO, 0)


def tuple_sides(identity: IdentityTuple) -> tuple[Fraction, Fraction]:
    """(radicand, right side) of a tuple, in ``Fraction`` arithmetic."""
    r = identity.t
    for v in identity[1:]:
        r *= 1 - 1 / (v * v)
    s = Fraction(1)
    for v in identity[2:]:
        s *= 1 + 1 / v
    return r, s


def variation_sides(identity) -> tuple[FieldSurd, FieldSurd]:
    """(radicand, right side) of a ``VariationIdentity``, in field arithmetic."""
    r = lift(identity.scale)
    for v in identity.radicand_entries:
        r = r * (1 - (lift(v) * v).inverse())
    s = lift(1)
    for value, sign in identity.rhs_entries:
        s = s * (1 + sign * lift(value).inverse())
    return r, s


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
