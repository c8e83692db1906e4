"""Quadratic construction of identity tuples and recovery of the parameter k.

Given (t, A, z, k) with t, k nonzero and A, z outside {0, 1, -1}, set

    u     = (A^2 - 1) t
    gamma = (u - A^2) k z - (u + A^2) k
    beta  = (u + A^2) k z - (u - A^2) k - 1

Then x and y are the roots of X^2 - gamma X + beta = 0.  When the
discriminant is a rational square, beta is nonzero and neither 1 nor -1 is a
root, the assembled (t, A, x, y, z) satisfies the squared relation
radicand = rhs^2 identically; it is a genuine identity exactly when the
right-side product is also nonnegative (``verify_tuple`` checks that).

The construction misses no identity.  Take a tuple (entries outside
{0, 1, -1}) with radicand = rhs^2 and set k = (x-1)(y-1) / (2 A^2 (z+1)), as ``recover_k`` does.  The relation
t (A^2-1)(x-1)(y-1)(z-1) = A^2 (x+1)(y+1)(z+1) (radicand = rhs^2 with the
nonzero rhs cancelled) then reads (x+1)(y+1) = 2 k t (A^2-1)(z-1).  Half the
difference of these two equations is x + y = gamma and half their sum is
xy = beta, so x and y are the roots built from (t, A, z, k).

All of this is decided in integers over one common denominator.  With
t = tn/td, A = an/ad, z = zn/zd and k = kn/kd, all denominators positive, let
w = (an^2 - ad^2) tn, P = w - an^2 td, Q = w + an^2 td and D = ad^2 td; then

    M = kd zd D  (> 0)
    G = kn (P zn - Q zd)           gamma = G / M
    B = kn (Q zn - P zd) - M       beta  = B / M
    N = G^2 - 4 B M                gamma^2 - 4 beta = N / M^2

Since M^2 is a nonzero square, the discriminant is the square of a rational
exactly when N is: if N = r^2 it is (r/M)^2, and if it is (p/q)^2 then
N = (pM/q)^2, and an integer that is the square of a rational is the square
of an integer.  So the roots are rational exactly when N >= 0 is a perfect
square, and then x, y = (G -+ isqrt(N)) / (2M).  The condition flags are
B != 0, M - G + B != 0 (1 is not a root) and M + G + B != 0 (-1 is not a
root).  The fractions need not be in lowest terms: writing k as p/m with a
common factor c multiplies G, B and M by c and N by c^2, which changes
neither the sign of N nor whether it is a square.  ``families.discover``
applies this N test to k = p/m as drawn, and rejects irrational draws
without building the surd roots that ``build_tuple`` reports.

``solve_roots`` reads its roots from N by the same argument, after clearing
gamma and beta to G/M and B/M with M the lcm of their denominators: none when
N < 0, (G +- isqrt(N)) / (2M) when N is a square, and otherwise
G/(2M) +- (s/(2M)) sqrt(f), where N = s^2 f with f squarefree.  It is the
one root reader: ``build_tuple``, on the gamma and beta it builds, and the
surd families of ``families`` read their roots through it.

Each (t, A, z) line is a Moebius map between the two roots.  With
a = t (A^2-1)(z-1), b = A^2 (z+1), c = a - b and s = a + b, the squared
relation t (A^2-1)(x-1)(y-1)(z-1) = A^2 (x+1)(y+1)(z+1) reads
c xy - s (x+y) + c = 0.  So for c != 0 every rational y != s/c gives the
other root x = (s y - c)/(c y - s), and ``recover_k`` gives the k that builds
the pair.  For example (t, A, z) = (2, 3, 19) and y = 5 give x = 31, and
(2, 3, 5, 19, 31) verifies.

The inverse direction recovers k = (xy - (x+y) + 1) / (2 A^2 (z+1)) and
accepts it only if the companion equation
xy + (x+y) + 1 = 2 k t (A^2-1)(z-1) holds exactly.

``ConditionReport``, ``RootPair`` and ``ConstructionResult`` are immutable
named tuples, equal to the plain tuple of their fields.  They hold computed
results and check nothing; ``identity()`` builds its tuple through the checks.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from math import isqrt

from .errors import TrivialInputError
from .exact import Surd, _clear_pair, as_rational, squarefree_decompose
from .identity import IdentityTuple, _check_nontrivial


class ConditionReport(namedtuple("ConditionReport", [
    "discriminant_nonnegative", "beta_nonzero",
    "one_minus_gamma_plus_beta_nonzero", "minus_one_not_root",
])):
    __slots__ = ()

    def all_satisfied(self) -> bool:
        return all(self)


# kind is "rational", "surd" or "none"; rational and surd hold the pair of that kind.
class RootPair(namedtuple("RootPair", "kind rational surd", defaults=(None, None))):
    __slots__ = ()

    def to_json_dict(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.kind != "none":
            d["values"] = [str(v) for v in self.rational or self.surd]
        return d


class ConstructionResult(namedtuple(
    "ConstructionResult", "t A z k gamma beta discriminant roots conditions"
)):
    __slots__ = ()

    def identity(self) -> IdentityTuple | None:
        """The assembled tuple, when the roots are rational and all
        condition flags hold; x and y carry the roots in ascending order."""
        roots = self._rational_roots()
        if roots is None:
            return None
        hi, lo = roots
        return IdentityTuple(self.t, self.A, lo, hi, self.z)

    def _rational_roots(self) -> tuple[Fraction, Fraction] | None:
        # (hi, lo) when the roots are rational and every condition flag holds,
        # else None: the rule for a hit, shared by identity() and discover.
        if self.roots.kind != "rational" or not self.conditions.all_satisfied():
            return None
        return self.roots.rational

    def to_json_dict(self) -> dict:
        d = {name: str(v) for name, v in zip(self._fields[:7], self)}  # t .. discriminant
        d["roots"] = self.roots.to_json_dict()
        d["conditions"] = self.conditions._asdict()
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def _coefficients(t: int | Fraction, A: int | Fraction) -> tuple[int, int, int]:
    """(P, Q, D) of the module docstring for (t, A), with D = ad^2 td > 0.
    Only numerators and denominators are read; the inputs are not checked."""
    tn, td = t.numerator, t.denominator
    an2, ad2 = A.numerator**2, A.denominator**2
    w = (an2 - ad2) * tn
    return w - an2 * td, w + an2 * td, ad2 * td


def _cleared(
    t: int | Fraction, A: int | Fraction, z: int | Fraction, k: int | Fraction
) -> tuple[int, int, int, int]:
    """(G, B, M, N) of the module docstring: gamma = G/M, beta = B/M, M > 0
    and discriminant N/M^2.  Only numerators and denominators are read, so
    ints are accepted as they are; the inputs are not checked."""
    p, q, d = _coefficients(t, A)
    zn, zd = z.numerator, z.denominator
    m = k.denominator * zd * d
    g = k.numerator * (p * zn - q * zd)
    b = k.numerator * (q * zn - p * zd) - m
    return g, b, m, g * g - 4 * b * m


def solve_roots(gamma: Fraction, beta: Fraction) -> RootPair:
    """Roots of X^2 - gamma X + beta, read from the integer N of the module
    docstring: a rational pair (larger first), a conjugate surd pair over the
    squarefree part of N, or none when N is negative.

    Surd roots need the squarefree part of N, which comes from factoring N
    (``squarefree_decompose``), so their cost grows with N's largest prime
    factors; the rational and negative cases need only ``isqrt``."""
    gamma, beta = as_rational("gamma", gamma), as_rational("beta", beta)
    g, b, m = _clear_pair(gamma, beta)
    n = g * g - 4 * b * m
    if n < 0:
        return RootPair("none")
    r, m2 = isqrt(n), 2 * m
    if r * r == n:
        return RootPair("rational", rational=(Fraction(g + r, m2), Fraction(g - r, m2)))
    f, s = squarefree_decompose(n)
    p, q = Fraction(g, m2), Fraction(s, m2)
    # n is not a square, so f > 1 is squarefree and needs no normalizing.
    return RootPair("surd", surd=(Surd._field(p, q, f), Surd._field(p, -q, f)))


def build_tuple(
    t: int | Fraction, A: int | Fraction, z: int | Fraction, k: int | Fraction
) -> ConstructionResult:
    t, A = as_rational("t", t), as_rational("A", A)
    z, k = as_rational("z", z), as_rational("k", k)
    if t == 0:
        raise TrivialInputError("t must be nonzero")
    if k == 0:
        raise TrivialInputError("k must be nonzero")
    _check_nontrivial("A", A)
    _check_nontrivial("z", z)
    g, b, m, n = _cleared(t, A, z, k)
    gamma, beta = Fraction(g, m), Fraction(b, m)
    conditions = ConditionReport(n >= 0, b != 0, m - g + b != 0, m + g + b != 0)
    roots, disc = solve_roots(gamma, beta), Fraction(n, m * m)
    return ConstructionResult(t, A, z, k, gamma, beta, disc, roots, conditions)


def recover_k(identity: IdentityTuple) -> Fraction | None:
    """The unique k mapping (t, A, z) to this tuple's (x, y), or None if the
    companion equation fails (the tuple then satisfies no such construction)."""
    t, A, x, y, z = identity
    k = (x * y - (x + y) + 1) / (2 * A * A * (z + 1))
    if x * y + (x + y) + 1 == 2 * k * t * (A * A - 1) * (z - 1):
        return k
    return None
