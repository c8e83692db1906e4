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
G/(2M) +- (s/(2M)) sqrt(f), where N = s^2 f with f squarefree.

``build_tuple`` reads the same roots from its own integers, without clearing
gamma and beta again.  Divide G, B and M by c = gcd(G, B, M), and N by c^2.
The reduced M/c is the lcm of the reduced denominators of gamma and beta: a
prime power p^e exactly dividing M/c cannot divide both G/c and B/c, so p^e
exactly divides the denominator of gamma or of beta.  Hence the reduced
triple is the one ``solve_roots`` clears to, its N is the same, and so are
the roots, surds included.

The inverse direction recovers k = (xy - (x+y) + 1) / (2 A^2 (z+1)) and
accepts it only if the companion equation
xy + (x+y) + 1 = 2 k t (A^2-1)(z-1) holds exactly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import TrivialInputError
from .exact import Surd, _clear_pair, as_rational, squarefree_decompose
from .identity import IdentityTuple, _check_nontrivial


@dataclass(frozen=True)
class ConditionReport:
    discriminant_nonnegative: bool
    beta_nonzero: bool
    one_minus_gamma_plus_beta_nonzero: bool
    minus_one_not_root: bool

    def all_satisfied(self) -> bool:
        return (self.discriminant_nonnegative and self.beta_nonzero
                and self.one_minus_gamma_plus_beta_nonzero and self.minus_one_not_root)

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RootPair:
    kind: str  # "rational" | "surd" | "none"
    rational: tuple[Fraction, Fraction] | None = None
    surd: tuple[Surd, Surd] | None = None

    def to_json_dict(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.kind != "none":
            d["values"] = [str(v) for v in self.rational or self.surd]
        return d


@dataclass(frozen=True)
class ConstructionResult:
    t: Fraction
    A: Fraction
    z: Fraction
    k: Fraction
    gamma: Fraction
    beta: Fraction
    discriminant: Fraction
    roots: RootPair
    conditions: ConditionReport

    def identity(self) -> IdentityTuple | None:
        """The assembled tuple, when the roots are rational and all
        condition flags hold; x and y carry the roots in ascending order."""
        if self.roots.kind != "rational" or not self.conditions.all_satisfied():
            return None
        hi, lo = self.roots.rational
        return IdentityTuple(self.t, self.A, lo, hi, self.z)

    def to_json_dict(self) -> dict:
        return {
            "t": str(self.t),
            "A": str(self.A),
            "z": str(self.z),
            "k": str(self.k),
            "gamma": str(self.gamma),
            "beta": str(self.beta),
            "discriminant": str(self.discriminant),
            "roots": self.roots.to_json_dict(),
            "conditions": self.conditions.to_json_dict(),
        }

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
    factors; the rational and negative cases need only ``isqrt``.  No search
    calls it; it stays public as the reference the tests hold the roots of
    ``build_tuple`` to, and the benchmark's tracer counts its calls."""
    gamma, beta = as_rational("gamma", gamma), as_rational("beta", beta)
    g, b, m = _clear_pair(gamma, beta)
    return _roots(g, b, m, g * g - 4 * b * m)


def _roots(g: int, b: int, m: int, n: int) -> RootPair:
    # solve_roots for gamma = g/m and beta = b/m, with m > 0 the lcm of their
    # reduced denominators and n = g^2 - 4bm; the inputs are not checked.
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
    conditions = ConditionReport(
        discriminant_nonnegative=n >= 0,
        beta_nonzero=b != 0,
        one_minus_gamma_plus_beta_nonzero=m - g + b != 0,
        minus_one_not_root=m + g + b != 0,
    )
    c = gcd(g, b, m)  # dividing by c gives solve_roots' integers (module docstring)
    roots = _roots(g // c, b // c, m // c, n // (c * c))
    disc = Fraction(n, m * m)
    return ConstructionResult(t, A, z, k, gamma, beta, disc, roots, conditions)


def recover_k(identity: IdentityTuple) -> Fraction | None:
    """The unique k mapping (t, A, z) to this tuple's (x, y), or None if the
    companion equation fails (the tuple then satisfies no such construction)."""
    t, A, x, y, z = identity.t, identity.A, identity.x, identity.y, identity.z
    k = (x * y - (x + y) + 1) / (2 * A * A * (z + 1))
    if x * y + (x + y) + 1 == 2 * k * t * (A * A - 1) * (z - 1):
        return k
    return None
