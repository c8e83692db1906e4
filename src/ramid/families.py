"""Closed-form identity families and a seeded randomized search.

Each generator substitutes its parameters into a fixed shape and returns the
resulting ``IdentityTuple`` or ``VariationIdentity``.  It checks only its
family's stated domain: whether a parameter makes an entry 0, 1 or -1 is
decided by the identity model, whose ``TrivialInputError`` the generator
reports as ``FamilyDomainError``.  Rebak and the low surd family have narrow
windows where the right-side product is negative, so the equation fails
though both sides square to the same value; the generators still construct
those objects and verification reports False (tests pin the windows).

``discover`` samples (A, z, k) from a seeded ``random.Random``, as
``Random.randint`` draws them, and tests each draw by the integer N test of
``construct``; every other draw stays in ints.  A square-N draw makes one
``build_tuple`` call; its roots are normalized and deduplicated on their
integers, and the hits are sorted by their entries over one common
denominator, which is exactly ``sorted`` since t is the same for every hit.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from math import isqrt, lcm

from .construct import _coefficients, build_tuple, solve_roots
from .errors import ConfigurationError, FamilyDomainError, TrivialInputError
from .exact import as_rational, require_int
from .identity import IdentityTuple, VariationIdentity, verify_tuple


def _reject(condition: bool, message: str) -> None:
    if condition:
        raise FamilyDomainError(message)


def _family(generator):
    """Report the model's ``TrivialInputError`` as ``FamilyDomainError``."""
    @functools.wraps(generator)
    def checked(*args, **kwargs):
        try:
            return generator(*args, **kwargs)
        except TrivialInputError as exc:
            shown = ", ".join([*map(str, args), *(f"{k}={v}" for k, v in kwargs.items())])
            raise FamilyDomainError(f"{generator.__name__}({shown}): {exc}") from exc

    return checked


@_family
def rebak_family(a: Fraction) -> IdentityTuple:
    """((a+1)/(a-1), a, 2a+1, 3a+2, 6a+1)."""
    a = as_rational("a", a)
    _reject(a == 1, "a = 1 leaves t = (a+1)/(a-1) undefined")
    return IdentityTuple((a + 1) / (a - 1), a, 2 * a + 1, 3 * a + 2, 6 * a + 1)


@_family
def rebak_variant_family(a: Fraction) -> IdentityTuple:
    """((a+1)/(a-1), a, 2a+1, 3a+1, 6a+5)."""
    a = as_rational("a", a)
    _reject(a == 1, "a = 1 leaves t = (a+1)/(a-1) undefined")
    return IdentityTuple((a + 1) / (a - 1), a, 2 * a + 1, 3 * a + 1, 6 * a + 5)


@_family
def general_infinite_family(k: int) -> IdentityTuple:
    """(2, k, 5, 1 - 2k^2, 7) for integer k outside {0, 1, -1}."""
    require_int("k", k)
    return IdentityTuple(
        Fraction(2), Fraction(k), Fraction(5), Fraction(1 - 2 * k * k), Fraction(7)
    )


@_family
def long_identity(b: int, n: int) -> VariationIdentity:
    """Arbitrarily long radicand built from a = 2 - b^2.

    Radicand factors use 2b+1, 2b-1, 2a+2n-1 and a-1, a, ..., a+n-1; the
    right side uses (1 - 1/(2b+1))(1 + 1/(2b-1))(1 + 1/(2a+2n-1)).

    The domain is b >= 2, n >= 1 and a + n < 0: the run a-1, ..., a+n-1
    starts at a-1 <= -3 and meets -1 or 0 exactly when a + n >= 0.
    """
    require_int("b", b)
    require_int("n", n)
    _reject(b < 2, f"b must be an integer >= 2 (got {b})")
    _reject(n < 1, f"n must be an integer >= 1 (got {n})")
    a = 2 - b * b
    tail = 2 * a + 2 * n - 1
    return VariationIdentity(
        radicand_entries=(2 * b + 1, 2 * b - 1, tail, *range(a - 1, a + n)),
        rhs_entries=((2 * b + 1, -1), (2 * b - 1, 1), (tail, 1)),
    )


def _surd_family(a: Fraction, gamma: int, beta: Fraction) -> VariationIdentity:
    # The construction's shape; the canonical form flips each negative entry.
    roots, z = solve_roots(gamma, beta), 2 * a + 1
    x, y = roots.rational or roots.surd
    return VariationIdentity(1, (a, a - 1, z, x, y), ((z, 1), (x, 1), (y, 1)))


@_family
def surd_family_high(a: Fraction) -> VariationIdentity:
    """Identity over Q(sqrt(a-1)) for a >= 3; all-rational when a-1 is a square.
    x, y = 1 +- 2 sqrt(a-1) are the roots for (gamma, beta) = (2, 5 - 4a), on
    the curve t = a(a-2)/(a-1)^2, A = a, z = 2a+1, k = -(a-1)/(a^2 (a+1))."""
    a = as_rational("a", a)
    _reject(a < 3, f"a must be >= 3 (got {a})")
    return _surd_family(a, 2, 5 - 4 * a)


@_family
def surd_family_low(a: Fraction) -> VariationIdentity:
    """Identity over Q(sqrt(2-a)) for a <= 1 outside {1, 0, -1/2, -1}.
    x, y = -1 +- 2 sqrt(2-a) are the roots for (gamma, beta) = (-2, 4a - 7), on
    the curve t = a(a-2)/(a-1)^2, A = a, z = 2a+1, k = (a-1)/(a^2 (a+1))."""
    a = as_rational("a", a)
    _reject(a > 1, f"a must be <= 1 (got {a})")
    return _surd_family(a, -2, 4 * a - 7)


def discover(
    seed: int,
    trials: int,
    t: Fraction,
    a_range: tuple[int, int] = (2, 6),
    z_range: tuple[int, int] = (-50, 50),
    k_den_max: int = 12,
) -> list[IdentityTuple]:
    """Seeded random scan of (A, z, k) lattice points for a fixed t.

    k is drawn as 1/m or p/m with 1 <= m <= k_den_max and |p| <= k_den_max.
    Keeps constructions with rational roots, all condition flags true and a
    verifying tuple; results are normalized, deduplicated and sorted.  Draws
    whose roots are irrational (most of them) fail the integer test of
    ``construct`` (its N is negative or not a square) and are never built.

    The draws stay in ints.  (P, Q, D) of ``construct`` is computed once per
    A, on A's first draw, and a draw (A, z, p/m) tests
    N = G^2 - 4 B M with M = m D, G = p (P z - Q) and B = p (Q z - P) - M, k
    left unreduced.  Each integer of a range of size n is drawn inline as
    lo + r, with r = getrandbits(n.bit_length()) redrawn while r >= n: the
    rule of ``Random._randbelow_with_getrandbits`` (CPython 3.10 to 3.13), so
    the generator is consumed exactly as by ``Random.randint`` and a seed
    gives the hits it gave with ``randint``.

    A square-N draw makes one ``build_tuple(t, A, z, p/m)`` call.  It is a
    hit when its roots hi >= lo are rational, every condition flag holds
    (the rule of ``ConstructionResult.identity()``; the flags rule out 0 and
    +-1 for the roots) and its tuple verifies.  Its normal form, |A| and
    x <= y <= z, is decided in ints: z goes after hi = hn/hd unless
    z hd < hn, then before lo = ln/ld if z ld < ln.  Each distinct key
    (|A|, xn, xd, yn, yd, zn, zd) of entries in lowest terms is built
    unchecked and verified once.  The hits sort by (|A|, xn L/xd, yn L/yd,
    zn L/zd), L the lcm of their denominators.  That is the order of
    ``sorted``: t is the same for every hit, and v = n/d compares as the
    integer v L = n (L/d) since L > 0; distinct hits have distinct keys.
    """
    if require_int("trials", trials) <= 0:
        raise ConfigurationError(f"trials must be positive (got {trials})")
    for name, (lo, hi) in (("A", a_range), ("z", z_range)):
        require_int(f"{name} range bound", lo)
        require_int(f"{name} range bound", hi)
        if lo > hi:
            raise ConfigurationError(f"empty {name} range ({lo}, {hi})")
        if not any(v not in (0, 1, -1) for v in range(lo, hi + 1)):
            raise ConfigurationError(f"{name} range ({lo}, {hi}) has no usable value")
    if require_int("k_den_max", k_den_max) < 1:
        raise ConfigurationError(f"k denominator bound must be >= 1 (got {k_den_max})")
    t = as_rational("t", t)
    if t == 0:
        raise ConfigurationError("t must be nonzero")

    rng = random.Random(seed)
    bits, uniform = rng.getrandbits, rng.random
    # Each range as (lo, size n, n.bit_length()) for the inline draws.
    a_lo, a_n = a_range[0], a_range[1] - a_range[0] + 1
    z_lo, z_n = z_range[0], z_range[1] - z_range[0] + 1
    m_n, p_n = k_den_max, 2 * k_den_max + 1
    a_k, z_k, m_k, p_k = (n.bit_length() for n in (a_n, z_n, m_n, p_n))
    table: dict[int, tuple[int, int, int]] = {}
    found: dict[tuple[int, ...], IdentityTuple | None] = {}  # key -> hit, None if false
    for _ in range(trials):
        r = bits(a_k)
        while r >= a_n:
            r = bits(a_k)
        A = a_lo + r
        r = bits(z_k)
        while r >= z_n:
            r = bits(z_k)
        z = z_lo + r
        if A in (0, 1, -1) or z in (0, 1, -1):
            continue
        r = bits(m_k)
        while r >= m_n:
            r = bits(m_k)
        m = 1 + r
        if uniform() < 0.5:
            p = 1
        else:
            r = bits(p_k)
            while r >= p_n:
                r = bits(p_k)
            p = r - k_den_max
            if p == 0:
                continue
        if A not in table:
            table[A] = _coefficients(t, A)
        P, Q, D = table[A]
        M = m * D
        G = p * (P * z - Q)
        B = p * (Q * z - P) - M
        n = G * G - 4 * B * M
        if n < 0 or isqrt(n) ** 2 != n:
            continue
        result = build_tuple(t, A, z, Fraction(p, m))
        roots = result._rational_roots()
        if roots is None:
            continue
        hi, lo = roots
        (hn, hd), (ln, ld), a = hi.as_integer_ratio(), lo.as_integer_ratio(), abs(A)
        if z * hd >= hn:
            key, xyz = (a, ln, ld, hn, hd, z, 1), (lo, hi, result.z)
        elif z * ld >= ln:
            key, xyz = (a, ln, ld, z, 1, hn, hd), (lo, result.z, hi)
        else:
            key, xyz = (a, z, 1, ln, ld, hn, hd), (result.z, lo, hi)
        if key not in found:
            hit = tuple.__new__(IdentityTuple, (t, result.A if A > 0 else -result.A, *xyz))
            found[key] = hit if verify_tuple(hit) else None
    keys = [key for key, hit in found.items() if hit is not None]
    L = lcm(*[d for key in keys for d in key[2::2]])
    keys.sort(key=lambda k: (k[0], k[1] * (L // k[2]), k[3] * (L // k[4]), k[5] * (L // k[6])))
    return [found[key] for key in keys]


# Family name -> generator and its parameters with their types, in call order.
FAMILIES = {
    "rebak": (rebak_family, {"a": Fraction}),
    "rebak-variant": (rebak_variant_family, {"a": Fraction}),
    "general-infinite": (general_infinite_family, {"k": int}),
    "long-identity": (long_identity, {"b": int, "n": int}),
    "surd-high": (surd_family_high, {"a": Fraction}),
    "surd-low": (surd_family_low, {"a": Fraction}),
}


def generate(name: str, params: dict) -> IdentityTuple | VariationIdentity:
    """Dispatch by family name; ``params`` holds exactly its parameter names."""
    if name not in FAMILIES:
        raise FamilyDomainError(f"unknown family {name!r}; expected one of {tuple(FAMILIES)}")
    generator, keys = FAMILIES[name]
    if set(params) != set(keys):
        got = sorted(params)
        raise FamilyDomainError(f"family {name} takes exactly {sorted(keys)} (got {got})")
    return generator(*(params[key] for key in keys))
