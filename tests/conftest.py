"""Shared helpers: extended-precision float oracles and family test grids."""

import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from brute import lift, variation_sides
from ramid import (
    IdentityTuple,
    Surd,
    VariationIdentity,
    general_infinite_family,
    long_identity,
    rebak_family,
    rebak_variant_family,
    surd_family_high,
    surd_family_low,
)

mpmath.mp.prec = 120  # comfortably past 80-bit

F = Fraction


def mp_rational(value: Fraction) -> mpmath.mpf:
    return mpmath.mpf(value.numerator) / value.denominator


def mp_surd(value: Surd) -> mpmath.mpf:
    return mp_rational(value.p) + mp_rational(value.q) * mpmath.sqrt(value.d)


def mp_tuple_sides(identity: IdentityTuple) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(sqrt of radicand, right-side product) at 120-bit precision."""
    r = mp_rational(identity.t)
    for v in (identity.A, identity.x, identity.y, identity.z):
        r *= 1 - 1 / mp_rational(v) ** 2
    s = mpmath.mpf(1)
    for v in (identity.x, identity.y, identity.z):
        s *= 1 + 1 / mp_rational(v)
    return mpmath.sqrt(r), s


def mp_variation_sides(identity: VariationIdentity) -> tuple[mpmath.mpf, mpmath.mpf]:
    r = mp_rational(identity.scale)
    for v in identity.radicand_entries:
        r *= 1 - 1 / mp_surd(v) ** 2
    s = mpmath.mpf(1)
    for v, sign in identity.rhs_entries:
        s *= 1 + sign / mp_surd(v)
    return mpmath.sqrt(r), s


_TEXT_TOKENS = re.compile(r"\d+|sqrt|[ +\-*/^()]")


def mp_text_sides(text: str) -> tuple[mpmath.mpf, mpmath.mpf]:
    """Both sides of a ``render_text`` line, evaluated as written: integers
    as 120-bit floats, ^ as power, the usual precedence."""
    lhs, rhs = text.split(" = ")

    def evaluate(expr: str) -> mpmath.mpf:
        assert not _TEXT_TOKENS.sub("", expr), expr
        expr = re.sub(r"\d+", lambda m: f"mpf({m.group()})", expr).replace("^", "**")
        return eval(expr, {"__builtins__": {}, "mpf": mpmath.mpf, "sqrt": mpmath.sqrt})

    return evaluate(lhs), evaluate(rhs)


def float_agrees(identity, rel_tol: float = 1e-10) -> bool:
    if isinstance(identity, IdentityTuple):
        lhs, rhs = mp_tuple_sides(identity)
    else:
        lhs, rhs = mp_variation_sides(identity)
    return abs(lhs - rhs) <= rel_tol * max(abs(rhs), mpmath.mpf(1e-30))


# Parameter grids on which each family provably yields identities (the
# sign-degenerate windows of rebak / rebak-variant / surd-low are excluded
# here and pinned separately).

REBAK_GRID = (
    [F(a) for a in range(2, 32)]
    + [F(a) for a in range(-2, -18, -1)]
    + [F(1, 2), F(3, 2), F(5, 2), F(7, 2), F(-5, 4), F(-7, 4), F(-9, 4), F(22, 7)]
)

REBAK_VARIANT_GRID = (
    [F(a) for a in range(2, 32)]
    + [F(a) for a in range(-2, -18, -1)]
    + [F(1, 4), F(3, 2), F(5, 2), F(9, 2), F(-5, 4), F(-9, 4), F(-13, 4), F(17, 5)]
)

GENERAL_GRID = [k for k in range(-27, 28) if abs(k) >= 2]

LONG_GRID = [(2, 1)] + [(b, n) for b in range(3, 13) for n in range(1, 7)]

SURD_HIGH_GRID = [F(a) for a in range(3, 41)] + [
    F(7, 2), F(10, 3), F(13, 2), F(17, 4), F(26, 5),
    F(50, 7), F(65, 8), F(82, 9), F(101, 10), F(11, 3), F(23, 7), F(37, 2),
]

SURD_LOW_GRID = [F(a) for a in range(-2, -46, -1)] + [
    F(1, 2), F(1, 3), F(-1, 4), F(-9, 4), F(-17, 2), F(-7, 3),
]


def family_tuples() -> list[IdentityTuple]:
    out = [rebak_family(a) for a in REBAK_GRID]
    out += [rebak_variant_family(a) for a in REBAK_VARIANT_GRID]
    out += [general_infinite_family(k) for k in GENERAL_GRID]
    return out


def family_variations() -> list[VariationIdentity]:
    out = [long_identity(b, n) for b, n in LONG_GRID]
    out += [surd_family_high(a) for a in SURD_HIGH_GRID]
    out += [surd_family_low(a) for a in SURD_LOW_GRID]
    return out


# Squarefree fields: small ones, primes of 9 to 13 digits, and the 13-digit
# 10**12 + 38 = 2*3*13*17*29*26005097.
FIELDS = (2, 3, 5, 30030, 999999937, 9999999967, 99999999977, 999999999989,
          1000000000039, 10**12 + 38)

_RATIONALS = st.builds(F, st.integers(-60, 60), st.integers(1, 15))
_NONZERO = _RATIONALS.filter(lambda v: v != 0)
_NONTRIVIAL = _RATIONALS.filter(lambda v: v not in (0, 1, -1))


def canonical_reference(entries) -> list[tuple[Surd, int]]:
    """The canonical form of ``VariationIdentity``'s entries, in ``FieldSurd``
    arithmetic: each negative (v, s) becomes (-v, -s), then the pairs ascend
    by (value, -sign), so "+" comes first among equal values."""
    pairs = [(lift(v), s) for v, s in entries]
    flipped = [(-v, -s) if v < 0 else (v, s) for v, s in pairs]
    return sorted(flipped, key=lambda pair: (pair[0], -pair[1]))


@st.composite
def signed_tuples(draw):
    """Signed rational tuples.  Half the time z solves
    t(1 - 1/A^2)(1 - 1/x)(1 - 1/y)(1 - 1/z) = (1 + 1/x)(1 + 1/y)(1 + 1/z),
    so that hits, and hits whose right side is negative, are common."""
    t, A, x, y = draw(_NONZERO), draw(_NONTRIVIAL), draw(_NONTRIVIAL), draw(_NONTRIVIAL)
    if draw(st.booleans()):
        return IdentityTuple(t, A, x, y, draw(_NONTRIVIAL))
    c = t * (1 - 1 / (A * A)) * (1 - 1 / x) * (1 - 1 / y) / ((1 + 1 / x) * (1 + 1 / y))
    assume(c not in (1, -1))
    return IdentityTuple(t, A, x, y, (c + 1) / (c - 1))


@st.composite
def tuples_with_ties(draw):
    """Signed rational tuples whose |A|, |x|, |y| and |z| often coincide:
    each entry is one of at most three values, with a random sign."""
    pool = draw(st.lists(_NONTRIVIAL, min_size=1, max_size=3))
    entries = st.tuples(st.sampled_from(pool), st.sampled_from((1, -1)))
    A, x, y, z = (v * s for v, s in draw(st.lists(entries, min_size=4, max_size=4)))
    return IdentityTuple(draw(_NONZERO), A, x, y, z)


def _conjugate(v: Surd) -> Surd:
    return Surd(v.p, -v.q, v.d)


@st.composite
def variations(draw, fields=(0,) + FIELDS):
    """Variations over Q or one field of ``fields`` (0 for Q), with up to 6
    radicand and 4 right-side entries.  Half the time the entries are
    conjugate pairs and rationals, which makes both sides rational, and the
    scale is solved from R = S^2: those verify, or fail only on the sign of
    the right side."""
    d = draw(st.sampled_from(fields))
    entries = st.builds(
        Surd, _RATIONALS, _RATIONALS if d else st.just(0), st.just(d)
    ).filter(lambda v: v not in (0, 1, -1))
    signed = st.tuples(entries, st.sampled_from((1, -1)))
    if draw(st.booleans()):
        return VariationIdentity(
            draw(_NONZERO),
            tuple(draw(st.lists(entries, max_size=6))),
            tuple(draw(st.lists(signed, max_size=4))),
        )
    rationals = st.builds(Surd, _NONTRIVIAL)
    radicand = draw(st.lists(entries, max_size=2))
    rhs = draw(st.lists(signed, max_size=1))
    radicand += [_conjugate(v) for v in radicand] + draw(st.lists(rationals, max_size=2))
    rhs += [(_conjugate(v), s) for v, s in rhs] + draw(
        st.lists(st.tuples(rationals, st.sampled_from((1, -1))), max_size=2)
    )
    unscaled = VariationIdentity(1, tuple(radicand), tuple(rhs))
    r, s = (side.as_rational() for side in variation_sides(unscaled))
    return VariationIdentity(s * s / r, unscaled.radicand_entries, unscaled.rhs_entries)


@pytest.fixture(scope="session")
def super_perfect_report():
    from ramid import enumerate_super_perfect

    return enumerate_super_perfect()


@pytest.fixture(scope="session")
def perfect_report():
    from ramid import enumerate_perfect

    return enumerate_perfect()
