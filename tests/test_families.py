"""Closed-form family generators and the seeded search."""

import hashlib
import random
import re
from collections import Counter
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brute import discover_reference, lift, normalize_tuple, tuple_sides, variation_sides
from conftest import (
    GENERAL_GRID,
    LONG_GRID,
    REBAK_GRID,
    REBAK_VARIANT_GRID,
    SURD_HIGH_GRID,
    SURD_LOW_GRID,
    mp_text_sides,
)
from ramid import (
    ConfigurationError,
    FamilyDomainError,
    IdentityTuple,
    PreconditionError,
    Surd,
    build_tuple,
    classify,
    discover,
    general_infinite_family,
    long_identity,
    rebak_family,
    rebak_variant_family,
    render_latex,
    render_text,
    surd_family_high,
    surd_family_low,
    verify,
    verify_tuple,
    verify_variation,
)
from ramid import exact
from ramid.families import generate

F = Fraction


def test_rebak_reproduces_notebook_identity():
    assert rebak_family(F(3)) == IdentityTuple(F(2), F(3), F(7), F(11), F(19))


def test_rebak_a2():
    identity = rebak_family(F(2))
    assert identity == IdentityTuple(F(3), F(2), F(5), F(8), F(13))
    assert verify_tuple(identity)


@pytest.mark.parametrize("a", [F(-2, 3), F(-1, 2), F(-1, 3), F(-1, 6), F(0), F(1), F(-1)])
def test_rebak_excluded_parameters(a):
    with pytest.raises(FamilyDomainError):
        rebak_family(a)


def test_rebak_grid_verifies():
    assert len(REBAK_GRID) >= 50
    for a in REBAK_GRID:
        assert verify_tuple(rebak_family(a)), a


def test_rebak_gamma_beta_closed_forms():
    for a in REBAK_GRID:
        result = build_tuple((a + 1) / (a - 1), a, 6 * a + 1, 1 / (2 * a))
        assert result.gamma == 5 * a + 3
        assert result.beta == 6 * a * a + 7 * a + 2


def test_rebak_is_a_construction_instance():
    for a in REBAK_GRID:
        identity = rebak_family(a)
        result = build_tuple((a + 1) / (a - 1), a, 6 * a + 1, 1 / (2 * a))
        built = result.identity()
        assert built is not None
        assert (built.t, built.A, built.z) == (identity.t, identity.A, identity.z)
        assert {built.x, built.y} == {identity.x, identity.y}
        if a > -1:  # 2a+1 < 3a+2 there, so the slot order matches exactly
            assert built == identity


def test_rebak_sign_degenerate_windows():
    # Inside (-2/3, -1/2) and (-1/3, -1/6) the right side is negative:
    # both sides still square to the same value, but the identity is false.
    for a in (F(-3, 5), F(-1, 4)):
        identity = rebak_family(a)
        r, s = tuple_sides(identity)
        assert r == s ** 2
        assert not verify_tuple(identity)


@pytest.mark.parametrize("render", [render_latex, render_text], ids=["latex", "text"])
def test_renders_refuse_a_false_identity_unless_unchecked(render):
    identity = rebak_family(F(-3, 5))  # inside a sign-degenerate window
    with pytest.raises(PreconditionError, match="^identity does not verify"):
        render(identity)
    assert "sqrt" in render(identity, unchecked=True)


def test_rebak_variant_known_instances():
    first = rebak_variant_family(F(3))
    assert first == IdentityTuple(F(2), F(3), F(7), F(10), F(23))
    assert verify_tuple(first)
    second = rebak_variant_family(F(2))
    assert second == IdentityTuple(F(3), F(2), F(5), F(7), F(17))
    assert verify_tuple(second)


@pytest.mark.parametrize("a", [F(-5, 6), F(-2, 3), F(-1, 2), F(-1, 3), F(0), F(1)])
def test_rebak_variant_excluded_parameters(a):
    with pytest.raises(FamilyDomainError):
        rebak_variant_family(a)


def test_rebak_variant_grid_verifies():
    assert len(REBAK_VARIANT_GRID) >= 50
    for a in REBAK_VARIANT_GRID:
        assert verify_tuple(rebak_variant_family(a)), a


def test_rebak_variant_sign_degenerate_windows():
    for a in (F(-3, 4), F(-2, 5)):
        identity = rebak_variant_family(a)
        r, s = tuple_sides(identity)
        assert r == s ** 2
        assert not verify_tuple(identity)


def test_general_infinite_k2():
    identity = general_infinite_family(2)
    assert identity == IdentityTuple(F(2), F(2), F(5), F(-7), F(7))
    assert verify_tuple(identity)
    assert tuple_sides(identity)[1] == F(288, 245)


def test_general_infinite_k3():
    assert verify_tuple(general_infinite_family(3))
    assert general_infinite_family(3).y == -17


@pytest.mark.parametrize("k", [0, 1, -1])
def test_general_infinite_excluded(k):
    with pytest.raises(FamilyDomainError):
        general_infinite_family(k)


def test_general_infinite_grid_verifies():
    assert len(GENERAL_GRID) >= 50
    for k in GENERAL_GRID:
        assert verify_tuple(general_infinite_family(k))


def test_long_identity_b5_n1_matches_worked_example():
    v = long_identity(5, 1)
    assert [lift(e).as_rational() for e in v.radicand_entries] == [9, 11, 23, 24, 45]
    assert [(lift(e).as_rational(), s) for e, s in v.rhs_entries] == [
        (9, 1), (11, -1), (45, -1),
    ]
    assert verify_variation(v)


def test_long_identity_b3_n2():
    v = long_identity(3, 2)
    assert sorted(abs(lift(e).as_rational()) for e in v.radicand_entries) == [
        5, 6, 7, 7, 8, 11,
    ]
    assert verify_variation(v)


def test_long_identity_b2_n3_violates_zero_condition():
    # a = -2: the radicand run a-1, ..., a+n-1 is -3, -2, -1, 0, and the tail
    # 2a + 2n - 1 = 1; the model reports the first trivial entry it meets.
    with pytest.raises(
        FamilyDomainError,
        match=r"^long_identity\(2, 3\): radicand entry must not be 0, 1 or -1: 1$",
    ):
        long_identity(2, 3)


def test_long_identity_b2_n1_is_valid():
    assert verify_variation(long_identity(2, 1))


@pytest.mark.parametrize("b, n", [(1, 1), (0, 2), (3, 0), (2, -1)])
def test_long_identity_rejects_bad_shape(b, n):
    with pytest.raises(FamilyDomainError):
        long_identity(b, n)


def test_long_identity_grid_verifies():
    assert len(LONG_GRID) >= 50
    for b, n in LONG_GRID:
        assert verify_variation(long_identity(b, n)), (b, n)


def test_long_identity_routes_through_construction():
    # with t the product of the first n radicand factors, A = a-1,
    # z = 2a+2n-1 and k = 1/((a-1)(a+n)): gamma = -2 and disc = 16 b^2
    for b, n in LONG_GRID[:20]:
        a = 2 - b * b
        t = F(1)
        for i in range(n):
            t *= 1 - F(1, (a + i) ** 2)
        result = build_tuple(t, F(a - 1), F(2 * a + 2 * n - 1), F(1, (a - 1) * (a + n)))
        assert result.gamma == -2
        assert result.gamma ** 2 - 4 * result.beta == 16 * b * b


def test_surd_high_a5_all_rational():
    v = surd_family_high(F(5))
    assert v.field_radicand() == 0
    assert verify_variation(v)


def test_surd_high_a3_genuine_sqrt2():
    v = surd_family_high(F(3))
    assert v.field_radicand() == 2
    assert verify_variation(v)


def test_surd_high_a10_rational_again():
    v = surd_family_high(F(10))
    assert v.field_radicand() == 0
    assert verify_variation(v)


def test_surd_high_rejects_small_a():
    with pytest.raises(FamilyDomainError):
        surd_family_high(F(2))


def test_surd_high_grid_verifies():
    assert len(SURD_HIGH_GRID) >= 50
    for a in SURD_HIGH_GRID:
        assert verify_variation(surd_family_high(a)), a


def test_surd_low_a_minus2_all_rational():
    v = surd_family_low(F(-2))
    assert v.field_radicand() == 0
    assert verify_variation(v)


def test_surd_low_a_minus7_all_rational():
    assert verify_variation(surd_family_low(F(-7)))


def test_surd_low_sqrt3_instance():
    v = surd_family_low(F(-10))  # 2 - a = 12, squarefree part 3
    assert v.field_radicand() == 3
    assert verify_variation(v)


@pytest.mark.parametrize("a", [F(1), F(0), F(-1, 2), F(2), F(-1)])
def test_surd_low_excluded(a):
    with pytest.raises(FamilyDomainError):
        surd_family_low(a)


def test_surd_low_grid_verifies():
    assert len(SURD_LOW_GRID) >= 50
    for a in SURD_LOW_GRID:
        assert verify_variation(surd_family_low(a)), a


def test_surd_low_sign_degenerate_window():
    # a in (-1, -1/2): the 2a+1 right-side factor makes the product negative
    v = surd_family_low(F(-3, 4))
    assert not verify_variation(v)
    r, s = variation_sides(v)
    assert r == s * s


@pytest.mark.parametrize(
    "generator, params, decompositions",
    [
        (surd_family_high, (F(10**12 + 39),), 1),
        (surd_family_low, (F(-10),), 1),
        (long_identity, (5, 3), 0),
    ],
    ids=["surd-high", "surd-low", "long-identity"],
)
def test_generators_normalize_only_the_field_root(monkeypatch, generator, params, decompositions):
    # Entries embed in the identity model without Surd.__init__; a surd member
    # factors only the N of solve_roots, once.
    inits, calls = [], []
    init = Surd.__init__

    def counted(self, *args):
        inits.append(args)
        init(self, *args)

    monkeypatch.setattr(Surd, "__init__", counted)
    decompose = exact.squarefree_decompose

    def decomposed(n):
        calls.append(n)
        return decompose(n)

    monkeypatch.setattr("ramid.exact.squarefree_decompose", decomposed)
    monkeypatch.setattr("ramid.construct.squarefree_decompose", decomposed)
    identity = generator(*params)
    assert len(inits) == 0 and len(calls) == decompositions
    assert verify_variation(identity)


def _trivial(*values):
    return any(v in (0, 1, -1) for v in values)


# Reference domains written from the docstring shapes: a parameter is
# rejected exactly when it is outside the family's stated domain, leaves t
# undefined or zero, or makes some entry 0, 1 or -1.  t = (a+1)/(a-1) is zero
# only at a = -1, where A = a is trivial too.  A surd entry 2s +- 1 with
# s = sqrt(r) >= 0 is 0, 1 or -1 exactly when r is 0, 1/4 or 1.
_SHAPE_REJECTS = {
    rebak_family: lambda a: a == 1 or _trivial(a, 2 * a + 1, 3 * a + 2, 6 * a + 1),
    rebak_variant_family: lambda a: a == 1 or _trivial(a, 2 * a + 1, 3 * a + 1, 6 * a + 5),
    surd_family_high: lambda a: (
        a < 3 or _trivial(a, a - 1, 2 * a + 1) or a - 1 in (0, F(1, 4), 1)
    ),
    surd_family_low: lambda a: (
        a > 1 or _trivial(a, a - 1, 2 * a + 1) or 2 - a in (0, F(1, 4), 1)
    ),
}


def _rejects(generator, *params):
    try:
        generator(*params)
    except FamilyDomainError:
        return True
    return False


@pytest.mark.parametrize("generator", list(_SHAPE_REJECTS), ids=lambda g: g.__name__)
def test_rational_family_domains_follow_the_shapes(generator):
    # every a = p/q with |p| <= 60 and 1 <= q <= 60
    grid = {F(p, q) for p in range(-60, 61) for q in range(1, 61)}
    for a in grid:
        assert _rejects(generator, a) == _SHAPE_REJECTS[generator](a), a


def test_general_infinite_domain_follows_the_shape():
    for k in range(-300, 301):
        assert _rejects(general_infinite_family, k) == _trivial(k, 1 - 2 * k * k), k


def test_long_identity_domain_follows_the_shape():
    for b in range(0, 11):
        for n in range(-1, 111):
            a = 2 - b * b
            entries = (2 * b + 1, 2 * b - 1, 2 * a + 2 * n - 1, *range(a - 1, a + n))
            expected = b < 2 or n < 1 or _trivial(*entries)
            assert _rejects(long_identity, b, n) == expected, (b, n)


def test_domain_errors_name_the_generator_and_the_entry():
    with pytest.raises(
        FamilyDomainError, match=r"^rebak_family\(-1/2\): x must not be 0, 1 or -1 \(got 0\)$"
    ):
        rebak_family(F(-1, 2))
    with pytest.raises(FamilyDomainError, match=r"^surd_family_low\(-1\): radicand entry"):
        surd_family_low(F(-1))
    with pytest.raises(FamilyDomainError, match=r"^long_identity\(2, n=3\): radicand entry"):
        long_identity(2, n=3)


@pytest.mark.parametrize("params", [{}, {"k": 5}, {"a": 3, "k": 5}])
def test_generate_takes_exactly_the_family_parameters(params):
    message = f"family rebak takes exactly ['a'] (got {sorted(params)})"
    with pytest.raises(FamilyDomainError, match=f"^{re.escape(message)}$"):
        generate("rebak", params)


def test_generate_rejects_an_unknown_family():
    with pytest.raises(FamilyDomainError, match="^unknown family 'no-such'; expected one of"):
        generate("no-such", {})


def test_discover_finds_search_identity():
    found = discover(seed=1, trials=20000, t=F(15, 16),
                     a_range=(2, 6), z_range=(-10, 20), k_den_max=10)
    target = IdentityTuple(F(15, 16), F(2), F(-3), F(9), F(17))
    assert target in found
    assert found == sorted(set(found))
    for identity in found:
        assert verify_tuple(identity)


def test_discover_finds_notebook_identity():
    found = discover(seed=3, trials=30000, t=F(2),
                     a_range=(2, 6), z_range=(-25, 25), k_den_max=10)
    assert IdentityTuple(F(2), F(3), F(7), F(11), F(19)) in found


def test_discover_deterministic():
    kwargs = dict(trials=5000, t=F(2), a_range=(2, 4), z_range=(-20, 20))
    assert discover(seed=9, **kwargs) == discover(seed=9, **kwargs)


def test_discover_builds_only_draws_with_rational_roots(monkeypatch):
    # The integer N test turns away every irrational draw before build_tuple.
    expected = discover(seed=1, trials=2000, t=F(2))
    built = []

    def recorded(*inputs):
        built.append(build_tuple(*inputs))
        return built[-1]

    monkeypatch.setattr("ramid.families.build_tuple", recorded)
    assert discover(seed=1, trials=2000, t=F(2)) == expected
    assert built
    assert all(result.roots.kind == "rational" for result in built)


def test_discover_hits_are_normalized_and_sorted_in_ints():
    # A hit is placed, deduplicated and sorted on its entries' integers:
    # discover makes no Fraction hash and no Fraction order comparison.
    def counting(name):
        original = getattr(Fraction, name)
        return mock.patch.object(Fraction, name, autospec=True, side_effect=original)

    hits = 0
    with counting("__hash__") as fraction_hash, counting("__lt__") as fraction_lt:
        for seed, trials in ((3, 200), (1, 30000)):
            for t in (F(2), F(15, 16)):
                hits += len(discover(seed=seed, trials=trials, t=t))
    assert (fraction_hash.call_count, fraction_lt.call_count) == (0, 0)
    assert hits == 796


def test_discover_places_z_below_between_and_above_the_roots(monkeypatch):
    # Every A of this run is negative, so every hit flips A, and its hits put
    # z below x, between x and y, and above y (counted over the built draws).
    kwargs = dict(seed=4, trials=20000, t=F(15, 16), a_range=(-6, -2))
    built = []

    def recorded(*inputs):
        built.append(build_tuple(*inputs))
        return built[-1]

    monkeypatch.setattr("ramid.families.build_tuple", recorded)
    found = discover(**kwargs)
    places = Counter()
    for result in built:
        hi, lo = result.roots.rational
        places["below" if result.z < lo else "between" if result.z < hi else "above"] += 1
    assert places == {"below": 193, "between": 75, "above": 145}
    assert len(found) == 240 and all(hit.A > 0 for hit in found)
    assert found == discover_reference(**kwargs)


# sha256 over the "\n"-joined JSON lines (with class tags) of
# discover(seed, trials=2000, t), recorded before discover moved to the
# integer root test.  Pins the draw order, which draws are kept, the
# normalization and the sort.
@pytest.mark.parametrize(
    "seed, t, digest",
    [
        (9, F(2), "050effd4490ac3a02a5424c39027a7ae691fc0e029f3e7d4bbb866b637ed6273"),
        (9, F(15, 16), "e263222cb2193ef7f8add565015d1a98d2b3fd90bee04af7062aba292a02cf79"),
        (11, F(2), "4762f433ee8d93b993385a7fc3b90dc624f1f3af746f8f0f2bc30d863fa24955"),
        (11, F(15, 16), "7627c851c3d0582a3f911f8e1cf9b4a4a0c841c1e67f751180a47ffdb9ea8850"),
    ],
)
def test_discover_output_pinned(seed, t, digest):
    lines = [h.to_json(classify(h)) for h in discover(seed=seed, trials=2000, t=t)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


# Range sizes at and next to powers of two, where randint's rejection
# sampling redraws most often (size 2^j + 1) and least (size 2^j).
_SIZES = st.one_of(st.sampled_from([1, 2, 3, 4, 5, 8, 9, 16, 17, 32]), st.integers(1, 60))


def _ranges(bound: int):
    return st.tuples(st.integers(-bound, bound), _SIZES).map(
        lambda pair: (pair[0], pair[0] + pair[1] - 1)
    ).filter(lambda r: any(v not in (0, 1, -1) for v in range(r[0], r[1] + 1)))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64),
    t=st.builds(F, st.integers(-20, 20).filter(bool), st.integers(1, 9)),
    a_range=_ranges(8),
    z_range=_ranges(30),
    k_den_max=st.one_of(st.sampled_from([1, 2, 4, 8, 16]), st.integers(1, 20)),
)
@example(seed=1, t=F(2), a_range=(2, 6), z_range=(-50, 50), k_den_max=12)
@example(seed=5, t=F(-7, 3), a_range=(-6, 6), z_range=(-1, 20), k_den_max=5)
@example(seed=2, t=F(15, 16), a_range=(3, 3), z_range=(-8, 7), k_den_max=1)
@example(seed=4, t=F(3), a_range=(-4, 5), z_range=(-6, -6), k_den_max=7)
# Every A negative, so every hit flips A.
@example(seed=7, t=F(2), a_range=(-6, -2), z_range=(-50, 50), k_den_max=12)
@example(seed=8, t=F(15, 16), a_range=(-6, -2), z_range=(-50, 50), k_den_max=12)
# p ranges over 2^32 + 1 values, so getrandbits(33) returns more than one word.
@example(seed=3, t=F(2), a_range=(2, 6), z_range=(-50, 50), k_den_max=2**31)
# z ranges over 2^64 values, drawn with getrandbits(65).
@example(seed=6, t=F(2), a_range=(2, 6), z_range=(-(2**63), 2**63 - 1), k_den_max=12)
def test_discover_equals_the_randint_reference(seed, t, a_range, z_range, k_den_max):
    kwargs = dict(seed=seed, trials=300, t=t, a_range=a_range, z_range=z_range,
                  k_den_max=k_den_max)
    assert discover(**kwargs) == discover_reference(**kwargs)


def test_discover_rejects_bad_config():
    with pytest.raises(ConfigurationError):
        discover(seed=1, trials=0, t=F(2))
    with pytest.raises(ConfigurationError):
        discover(seed=1, trials=10, t=F(2), a_range=(5, 2))
    with pytest.raises(ConfigurationError):
        discover(seed=1, trials=10, t=F(2), z_range=(0, 1))
    with pytest.raises(ConfigurationError):
        discover(seed=1, trials=10, t=F(2), k_den_max=0)
    with pytest.raises(ConfigurationError, match="^t must be nonzero$"):
        discover(seed=1, trials=10, t=F(0))


def test_normalize_tuple():
    identity = IdentityTuple(F(2), F(-3), F(11), F(7), F(-19))
    assert normalize_tuple(identity) == IdentityTuple(
        F(2), F(3), F(-19), F(7), F(11)
    )


def test_tuple_families_are_curves_through_build_tuple():
    # Each tuple family is a curve (A, z, k) through the construction, at the
    # family's t: rebak (a, 6a+1, 1/(2a)), rebak-variant (a, 6a+5, 1/(2a+2))
    # and general-infinite (k, 7) at t = 2 and construction parameter -1/2.
    # build_tuple orders the roots, so x and y come back as a set.
    curves = (
        [(rebak_family(a), (a, 6 * a + 1, 1 / (2 * a))) for a in REBAK_GRID]
        + [(rebak_variant_family(a), (a, 6 * a + 5, 1 / (2 * a + 2))) for a in REBAK_VARIANT_GRID]
        + [(general_infinite_family(k), (k, 7, F(-1, 2))) for k in GENERAL_GRID]
    )
    swapped = 0
    for member, curve in curves:
        built = build_tuple(member.t, *curve).identity()
        assert (built.t, built.A, built.z) == (member.t, member.A, member.z), member
        assert {built.x, built.y} == {member.x, member.y}, member
        swapped += built.x != member.x
    assert (len(curves), swapped) == (160, 90)


def test_surd_families_are_curves_through_build_tuple():
    # Both surd families lie on t = a(a-2)/(a-1)^2, A = a, z = 2a+1 with
    # k = -(a-1)/(a^2 (a+1)) (high) or (a-1)/(a^2 (a+1)) (low): gamma is 2 or
    # -2 and beta 5-4a or 4a-7, and the roots are the member's entries up to
    # sign.  Each right-side entry is (|v|, sign v) for v in (z, x, y).
    curves = [(surd_family_high(a), a, -1, 2, 5 - 4 * a) for a in SURD_HIGH_GRID]
    curves += [(surd_family_low(a), a, 1, -2, 4 * a - 7) for a in SURD_LOW_GRID]
    for member, a, sign, gamma, beta in curves:
        z = 2 * a + 1
        result = build_tuple(a * (a - 2) / (a - 1) ** 2, a, z, sign * (a - 1) / (a * a * (a + 1)))
        assert (result.gamma, result.beta) == (gamma, beta), a
        x, y = result.roots.rational or map(lift, result.roots.surd)
        signed = [(v, 1) if v > 0 else (-v, -1) for v in (z, x, y)]
        assert Counter(member.rhs_entries) == Counter(signed), a
        radicand = [abs(a), abs(a - 1), *(v for v, _ in signed)]
        assert Counter(member.radicand_entries) == Counter(radicand), a
    assert len(curves) == 100


def _family_render_calls():
    """Seeded ``generate`` calls: every family, and for each of 3 to 13 digits
    an integral and a fractional parameter ``a`` of that size for both surd
    families (squarefree field radicands of 2 to 13 digits)."""
    rng = random.Random(20261018)
    calls = []
    for _ in range(6):
        for name in ("rebak", "rebak-variant"):
            a = rng.choice((1, -1)) * rng.randint(2, 10**6)
            calls.append((name, {"a": F(a, rng.randint(1, 5))}))
        calls.append(("general-infinite", {"k": rng.choice((1, -1)) * rng.randint(2, 10**4)}))
        b = rng.randint(2, 40)
        calls.append(("long-identity", {"b": b, "n": rng.randint(1, min(20, b * b - 3))}))
    for digits in range(3, 14):
        for a in (rng.randint(10 ** (digits - 1), 10**digits - 1),
                  F(rng.randint(10 ** (digits - 1), 10**digits - 1), rng.randint(2, 99))):
            calls.append(("surd-high", {"a": F(a)}))
            calls.append(("surd-low", {"a": -F(a)}))
    return calls


def test_family_render_output_pinned():
    # sha256 over the "\0"-joined to_json(), verify, render_latex and
    # render_text of each parsed family member, recorded when render_text
    # began to parenthesize fraction entries (28 of the 68 lines changed).
    parts = []
    for name, params in _family_render_calls():
        original = generate(name, params)
        text = original.to_json()
        parsed = type(original).from_json(text)
        assert parsed == original
        parts += [text, str(verify(parsed)),
                  render_latex(parsed, unchecked=True), render_text(parsed, unchecked=True)]
    digest = hashlib.sha256("\0".join(parts).encode()).hexdigest()
    assert digest == "93e984ed41e2c357abeb64e4d7bb9252eb02ebecb7100c2514730e0e0fc58d13"


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(["rebak", "rebak-variant", "surd-high", "surd-low"]),
    a=st.builds(F, st.integers(-200, 200), st.integers(2, 30)),
)
@example(name="rebak", a=F(5, 2))
@example(name="surd-high", a=F(7, 2))
@example(name="surd-low", a=F(-9, 4))
def test_render_text_of_fraction_members_evaluates_true(name, a):
    # The text line, read as written by the mpmath oracle, is a true equation.
    try:
        identity = generate(name, {"a": a})
    except FamilyDomainError:
        return
    if not verify(identity):  # a sign-degenerate window
        return
    lhs, rhs = mp_text_sides(render_text(identity))
    assert abs(lhs - rhs) <= mpmath.mpf(2) ** -100 * max(abs(rhs), 1)
