"""Verifier, classifier and the variation data model."""

import copy
import itertools
import json
import pickle
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brute import lift, tuple_sides, variation_sides
from conftest import (
    FIELDS,
    canonical_reference,
    family_tuples,
    family_variations,
    float_agrees,
    signed_tuples,
    tuples_with_ties,
    variations,
)
from ramid import (
    Classification,
    EnumerationReport,
    IdentityTuple,
    IncompatibleFieldError,
    PreconditionError,
    Surd,
    TrivialInputError,
    VariationIdentity,
    build_tuple,
    classify,
    is_prime,
    long_identity,
    rebak_family,
    rebak_variant_family,
    render_latex,
    render_text,
    squarefree_decompose,
    surd_family_high,
    surd_family_low,
    verify,
    verify_tuple,
    verify_variation,
)
from ramid import exact
from ramid import identity as identity_module

F = Fraction


def tup(*values) -> IdentityTuple:
    return IdentityTuple(*(F(v) for v in values))


def test_ramanujan_notebook_identity():
    assert verify_tuple(tup(2, 3, 7, 11, 19))


def test_int_entries_become_fractions():
    identity = IdentityTuple(2, 3, 7, 11, 19)
    assert all(type(v) is Fraction for v in (identity.t, identity.A, identity.x,
                                             identity.y, identity.z))
    assert identity == tup(2, 3, 7, 11, 19)
    assert verify_tuple(identity)


@pytest.mark.parametrize("field", ["t", "A", "x", "y", "z"])
def test_float_entry_rejected(field):
    values = {"t": F(2), "A": F(3), "x": F(7), "y": F(11), "z": F(19)}
    values[field] = float(values[field])
    with pytest.raises(PreconditionError, match=field):
        IdentityTuple(**values)


def test_first_appendix_identity():
    assert verify_tuple(tup(2, 6, 7, 9, 13))


def test_near_miss_fails():
    assert not verify_tuple(tup(2, 3, 7, 11, 20))


def test_squares_differ_case():
    identity = tup(1, 2, 2, 2, 2)
    r, s = tuple_sides(identity)
    assert r == F(81, 256)
    assert s == F(27, 8)
    assert not verify_tuple(identity)


def test_rational_identity_verifies():
    # the t = 15/16 search identity, with (1 - 1/3) encoded as z = -3
    assert verify_tuple(tup(F(15, 16), 2, 9, 17, -3))
    assert not verify_tuple(tup(F(15, 16), 2, 9, 17, 3))


@pytest.mark.parametrize("field", ["A", "x", "y", "z"])
@pytest.mark.parametrize("bad", [0, 1, -1])
def test_trivial_values_rejected(field, bad):
    values = {"t": F(2), "A": F(3), "x": F(7), "y": F(11), "z": F(19)}
    values[field] = F(bad)
    with pytest.raises(TrivialInputError, match=field):
        IdentityTuple(**values)


def test_zero_t_rejected():
    with pytest.raises(TrivialInputError):
        tup(0, 3, 7, 11, 19)


def test_verify_symmetric_in_xyz():
    base = (F(2), F(3), F(7), F(11), F(19))
    for perm in itertools.permutations(base[2:]):
        assert verify_tuple(IdentityTuple(base[0], base[1], *perm))
    broken = (F(2), F(3), F(7), F(11), F(20))
    for perm in itertools.permutations(broken[2:]):
        assert not verify_tuple(IdentityTuple(broken[0], broken[1], *perm))


def test_verify_depends_on_a_only_through_square():
    rng = random.Random(3)
    for _ in range(100):
        values = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(5)]
        try:
            identity = IdentityTuple(*values)
            flipped = IdentityTuple(values[0], -values[1], *values[2:])
        except TrivialInputError:
            continue
        assert verify_tuple(identity) == verify_tuple(flipped)


@settings(max_examples=500, deadline=None)
@given(signed_tuples())
def test_verify_tuple_matches_the_fraction_reference(identity):
    r, s = tuple_sides(identity)
    holds = r >= 0 and s >= 0 and r == s * s
    assert verify_tuple(identity) == holds
    if holds:
        assert float_agrees(identity)


def _classify_by_fraction_comparisons(identity: IdentityTuple) -> Classification:
    values = (identity.t, identity.A, identity.x, identity.y, identity.z)
    if not all(v.denominator == 1 for v in values):
        return Classification.NONTRIVIAL_RATIONAL
    if not all(v >= 2 for v in values):
        return Classification.GENERAL
    ordered = sorted((identity.x, identity.y, identity.z))
    chain = [identity.t, identity.A, *ordered]
    if not all(a < b for a, b in zip(chain, chain[1:])):
        return Classification.PERFECT
    if all(is_prime(int(v)) for v in (identity.A, *ordered)):
        return Classification.PRIME
    return Classification.SUPER_PERFECT


def test_classify_matches_the_fraction_comparisons(perfect_report):
    # Every perfect tuple and family member, with A of either sign and x, y, z
    # in every order: all five tags occur.
    tags = Counter()
    for i in list(perfect_report.identities) + family_tuples():
        for sign, xyz in itertools.product((1, -1), itertools.permutations((i.x, i.y, i.z))):
            identity = IdentityTuple(i.t, sign * i.A, *xyz)
            tag = classify(identity)
            assert tag is _classify_by_fraction_comparisons(identity), identity
            tags[tag] += 1
    assert set(tags) == set(Classification)


def test_classify_prime():
    assert classify(tup(2, 3, 7, 11, 19)) is Classification.PRIME


def test_classify_super_perfect():
    assert classify(tup(2, 3, 4, 61, 63)) is Classification.SUPER_PERFECT


def test_classify_general():
    assert classify(tup(2, 2, 5, -7, 7)) is Classification.GENERAL


def test_classify_perfect_unordered():
    # all entries >= 2 but A not strictly between t and x
    assert classify(tup(2, 6, 7, 9, 13)) is Classification.SUPER_PERFECT
    assert classify(tup(4, 28, 2, 8, 57)) is Classification.PERFECT


def test_classify_rational():
    assert classify(tup(F(15, 16), 2, 9, 17, -3)) is Classification.NONTRIVIAL_RATIONAL


@pytest.mark.parametrize(
    "values, tag",
    [
        # exactly one fractional entry, in each of the five places
        ((F(20, 3), 2, 3, 4, 5), Classification.NONTRIVIAL_RATIONAL),
        ((2, F(27, 2), 4, 19, 28), Classification.NONTRIVIAL_RATIONAL),
        ((1, 2, F(-13, 11), 2, 2), Classification.NONTRIVIAL_RATIONAL),
        ((1, 2, 2, F(-13, 11), 2), Classification.NONTRIVIAL_RATIONAL),
        ((1, 2, 2, 2, F(-13, 11)), Classification.NONTRIVIAL_RATIONAL),
        # all-integer tuples, one for each other tag
        ((2, 3, 5, -17, 7), Classification.GENERAL),
        ((2, 2, 6, 30, 869), Classification.PERFECT),
        ((2, 3, 4, 32, 991), Classification.SUPER_PERFECT),
        ((2, 3, 5, 13, 127), Classification.PRIME),
    ],
    ids=["t", "A", "x", "y", "z", "general", "perfect", "super-perfect", "prime"],
)
def test_verified_class_reads_every_denominator(values, tag):
    identity = tup(*values)
    assert verify_tuple(identity)
    assert identity_module._verified_class(identity) is tag
    assert classify(identity) is tag


def test_classify_sorts_xyz_before_ordering_check():
    assert classify(tup(2, 3, 11, 7, 19)) is Classification.PRIME


def test_classify_requires_verification():
    with pytest.raises(PreconditionError):
        classify(tup(2, 3, 7, 11, 20))


def test_tuple_json_round_trip():
    identity = tup(F(15, 16), 2, 9, 17, -3)
    again = IdentityTuple.from_json(identity.to_json())
    assert again == identity
    tagged = tup(2, 3, 7, 11, 19).to_json(Classification.PRIME)
    assert '"class": "prime"' in tagged


@settings(max_examples=300, deadline=None)
@given(signed_tuples(), st.sampled_from([None, *Classification]))
def test_tuple_to_json_is_json_dumps_of_its_dict(identity, classification):
    assert identity.to_json(classification) == json.dumps(
        identity.to_json_dict(classification)
    )


def _negated(v: Surd) -> Surd:
    return Surd(-v.p, -v.q, v.d)


def _signed(v, sign: int):
    # v * sign for an int, a Fraction or a Surd.
    if not isinstance(v, Surd):
        return v * sign
    return v if sign > 0 else _negated(v)


def variation(scale, radicand, rhs) -> VariationIdentity:
    return VariationIdentity(
        scale=F(scale),
        radicand_entries=tuple(v if isinstance(v, Surd) else Surd(F(v)) for v in radicand),
        rhs_entries=tuple(
            (v if isinstance(v, Surd) else Surd(F(v)), s) for v, s in rhs
        ),
    )


def test_variation_long_example():
    # the b = 5 instance of the long-identity construction
    v = variation(1, [9, 11, 23, 24, 45], [(9, 1), (11, -1), (45, -1)])
    assert verify_variation(v)


def test_variation_high_surd_instance_all_rational():
    v = variation(1, [5, 4, 11, 5, 3], [(11, 1), (5, 1), (3, -1)])
    assert verify_variation(v)
    r, s = variation_sides(v)
    assert s == Surd(F(48, 55))
    assert r == Surd(F(48, 55) * F(48, 55))


def test_variation_low_surd_instance_all_rational():
    v = variation(1, [-2, -3, -3, 5, 3], [(5, -1), (3, 1), (-3, 1)])
    assert verify_variation(v)
    assert variation_sides(v)[1] == Surd(F(32, 45))


def test_variation_rejects_unit_rhs_value():
    with pytest.raises(TrivialInputError):
        variation(1, [9, 11], [(1, 1)])
    with pytest.raises(TrivialInputError):
        variation(1, [9, 11], [(-1, 1)])


def test_variation_rejects_zero_radicand_entry():
    with pytest.raises(TrivialInputError):
        variation(1, [0, 11], [(9, 1)])


def test_variation_rejects_zero_scale():
    with pytest.raises(TrivialInputError, match="^scale must be nonzero$"):
        VariationIdentity(scale=0, radicand_entries=(9, 11), rhs_entries=((9, 1),))


def test_variation_rejects_mixed_fields():
    r2, r3 = Surd(0, 1, 2), Surd(0, 1, 3)
    for radicand, rhs in [
        ([r2, r3], [(9, 1)]),
        ([9], [(r2, 1), (r3, -1)]),  # within the right side only
        ([Surd(1, 1, 2)], [(Surd(1, 1, 3), 1)]),  # radicand in sqrt(2), right side in sqrt(3)
        ([r2, F(3, 2), r3], [(9, 1)]),  # a rational between the two fields
    ]:
        with pytest.raises(IncompatibleFieldError):
            variation(1, radicand, rhs)


def test_variation_orders_near_ties_exactly():
    # 12071/5000 < 1 + sqrt(2) < 120711/50000, apart by less than 1e-5
    lo, mid, hi = Surd(F(12071, 5000)), Surd(1, 1, 2), Surd(F(120711, 50000))
    v = variation(1, [hi, _negated(mid), lo],
                  [(hi, -1), (_negated(mid), 1), (mid, 1), (_negated(lo), -1)])
    assert v.radicand_entries == (lo, mid, hi) == tuple(sorted(map(lift, [hi, mid, lo])))
    pairs = [(hi, -1), (mid, -1), (mid, 1), (lo, 1)]
    assert v.rhs_entries == ((lo, 1), (mid, 1), (mid, -1), (hi, -1))
    assert v.rhs_entries == tuple(sorted(pairs, key=lambda e: (lift(e[0]), -e[1])))


def test_variation_canonicalizes_signs_and_order():
    v = variation(1, [11, 9, -45, -24, -23], [(11, -1), (9, 1), (-45, 1)])
    assert [lift(e).as_rational() for e in v.radicand_entries] == [9, 11, 23, 24, 45]
    assert [(lift(e).as_rational(), s) for e, s in v.rhs_entries] == [
        (9, 1), (11, -1), (45, -1),
    ]


def test_variation_genuine_surd_field():
    one_plus, minus_one = Surd(1, 2, 2), Surd(-1, 2, 2)  # 2*sqrt(2) +- 1
    v = variation(
        1,
        [3, 2, 7, one_plus, minus_one],
        [(7, 1), (one_plus, 1), (minus_one, -1)],
    )
    assert v.field_radicand() == 2
    assert verify_variation(v)
    assert variation_sides(v)[1] == Surd(F(32, 49))


def test_variation_json_round_trip():
    v = variation(
        F(3, 2),
        [3, Surd(1, 2, 2)],
        [(7, 1), (Surd(-1, 2, 2), -1)],
    )
    again = VariationIdentity.from_json(v.to_json())
    assert again == v


def test_variation_coerces_ints():
    v = VariationIdentity(
        scale=2, radicand_entries=(3, 7, 11, 19), rhs_entries=((7, 1), (11, 1), (19, 1))
    )
    assert type(v.scale) is Fraction
    assert v == variation(2, [3, 7, 11, 19], [(7, 1), (11, 1), (19, 1)])
    assert verify_variation(v)
    VariationIdentity(
        scale=1, radicand_entries=(3, 7, 11, 19), rhs_entries=((7, 1), (11, 1), (19, 1))
    )


@pytest.mark.parametrize(
    "scale, radicand, rhs",
    [
        (2.0, (3, 7), ((7, 1),)),
        (2, (3.0, 7), ((7, 1),)),
        (2, (3, 7), ((7.0, 1),)),
        (2, (3, 7), ((7, 1.0),)),
        (2, (3, 7), ((7, True),)),
    ],
)
def test_variation_rejects_floats(scale, radicand, rhs):
    with pytest.raises(PreconditionError):
        VariationIdentity(scale=scale, radicand_entries=radicand, rhs_entries=rhs)


def test_variation_rejects_an_int_sign_other_than_one():
    with pytest.raises(ValueError):
        VariationIdentity(scale=2, radicand_entries=(3, 7), rhs_entries=((7, 2),))


def test_make_checks_its_entries():
    with pytest.raises(TrivialInputError):
        IdentityTuple._make([2, 1, 7, 11, 19])
    with pytest.raises(PreconditionError, match="z"):
        IdentityTuple._make([2, 3, 7, 11, 19.0])
    made = IdentityTuple._make([2, 3, 7, 11, 19])
    assert made == tup(2, 3, 7, 11, 19) and all(type(v) is Fraction for v in made)


@pytest.mark.parametrize(
    "copy_of",
    [lambda record: pickle.loads(pickle.dumps(record)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
@pytest.mark.parametrize(
    "record", [tup(2, 3, 7, 11, 19), surd_family_high(10**12 + 39)], ids=["tuple", "surd-high"]
)
def test_pickle_and_copy_rebuild_equal_canonical_records(record, copy_of, monkeypatch):
    checks = []
    for name in ("_check_nontrivial", "_canonical"):
        check = getattr(identity_module, name)
        monkeypatch.setattr(
            identity_module, name, lambda *args, check=check: checks.append(args) or check(*args)
        )
    clone = copy_of(record)
    assert checks  # rebuilt through __new__, not field by field
    assert type(clone) is type(record) and clone == record and hash(clone) == hash(record)
    assert clone.to_json() == record.to_json()


@pytest.mark.parametrize("protocol", range(6))
def test_every_pickle_protocol_rebuilds_through_the_checks(protocol):
    for unchecked in (
        tuple.__new__(IdentityTuple, map(F, (2, 3, 7, 11, 1))),  # z = 1
        tuple.__new__(VariationIdentity, (F(0), (), ())),  # scale 0
    ):
        with pytest.raises(TrivialInputError):
            pickle.loads(pickle.dumps(unchecked, protocol=protocol))
    record = surd_family_high(10**12 + 39)
    clone = pickle.loads(pickle.dumps(record, protocol=protocol))
    assert type(clone) is VariationIdentity and clone == record
    assert clone.to_json() == record.to_json()


def test_replace_recomputes_the_canonical_form():
    v = variation(2, [3, 7, 11, 19], [(7, 1), (11, 1), (19, 1)])
    w = v._replace(rhs_entries=((19, 1), (-7, -1), (11, 1)))  # 1 - 1/(-7) = 1 + 1/7
    assert w == v and w.to_json() == v.to_json()
    assert all(type(value) is Surd for value, _ in w.rhs_entries)
    with pytest.raises(TrivialInputError):
        v._replace(radicand_entries=(3, 7, 11, -1))
    with pytest.raises(IncompatibleFieldError):
        v._replace(rhs_entries=((7, 1), (Surd(0, 1, 2), 1), (Surd(0, 1, 3), 1)))


@pytest.mark.parametrize(
    "record",
    [
        tup(2, 3, 7, 11, 19),
        surd_family_high(10**12 + 39),
        build_tuple(2, 3, 19, F(1, 6)),
        build_tuple(2, 3, 19, F(1, 6)).roots,
        build_tuple(2, 3, 19, F(1, 6)).conditions,
        EnumerationReport((), 0, 0.0),
    ],
    ids=lambda record: type(record).__name__,
)
def test_records_are_immutable(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.note = "no room"  # __slots__ = (): no instance dict


def test_verify_dispatches_by_type():
    identity = tup(2, 3, 7, 11, 19)
    assert verify(identity) and verify(VariationIdentity.from_tuple(identity))
    assert not verify(tup(2, 3, 7, 11, 20))
    assert not verify(variation(1, [3, 7, 11, 19], [(7, 1), (11, 1), (19, 1)]))


@pytest.mark.parametrize(
    "function",
    [verify, render_latex, render_text,
     lambda value: render_latex(value, unchecked=True),
     lambda value: render_text(value, unchecked=True)],
    ids=["verify", "latex", "text", "latex-unchecked", "text-unchecked"],
)
@pytest.mark.parametrize("value", [5, None, "2 3 7 11 19", (2, 3, 7, 11, 19)])
def test_non_identities_are_rejected(function, value):
    # 5 once reached field_radicand and raised AttributeError.
    with pytest.raises(PreconditionError, match="^not an identity"):
        function(value)


def test_variation_from_tuple_matches_verifier():
    identity = tup(2, 3, 7, 11, 19)
    v = VariationIdentity.from_tuple(identity)
    assert verify_variation(v)
    assert variation_sides(v)[1] == Surd(tuple_sides(identity)[1])


def _holds_by_surd_arithmetic(identity: VariationIdentity) -> bool:
    r, s = variation_sides(identity)
    return r.sign() >= 0 and s.sign() >= 0 and r == s * s


def _verify_variation_matches_the_surd_reference(identity: VariationIdentity) -> None:
    holds = _holds_by_surd_arithmetic(identity)
    assert verify_variation(identity) == holds
    if holds:
        assert float_agrees(identity)


@settings(max_examples=500, deadline=None)
@given(variations())
def test_verify_variation_matches_the_surd_reference(identity):
    _verify_variation_matches_the_surd_reference(identity)


@settings(max_examples=300, deadline=None)
@given(variations(fields=(0,)))
def test_verify_variation_matches_the_surd_reference_over_q(identity):
    # Over Q every entry takes verify_variation's rational branch.
    _verify_variation_matches_the_surd_reference(identity)


def test_verify_variation_matches_the_surd_reference_on_families():
    # Random draws seldom verify over a genuine field: every family member
    # does, and the pinned sign-degenerate windows square equal but fail.
    members = family_variations() + [VariationIdentity.from_tuple(i) for i in family_tuples()]
    windows = [surd_family_low(F(-3, 4))] + [
        VariationIdentity.from_tuple(family(a))
        for family, a in ((rebak_family, F(-3, 5)), (rebak_family, F(-1, 4)),
                          (rebak_variant_family, F(-3, 4)), (rebak_variant_family, F(-2, 5)))
    ]
    for identity in members + windows:
        assert verify_variation(identity) == _holds_by_surd_arithmetic(identity)
    assert all(verify_variation(v) for v in members)
    assert not any(verify_variation(v) for v in windows)
    assert all(r == s * s for r, s in map(variation_sides, windows))


@settings(max_examples=200, deadline=None)
@given(variations())
def test_variation_json_round_trip_property(identity):
    assert VariationIdentity.from_json(identity.to_json()) == identity


@settings(max_examples=200, deadline=None)
@given(variations(), st.randoms(use_true_random=False))
def test_canonical_form_ignores_entry_order_and_signs(identity, rng):
    radicand = [_negated(v) for v in identity.radicand_entries]
    rhs = [(_negated(v), -s) for v, s in identity.rhs_entries]
    rng.shuffle(radicand)
    rng.shuffle(rhs)
    rebuilt = VariationIdentity(identity.scale, tuple(radicand), tuple(rhs))
    assert rebuilt == identity and rebuilt.to_json() == identity.to_json()
    values = [lift(v) for v in rebuilt.radicand_entries]
    assert all(v.sign() > 0 for v in values)
    assert all(a <= b for a, b in zip(values, values[1:]))
    pairs = [(lift(v), s) for v, s in rebuilt.rhs_entries]
    assert all(v.sign() > 0 for v, _ in pairs)
    assert all(a < b or (a == b and s >= t) for (a, s), (b, t) in zip(pairs, pairs[1:]))


@st.composite
def _entries_of_one_field(draw, fields=(0,) + FIELDS):
    """Radicand values and right-side pairs over Q or one field of ``fields``
    (0 for Q), each value with a random sign, in a random order.  Rationals
    come as ints, ``Fraction``s and ``Surd``s."""
    d = draw(st.sampled_from(fields))
    rational = st.builds(F, st.integers(-60, 60), st.integers(1, 15))
    if d:
        values = st.builds(Surd, rational, rational, st.just(d))
    else:
        values = st.one_of(rational, rational.map(Surd), st.integers(-60, 60))
    values = st.tuples(values, st.sampled_from((1, -1))).map(lambda vs: _signed(*vs))
    values = values.filter(lambda v: v not in (0, 1, -1))
    radicand = draw(st.lists(values, max_size=6))
    rhs = draw(st.lists(st.tuples(values, st.sampled_from((1, -1))), max_size=6))
    return draw(st.permutations(radicand)), draw(st.permutations(rhs))


def _canonical_form_matches_the_surd_reference(radicand: list, rhs: list) -> None:
    identity = VariationIdentity(F(2), tuple(radicand), tuple(rhs))
    expected = [v for v, _ in canonical_reference((v, 1) for v in radicand)]
    assert list(identity.radicand_entries) == expected
    assert list(identity.rhs_entries) == canonical_reference(rhs)
    assert all(type(v) is Surd for v in identity.radicand_entries)


@settings(max_examples=200, deadline=None)
@given(_entries_of_one_field())
def test_canonical_form_matches_the_surd_reference(entries):
    _canonical_form_matches_the_surd_reference(*entries)


@settings(max_examples=200, deadline=None)
@given(_entries_of_one_field(fields=(0,)))
def test_canonical_form_matches_the_surd_reference_over_q(entries):
    # Over Q the lists are sorted on the integer key, not the comparator.
    _canonical_form_matches_the_surd_reference(*entries)


def test_only_irrational_entries_are_cleared_as_pairs():
    # A rational entry is read from as_integer_ratio(): a long identity is
    # built, parsed and rendered without _clear_pair, and a surd-high member
    # over sqrt(10^12 + 38) clears only its four irrational entries, the
    # roots x and y on each side.
    member = surd_family_high(10**12 + 39)
    with mock.patch("ramid.identity._clear_pair", side_effect=exact._clear_pair) as cleared:
        long = long_identity(40, 20)
        parsed = VariationIdentity.from_json(long.to_json())
        render_latex(parsed)
        render_text(parsed)
        assert parsed == long and cleared.call_count == 0
        assert verify_variation(member)
    assert cleared.call_count == 4


def test_canonical_form_flips_a_negative_entry_without_surd_negation():
    # rebak at a = -7 has negative entries; each is flipped on its cleared
    # integers, and no Surd is negated on the way.  Surd has no negation: the
    # one patched in counts any that the canonical form would make.
    negated = []
    counted = lambda v: negated.append(v) or _negated(v)  # noqa: E731
    with mock.patch.object(Surd, "__neg__", counted, create=True):
        identity = VariationIdentity.from_tuple(rebak_family(F(-7)))
    assert len(negated) == 0
    assert identity.to_json() == (
        '{"scale": "3/4", "radicand": ["7", "13", "19", "41"], '
        '"rhs": [["13", "-"], ["19", "-"], ["41", "-"]]}'
    )


def test_variation_parse_decomposes_each_literal_once(monkeypatch):
    # The record holds each of its two surd literals twice.
    text = surd_family_high(10**12 + 39).to_json()
    calls = []

    def counted(n):
        calls.append(n)
        return squarefree_decompose(n)

    monkeypatch.setattr("ramid.exact.squarefree_decompose", counted)
    assert VariationIdentity.from_json(text).to_json() == text
    assert len(calls) == 2


def test_records_over_one_field_factor_its_radicand_once(monkeypatch):
    # Four surd literals over sqrt(10^12 + 38) in two records: the first
    # decomposition factors the cofactor 26005097, the rest are cached.
    text = surd_family_high(10**12 + 39).to_json()
    exact._squarefree.cache_clear()
    calls = []
    factor = exact._factor
    monkeypatch.setattr("ramid.exact._factor", lambda n, out: calls.append(n) or factor(n, out))
    for _ in range(2):
        assert VariationIdentity.from_json(text).to_json() == text
    assert calls == [26005097]


def test_a_member_over_a_square_multiple_of_its_field_is_factored_once(monkeypatch):
    # a - 1 = 66765422241 = 3^2 * 7418380249: generating decomposes the
    # construction's N = 16 (a - 1) = 12^2 * 7418380249, the literals of its
    # record carry 7418380249, and that result is cached too.
    exact._squarefree.cache_clear()
    calls = []
    decompose = exact._decompose
    monkeypatch.setattr("ramid.exact._decompose", lambda n: calls.append(n) or decompose(n))
    member = surd_family_high(66765422242)
    assert member.field_radicand() == 7418380249 and calls == [1068246755856]
    parsed = VariationIdentity.from_json(member.to_json())
    render_latex(parsed)
    render_text(parsed)
    assert parsed == member and calls == [1068246755856]


@settings(max_examples=300, deadline=None)
@given(signed_tuples())
def test_tuple_json_round_trip_property(identity):
    assert IdentityTuple.from_json(identity.to_json()) == identity
    assert IdentityTuple.from_json(identity.to_json(Classification.GENERAL)) == identity


@settings(max_examples=500, deadline=None)
@given(st.one_of(signed_tuples(), tuples_with_ties()))
@example(tup(2, 3, 7, -7, 19))  # x = -y: "+" comes first
@example(tup(2, -19, 7, 7, 19))  # x = y and A = -z
@example(tup(F(-3, 4), F(5, 2), F(-10, 4), F(5, 3), F(5, 2)))
def test_a_tuple_renders_in_the_general_canonical_order(identity):
    x, y, z = identity.x, identity.y, identity.z
    general = VariationIdentity(identity.t, (identity.A, x, y, z), ((x, 1), (y, 1), (z, 1)))
    # A tuple renders in its own int order, without building the variation.
    assert render_latex(identity, unchecked=True) == render_latex(general, unchecked=True)
    assert render_text(identity, unchecked=True) == render_text(general, unchecked=True)


def test_renders_of_a_tuple_skip_the_general_canonicalizer(monkeypatch):
    calls = []
    canonical = identity_module._canonical
    monkeypatch.setattr(
        identity_module, "_canonical", lambda *args: calls.append(args) or canonical(*args)
    )
    identity = tup(2, 3, 7, 11, 19)
    render_latex(identity)
    render_text(identity)
    assert calls == []
    VariationIdentity(2, (3, 7, 11, 19), ((7, 1), (11, 1), (19, 1)))
    assert len(calls) == 2  # the counter sees the general constructor


def test_renders_of_entries_with_no_rational_part():
    # sqrt(17/18 (1 - 1/18)) = (1 + 1/(3 sqrt 2))(1 - 1/(3 sqrt 2)), with
    # v = 0 + 3*sqrt(2) parsed, so that v has p = 0.
    v = "0 + 3*sqrt(2)"
    record = {"scale": "17/18", "radicand": [v], "rhs": [[v, "+"], [v, "-"]]}
    identity = VariationIdentity.from_json(json.dumps(record))
    assert identity.radicand_entries[0].p == 0 and verify_variation(identity)
    latex = r"3\sqrt{2}"
    assert render_latex(identity) == (
        rf"\sqrt{{\frac{{17}}{{18}}\left(1-\frac{{1}}{{\left({latex}\right)^2}}\right)}} = "
        rf"\left(1+\frac{{1}}{{{latex}}}\right)\left(1-\frac{{1}}{{{latex}}}\right)"
    )
    assert render_text(identity) == (
        f"sqrt(17/18 * (1 - 1/({v})^2)) = (1 + 1/({v})) * (1 - 1/({v}))"
    )


def test_renders_of_rational_variation_entries_pinned():
    # Recorded before rational entries were formatted from their ints: a
    # negative fractional scale with fractional entries (false, so unchecked),
    # and long_identity(3, 2) with integer entries and a repeated 7.  Then,
    # recorded before surd values were formatted from their ints, a false
    # record over sqrt(2) with p = 0, a negative p, a fractional q, and p > 0
    # with q < 0.
    record = {"scale": "-17/18", "radicand": ["5/2", "3"], "rhs": [["5/2", "+"], ["7/3", "-"]]}
    identity = VariationIdentity.from_json(json.dumps(record))
    assert render_latex(identity, unchecked=True) == (
        r"\sqrt{-\frac{17}{18}\left(1-\frac{1}{\left(\frac{5}{2}\right)^2}\right)"
        r"\left(1-\frac{1}{3^2}\right)} = "
        r"\left(1-\frac{1}{\frac{7}{3}}\right)\left(1+\frac{1}{\frac{5}{2}}\right)"
    )
    assert render_text(identity, unchecked=True) == (
        "sqrt(-17/18 * (1 - 1/(5/2)^2) * (1 - 1/3^2)) = (1 - 1/(7/3)) * (1 + 1/(5/2))"
    )
    identity = long_identity(3, 2)
    squares = "".join(rf"\left(1-\frac{{1}}{{{v}^2}}\right)" for v in (5, 6, 7, 7, 8, 11))
    assert render_latex(identity) == (
        rf"\sqrt{{{squares}}} = "
        r"\left(1+\frac{1}{5}\right)\left(1-\frac{1}{7}\right)\left(1-\frac{1}{11}\right)"
    )
    assert render_text(identity) == (
        "sqrt((1 - 1/5^2) * (1 - 1/6^2) * (1 - 1/7^2) * (1 - 1/7^2) * (1 - 1/8^2) * (1 - 1/11^2))"
        " = (1 + 1/5) * (1 - 1/7) * (1 - 1/11)"
    )
    record = {
        "scale": "1",
        "radicand": ["0 + 1*sqrt(2)", "3 - 1*sqrt(2)", "1/2 + 3/4*sqrt(2)", "-7/3 + 5/2*sqrt(2)"],
        "rhs": [["3 - 1*sqrt(2)", "-"], ["0 + 2/3*sqrt(2)", "+"]],
    }
    identity = VariationIdentity.from_json(json.dumps(record))
    assert render_latex(identity, unchecked=True) == (
        r"\sqrt{\left(1-\frac{1}{\left(-\frac{7}{3}+\frac{5}{2}\sqrt{2}\right)^2}\right)"
        r"\left(1-\frac{1}{\left(\sqrt{2}\right)^2}\right)"
        r"\left(1-\frac{1}{\left(\frac{1}{2}+\frac{3}{4}\sqrt{2}\right)^2}\right)"
        r"\left(1-\frac{1}{\left(3-\sqrt{2}\right)^2}\right)} = "
        r"\left(1+\frac{1}{\frac{2}{3}\sqrt{2}}\right)\left(1-\frac{1}{3-\sqrt{2}}\right)"
    )
