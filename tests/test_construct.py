"""Quadratic construction, condition flags and k recovery."""

import hashlib
import random
from fractions import Fraction
from itertools import permutations
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from brute import lift, tuple_sides
from conftest import float_agrees
from ramid import (
    ConstructionResult,
    IdentityTuple,
    PreconditionError,
    Surd,
    TrivialInputError,
    build_tuple,
    recover_k,
    solve_roots,
    squarefree_decompose,
    verify_tuple,
)
from ramid.construct import _cleared

F = Fraction


def _gamma_beta(*inputs):
    result = build_tuple(*inputs)
    return result.gamma, result.beta


def test_gamma_beta_notebook_instance():
    assert _gamma_beta(F(2), F(3), F(19), F(1, 6)) == (18, 77)


def test_gamma_beta_family_instance_a2():
    # direct substitution gives gamma = 13 (= 5a + 3 at a = 2), beta = 40
    assert _gamma_beta(F(3), F(2), F(13), F(1, 4)) == (13, 40)


def test_gamma_beta_long_variation_instance():
    t = 1 - F(1, 23**2)
    assert _gamma_beta(t, F(-24), F(-45), F(1, 528)) == (-2, -99)


@pytest.mark.parametrize(
    "t, A, z, k",
    [(0, 3, 19, 1), (2, 1, 19, 1), (2, 3, -1, 1), (2, 3, 19, 0), (2, 0, 5, 1)],
)
def test_gamma_beta_rejects_trivial_inputs(t, A, z, k):
    with pytest.raises(TrivialInputError):
        build_tuple(F(t), F(A), F(z), F(k))


def test_construction_entry_points_coerce_ints():
    result = build_tuple(2, 3, 19, F(1, 6))
    assert (result.gamma, result.beta) == (18, 77)
    assert type(result.gamma) is type(result.beta) is Fraction
    assert all(type(v) is Fraction for v in (result.t, result.A, result.z, result.k))
    assert result.identity() == IdentityTuple(F(2), F(3), F(7), F(11), F(19))


@pytest.mark.parametrize("entry", [build_tuple])
@pytest.mark.parametrize("slot", range(4))
def test_construction_entry_points_reject_floats(entry, slot):
    args = [F(2), F(3), F(19), F(1, 6)]
    args[slot] = float(args[slot])
    with pytest.raises(PreconditionError):
        entry(*args)


def _square_n(*inputs):
    # The integer test discover applies before building: N >= 0 is a square.
    n = _cleared(*inputs)[3]
    return n >= 0 and isqrt(n) ** 2 == n


def test_n_test_rejects_irrational_and_negative_discriminants():
    assert build_tuple(F(2), F(3), F(19), F(1, 5)).roots.kind == "surd"
    assert _cleared(F(2), F(3), F(19), F(1, 5))[3] > 0
    assert not _square_n(F(2), F(3), F(19), F(1, 5))
    assert build_tuple(F(2), F(3), F(2), F(1, 2)).roots.kind == "none"
    assert _cleared(F(2), F(3), F(2), F(1, 2))[3] < 0
    assert _square_n(F(2), F(3), 19, F(1, 6))  # ints are read as they are


def test_build_tuple_keeps_a_double_root():
    # N = 0: x = y = 5
    assert _cleared(F(2), F(2), F(-5), F(-1, 2))[3] == 0
    assert build_tuple(F(2), F(2), F(-5), F(-1, 2)).discriminant == 0
    identity = build_tuple(F(2), F(2), F(-5), F(-1, 2)).identity()
    assert identity == IdentityTuple(F(2), F(2), F(5), F(5), F(-5))
    assert verify_tuple(identity)


def test_solve_roots_rational_pair_larger_first():
    roots = solve_roots(F(18), F(77))
    assert roots.kind == "rational"
    assert roots.rational == (11, 7)


def test_solve_roots_negative_rational_pair():
    roots = solve_roots(F(-2), F(-99))
    assert roots.rational == (9, -11)


def test_solve_roots_negative_discriminant():
    assert solve_roots(F(0), F(1)).kind == "none"


def test_solve_roots_surd_pair():
    roots = solve_roots(F(2), F(-1))  # X^2 - 2X - 1: roots 1 +- sqrt2
    assert roots.kind == "surd"
    assert roots.surd == (Surd(1, 1, 2), Surd(1, -1, 2))


def test_solve_roots_double_root():
    roots = solve_roots(F(6), F(9))
    assert roots.rational == (3, 3)


def test_discriminant_closed_form_randomized():
    # gamma^2 - 4 beta == ((z-1)(A^2-1)kt - A^2 k (1+z) - 2)^2 - 8 A^2 k (1+z)
    rng = random.Random(42)
    checked = 0
    while checked < 300:
        t = F(rng.randint(-20, 20), rng.randint(1, 9))
        A = F(rng.randint(-12, 12), rng.randint(1, 4))
        z = F(rng.randint(-20, 20), rng.randint(1, 4))
        k = F(rng.randint(-20, 20), rng.randint(1, 9))
        if t == 0 or k == 0 or A in (0, 1, -1) or z in (0, 1, -1):
            continue
        gamma, beta = _gamma_beta(t, A, z, k)
        expected = ((z - 1) * (A * A - 1) * k * t - A * A * k * (1 + z) - 2) ** 2
        expected -= 8 * A * A * k * (1 + z)
        assert gamma * gamma - 4 * beta == expected
        checked += 1


def test_build_tuple_notebook():
    result = build_tuple(F(2), F(3), F(19), F(1, 6))
    assert result.conditions.all_satisfied()
    assert result.identity() == IdentityTuple(F(2), F(3), F(7), F(11), F(19))


def test_build_tuple_search_identity():
    result = build_tuple(F(15, 16), F(2), F(-3), F(-8))
    assert result.conditions.all_satisfied()
    identity = result.identity()
    assert identity == IdentityTuple(F(15, 16), F(2), F(9), F(17), F(-3))
    assert verify_tuple(identity)


def test_build_tuple_surd_roots_have_no_identity():
    result = build_tuple(F(2), F(3), F(19), F(1, 5))
    assert result.roots.kind == "surd"
    assert result.identity() is None


def test_surd_roots_decompose_the_discriminant_once(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return squarefree_decompose(n)

    # Surd(...) looks the function up in ramid.exact, solve_roots in ramid.construct.
    monkeypatch.setattr("ramid.exact.squarefree_decompose", counted)
    monkeypatch.setattr("ramid.construct.squarefree_decompose", counted)
    result = build_tuple(2, 3, 19, F(1, 5))
    assert result.roots.kind == "surd"
    assert len(calls) == 1


def test_build_tuple_decomposes_the_n_of_solve_roots(monkeypatch):
    # G, B and M share the factor 3 here; solve_roots clears gamma and beta
    # to the reduced integers, so both calls factor the same N.
    seen = []

    def recorded(n):
        seen.append(n)
        return squarefree_decompose(n)

    monkeypatch.setattr("ramid.construct.squarefree_decompose", recorded)
    result = build_tuple(F(2), F(4), F(11), F(1, 3))
    solve_roots(result.gamma, result.beta)
    assert result.roots.kind == "surd"
    assert len(seen) == 2 and seen[0] == seen[1]


def test_negative_discriminant_reported_not_raised():
    result = build_tuple(F(2), F(3), F(2), F(1, 2))
    assert result.discriminant < 0
    assert not result.conditions.discriminant_nonnegative
    assert result.roots.kind == "none"
    assert result.identity() is None


def test_right_side_sign_corner_is_not_an_identity():
    # All five flags hold and the roots are rational, yet the assembled
    # tuple has a negative right side: the squared relation holds, the
    # unsquared equation does not.
    result = build_tuple(F(8, 3), F(2), F(3), F(3, 128))
    assert result.conditions.all_satisfied()
    assert result.roots.rational == (F(1, 2), F(-1, 2))
    identity = result.identity()
    r, s = tuple_sides(identity)
    assert r == s ** 2
    assert s == -4
    assert not verify_tuple(identity)


def test_recover_k_notebook():
    assert recover_k(IdentityTuple(F(2), F(3), F(7), F(11), F(19))) == F(1, 6)


def test_recover_k_rejects_non_identity():
    assert recover_k(IdentityTuple(F(2), F(3), F(7), F(11), F(20))) is None


def test_recover_k_search_identity():
    assert recover_k(IdentityTuple(F(15, 16), F(2), F(9), F(17), F(-3))) == -8


def test_construction_loses_no_perfect_identity(perfect_report):
    # Whichever entry of a perfect tuple is taken for z, recover_k finds a k
    # whose construction from (t, A, z) gives back the other two entries.
    cases = 0
    for identity in perfect_report.identities:
        t, A = identity.t, identity.A
        for x, y, z in permutations((identity.x, identity.y, identity.z)):
            k = recover_k(IdentityTuple(t, A, x, y, z))
            assert k is not None, (identity, z)
            rebuilt = build_tuple(t, A, z, k).identity()
            assert rebuilt == IdentityTuple(t, A, min(x, y), max(x, y), z), (identity, z)
            cases += 1
    assert cases == 6 * 309


def test_z_minus_one_unrepresentable():
    with pytest.raises(TrivialInputError):
        IdentityTuple(F(2), F(3), F(7), F(11), F(-1))


def _k_for_root(t, A, z, x):
    """The k whose construction from (t, A, z) has the root x, or None."""
    u = (A * A - 1) * t
    g = (u - A * A) * z - (u + A * A)  # gamma / k
    h = (u + A * A) * z - (u - A * A)  # (beta + 1) / k
    return None if h == g * x else (1 - x * x) / (h - g * x)


def _sample_construction(rng) -> ConstructionResult | None:
    """Positive t, integral A, z and target root x; k solved so the roots
    are rational by construction."""
    t = F(rng.randint(1, 40), rng.randint(1, 16))
    A = rng.choice([a for a in range(-9, 10) if abs(a) >= 2])
    z = rng.choice([v for v in range(-25, 26) if abs(v) >= 2])
    x = rng.choice([v for v in range(-25, 26) if abs(v) >= 2])
    k = _k_for_root(t, A, z, x)
    if not k:
        return None
    result = build_tuple(t, F(A), F(z), k)
    if result.roots.kind != "rational" or not result.conditions.all_satisfied():
        return None
    return result


def test_backward_soundness_on_positive_integral_seeds():
    rng = random.Random(20240817)
    accepted = 0
    while accepted < 1000:
        result = _sample_construction(rng)
        if result is None:
            continue
        identity = result.identity()
        assert verify_tuple(identity), (result.t, result.A, result.z, result.k)
        accepted += 1


def test_recover_round_trip_randomized():
    rng = random.Random(7)
    accepted = 0
    while accepted < 400:
        result = _sample_construction(rng)
        if result is None:
            continue
        identity = result.identity()
        assert recover_k(identity) == result.k
        accepted += 1


def test_construction_result_json_shape():
    result = build_tuple(F(2), F(3), F(19), F(1, 6))
    data = result.to_json_dict()
    assert data["gamma"] == "18"
    assert data["beta"] == "77"
    assert data["discriminant"] == "16"
    assert data["roots"] == {"kind": "rational", "values": ["11", "7"]}
    assert set(data["conditions"]) == {
        "discriminant_nonnegative",
        "beta_nonzero",
        "one_minus_gamma_plus_beta_nonzero",
        "minus_one_not_root",
    }


_RATIONALS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
_NONZERO = _RATIONALS.filter(lambda v: v != 0)
_NONTRIVIAL = _RATIONALS.filter(lambda v: v not in (0, 1, -1))


@st.composite
def _construction_inputs(draw):
    """(t, A, z, k): k is either drawn freely (roots mostly irrational) or
    solved from a drawn rational root x, so that both outcomes are covered."""
    t, A, z = draw(_NONZERO), draw(_NONTRIVIAL), draw(_NONTRIVIAL)
    if draw(st.booleans()):
        return t, A, z, draw(_NONZERO)
    k = _k_for_root(t, A, z, draw(_NONTRIVIAL))
    assume(k is not None)
    return t, A, z, k


@settings(max_examples=300, deadline=None)
@given(_construction_inputs())
def test_gamma_beta_matches_the_fraction_formula(inputs):
    t, A, z, k = inputs
    u = (A * A - 1) * t
    gamma = (u - A * A) * k * z - (u + A * A) * k
    beta = (u + A * A) * k * z - (u - A * A) * k - 1
    assert _gamma_beta(t, A, z, k) == (gamma, beta)


@settings(max_examples=300, deadline=None)
@given(_construction_inputs())
def test_n_is_a_square_exactly_when_the_roots_are_rational(inputs):
    result = build_tuple(*inputs)
    assert _square_n(*inputs) == (result.roots.kind == "rational")
    identity = result.identity()
    if identity is not None:
        r, s = tuple_sides(identity)
        assert r == s ** 2
        if verify_tuple(identity):
            assert float_agrees(identity)


@pytest.mark.parametrize(
    "inputs",
    [
        (F(2), F(3), F(19), F(1, 6)),
        (F(2), F(4), F(11), F(1, 3)),
        (F(15, 16), F(2), F(17), F(1, 2)),
        (F(2), F(3), F(2), F(1, 2)),
    ],
    ids=["rational-gcd-6", "surd-gcd-3", "none-gcd-16", "none-gcd-1"],
)
def test_build_tuple_roots_equal_solve_roots(inputs):
    # build_tuple reads its roots through solve_roots; they must be
    # solve_roots' roots for its gamma and beta, down to each Surd's field,
    # also when G, B and M of the module docstring share a factor.
    # test_moebius_map_gives_the_roots_of_build_tuple checks the roots
    # without solve_roots.
    result = build_tuple(*inputs)
    expected = solve_roots(result.gamma, result.beta)
    assert result.roots == expected
    assert result.roots.to_json_dict() == expected.to_json_dict()
    if expected.kind == "surd":
        for got, want in zip(result.roots.surd, expected.surd):
            assert (got.p, got.q, got.d) == (want.p, want.q, want.d)
    elif expected.kind == "rational":
        assert all(type(v) is Fraction for v in result.roots.rational)


@settings(max_examples=300, deadline=None)
@given(_NONZERO, _NONTRIVIAL, _NONTRIVIAL, _NONTRIVIAL)
@example(F(2), F(3), F(19), F(5))  # x = 31
@example(F(2), F(3), F(19), F(7))  # x = 11, the notebook tuple
def test_moebius_map_gives_the_roots_of_build_tuple(t, A, z, y):
    # The (t, A, z) line of the module docstring, read without solve_roots:
    # the squared relation is c xy - s (x+y) + c = 0, so x = (s y - c)/(c y - s).
    a, b = t * (A * A - 1) * (z - 1), A * A * (z + 1)
    c, s = a - b, a + b
    assume(c != 0 and c * y != s)
    x = (s * y - c) / (c * y - s)
    assume(x not in (0, 1, -1))
    identity = IdentityTuple(t, A, x, y, z)
    radicand, rhs = tuple_sides(identity)
    assert radicand == rhs ** 2
    k = recover_k(identity)
    assert k is not None
    roots = build_tuple(t, A, z, k).roots
    assert roots.kind == "rational" and set(roots.rational) == {x, y}
    assert verify_tuple(identity) == (rhs > 0)


@st.composite
def _quadratics(draw):
    """(gamma, beta) of X^2 - gamma X + beta: beta is either drawn freely or
    made from a drawn root x, so that rational roots are common."""
    gamma = draw(_RATIONALS)
    if draw(st.booleans()):
        return gamma, draw(_RATIONALS)
    x = draw(_RATIONALS)
    return gamma, x * (gamma - x)


@settings(max_examples=500, deadline=None)
@given(_quadratics())
def test_solve_roots_matches_the_fraction_discriminant(quadratic):
    gamma, beta = quadratic
    disc = gamma * gamma - 4 * beta
    is_square = disc >= 0 and all(
        isqrt(v) ** 2 == v for v in (disc.numerator, disc.denominator)
    )
    roots = solve_roots(gamma, beta)
    assert (roots.kind == "none") == (disc < 0)
    assert (roots.kind == "rational") == is_square
    if roots.kind == "none":
        return
    hi, lo = roots.rational if is_square else map(lift, roots.surd)
    assert hi >= lo
    for root in (hi, lo):
        assert root * root - gamma * root + beta == 0
        if not is_square:  # the field is already normalized
            assert root == Surd(root.p, root.q, root.d)


def _pinned_grid() -> list[tuple[Fraction, Fraction, Fraction, Fraction]]:
    """1,000 seeded signed rational (t, A, z, k); about half have k solved
    from a root x, so rational, surd and no roots all occur."""
    rng = random.Random(20190925)
    out = []
    while len(out) < 1000:
        t = F(rng.randint(-30, 30), rng.randint(1, 9))
        A = F(rng.randint(-12, 12), rng.randint(1, 4))
        z = F(rng.randint(-30, 30), rng.randint(1, 4))
        if t == 0 or A in (0, 1, -1) or z in (0, 1, -1):
            continue
        if rng.random() < 0.5:
            k = F(rng.randint(-30, 30), rng.randint(1, 12))
        else:
            k = _k_for_root(t, A, z, F(rng.randint(-30, 30), rng.randint(1, 4)))
        if k:
            out.append((t, A, z, k))
    return out


def test_build_tuple_output_pinned():
    # sha256 over the "\n"-joined build_tuple(...).to_json() lines of the
    # grid (462 surd, 522 rational and 16 negative-discriminant roots),
    # recorded before solve_roots moved to the integer discriminant, with
    # the always-true inputs_nontrivial flag (since removed) left out.
    lines = [build_tuple(*inputs).to_json() for inputs in _pinned_grid()]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "fda0d084bf8f14c6f32cc192d9d9b94422ec258db0f89e63ad1e1efc6d40eddd"
