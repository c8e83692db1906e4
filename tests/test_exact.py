"""Rational and quadratic-surd arithmetic."""

import itertools
import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from brute import is_prime_reference
from conftest import FIELDS
from ramid import (
    FactoringLimitError,
    IncompatibleFieldError,
    PreconditionError,
    Surd,
    discover,
    general_infinite_family,
    long_identity,
    parse_rational,
    parse_surd,
    rebak_family,
    rebak_variant_family,
    solve_roots,
    solve_z,
    squarefree_decompose,
    surd_family_high,
    surd_family_low,
)
from ramid.exact import _RHO_STEPS, _factor, _pollard_rho, _strong_lucas, is_prime

F = Fraction


def test_parse_format_rational_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        r = F(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))
        assert parse_rational(str(r)) == r


def test_parse_rational_rejects_floats_and_junk():
    for bad in ("1.5", "1/2/3", "a", "", "1e3", "1 / 2"):
        with pytest.raises(ValueError):
            parse_rational(bad)


@pytest.mark.parametrize(
    "parse, text",
    [(parse_rational, "5\n"), (parse_rational, "\u0662"), (parse_rational, "1/\u0663"),
     (parse_surd, "1 + 2*sqrt(\u0663)"), (parse_surd, "\u0661 + 2*sqrt(3)")],
    ids=["trailing-newline", "arabic-indic-2", "arabic-indic-den", "arabic-indic-radicand",
         "arabic-indic-p"],
)
def test_literal_grammar_is_strict_ascii(parse, text):
    # "$" would match before a final newline, and "\d" any Unicode digit.
    with pytest.raises(ValueError, match="not a"):
        parse(text)


@settings(max_examples=200, deadline=None)
@given(st.from_regex(r"[+-]?[0-9]+(/[0-9]+)?", fullmatch=True))
def test_parse_rational_agrees_with_fraction(text):
    _, _, den = text.partition("/")
    if den and int(den) == 0:
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational(text)
    else:
        value = parse_rational(text)
        assert type(value) is F and value == F(text)


@pytest.mark.parametrize(
    "parse, text",
    [(parse_rational, "1/0"), (parse_rational, "-3/00"), (parse_surd, "1/0"),
     (parse_surd, "1 + 1/0*sqrt(2)"), (parse_surd, "-1/0 - 2*sqrt(3)")],
)
def test_parsers_reject_a_zero_denominator(parse, text):
    # A ValueError, not a ZeroDivisionError: the CLI reports it and exits 2.
    with pytest.raises(ValueError, match="zero denominator"):
        parse(text)


@pytest.mark.parametrize(
    "n, expected",
    [(0, (0, 1)), (1, (1, 1)), (8, (2, 2)), (12, (3, 2)), (360, (10, 6)),
     (997, (997, 1)), (2**20, (1, 2**10)), (7**3 * 11**2, (7, 77))],
)
def test_squarefree_decompose(n, expected):
    assert squarefree_decompose(n) == expected


def test_squarefree_decompose_large_semiprime():
    p, q = 1000003, 1000033
    f, s = squarefree_decompose(p * p * q)
    assert (f, s) == (q, p)


# Two primes near 10^29 and 10^30: Pollard rho would need about 10^14 steps.
UNFACTORABLE = (10**29 + 319) * (10**30 + 57)


def test_pollard_rho_stops_at_its_step_bound():
    message = f"^cannot factor a 196-bit number in {_RHO_STEPS} steps$"
    with pytest.raises(FactoringLimitError, match=message):
        _pollard_rho(UNFACTORABLE)
    with pytest.raises(FactoringLimitError, match=message):
        squarefree_decompose(UNFACTORABLE)
    with pytest.raises(FactoringLimitError, match=message):
        Surd(1, 1, UNFACTORABLE)


def test_pollard_rho_raises_the_same_error_when_every_restart_fails(monkeypatch):
    # With gcd always n, each of the 99 values of c meets d = n at its first step.
    calls = []
    monkeypatch.setattr("ramid.exact.gcd", lambda a, n: calls.append(a) or n)
    with pytest.raises(FactoringLimitError, match="^cannot factor a 25-bit number"):
        _pollard_rho(4099 * 4111)
    assert len(calls) == 99


def test_squarefree_decompose_tests_a_composite_cofactor_once(monkeypatch):
    # 4099 and 4111 are the first primes past the trial division; the cofactor
    # gets _factor's prime test alone, then each of its factors one more.
    calls = []
    monkeypatch.setattr("ramid.exact.is_prime", lambda n: calls.append(n) or is_prime(n))
    assert squarefree_decompose(4099 * 4111) == (4099 * 4111, 1)
    assert sorted(calls) == [4099, 4111, 4099 * 4111]


def _squarefree_decompose_reference(n):
    # The trial division by every integer below 4096 that squarefree_decompose
    # ran before it switched to the primes alone; kept as its reference.
    if n in (0, 1):
        return n, 1
    f, s = 1, 1
    for p in range(2, 4096):
        if p * p > n:
            break
        while n % (p * p) == 0:
            n //= p * p
            s *= p
        if n % p == 0:
            n //= p
            f *= p
    if n > 1:
        r = isqrt(n)
        if r * r == n:
            s *= r
        elif is_prime(n):
            f *= n
        else:
            exponents = {}
            _factor(n, exponents)
            for p, e in exponents.items():
                s *= p ** (e // 2)
                if e % 2:
                    f *= p
    return f, s


def _squarefree_table(limit):
    # (f, s) with n = f s^2 and f squarefree for every n <= limit, from a
    # smallest-prime-factor sieve: n = p m with m = f s^2 gives (f/p, s p)
    # when p divides f, else (f p, s).
    spf = list(range(limit + 1))
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    table = [(0, 1), (1, 1)]
    for n in range(2, limit + 1):
        p = spf[n]
        f, s = table[n // p]
        table.append((f // p, s * p) if f % p == 0 else (f * p, s))
    return table


def test_squarefree_decompose_matches_the_reference_below_10_5():
    table = _squarefree_table(10**5)
    for n in range(10**5 + 1):
        assert squarefree_decompose(n) == table[n], n


def test_squarefree_decompose_matches_the_reference_up_to_16_digits():
    rng = random.Random(4096)
    for _ in range(300):
        n = rng.randint(2, 10 ** rng.randint(6, 16))
        assert squarefree_decompose(n) == _squarefree_decompose_reference(n), n


def test_squarefree_decompose_across_the_trial_bound():
    # Primes on both sides of the 4096 trial-division bound, as square and
    # squarefree parts.
    parts = (1, 2, 6, 4091, 4093, 4099, 4099**2, 4093 * 4099)
    for s, f, g in itertools.product(parts, parts, (1, 5, 4091, 4099)):
        n = s * s * f * g
        assert squarefree_decompose(n) == _squarefree_decompose_reference(n), n


def test_is_prime_small_and_large():
    primes = {2, 3, 5, 7, 11, 13, 127, 991, 999983}
    for n in range(-2, 30):
        assert is_prime(n) == (n in primes or n in (17, 19, 23, 29))
    assert is_prime(999983)
    assert not is_prime(999983 * 17)


@pytest.mark.parametrize("n", [1e20, 1e20 + 1, 97.0, True, False, F(97), "97"])
@pytest.mark.parametrize("function", [squarefree_decompose, is_prime])
def test_integer_helpers_reject_non_ints(function, n):
    # A float or a bool once went through: squarefree_decompose(1e20) gave
    # (1, 10000000000) and is_prime(1e20 + 1) gave False.
    with pytest.raises(PreconditionError, match="must be an int"):
        function(n)


PSI_4 = 3215031751  # strong pseudoprime to the bases 2, 3, 5 and 7
PSI_9 = 3825123056546413051  # ... to the bases 2..23
PSI_12 = 318665857834031151167461  # ... to the bases 2..37
PSI_13 = 3317044064679887385961981  # ... and to 41


def test_is_prime_past_the_miller_rabin_bounds():
    assert not is_prime(PSI_4)  # needs base 11
    assert not is_prime(PSI_9)  # needs base 29 or more
    assert not is_prime(PSI_12)  # needs base 41
    assert not is_prime(PSI_13)  # needs the strong Lucas step
    mersenne = [2**e - 1 for e in (61, 89, 107, 127, 521)]
    assert all(is_prime(p) for p in mersenne)
    assert not is_prime(mersenne[1] * mersenne[2])
    assert not is_prime(mersenne[3] ** 2)


def test_is_prime_matches_a_sieve_below_10_5():
    sieve = bytearray([1]) * 10**5
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(10**5 - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, 10**5, p)))
    primes = list(itertools.compress(range(10**5), sieve))
    assert [n for n in range(10**5) if is_prime(n)] == primes


@settings(max_examples=500, deadline=None)
@given(st.integers(3, 23).flatmap(lambda k: st.integers(10**k, 10 ** (k + 1) - 1)))
@example(PSI_4)
@example(PSI_9)
def test_is_prime_agrees_with_the_twelve_base_test(n):
    # odd n of 4 to 24 digits, on both sides of each base-set bound
    n |= 1
    assert is_prime(n) == is_prime_reference(n)


def test_strong_lucas_pseudoprimes_are_the_known_ones():
    # Odd composites passing the strong Lucas test with Selfridge's
    # parameters (OEIS A217255); every other odd n > 11 it decides rightly.
    pseudoprimes = {5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519}
    for n in range(13, 60000, 2):
        assert _strong_lucas(n) == (is_prime(n) or n in pseudoprimes), n


def test_surd_normalize_square_part():
    s = Surd(0, 1, 8)
    assert (s.p, s.q, s.d) == (0, 2, 2)


def test_surd_normalize_rational_embedding():
    s = Surd(3, 0, 7)
    assert (s.p, s.q, s.d) == (3, 0, 0)


def test_surd_normalize_fraction_coefficient():
    s = Surd(1, F(1, 2), 12)
    assert (s.p, s.q, s.d) == (1, 1, 3)


@pytest.mark.parametrize(
    "entry, args",
    [
        pytest.param(Surd, (0.1,), id="Surd-p"),
        pytest.param(Surd, (1, 0.5, 2), id="Surd-q"),
        pytest.param(Surd, (1, 1, 2.7), id="Surd-d"),
        pytest.param(Surd.sqrt_rational, (0.5,), id="sqrt_rational"),
        pytest.param(solve_z, (2, 3.0, 7, 11), id="solve_z-A"),
        pytest.param(solve_z, (2, 3, 7.0, 11), id="solve_z-x"),
        pytest.param(solve_z, (2, 3, 7, 11.0), id="solve_z-y"),
        pytest.param(solve_roots, (18.0, F(77)), id="solve_roots"),
        pytest.param(general_infinite_family, (2.5,), id="general-infinite-k"),
        pytest.param(long_identity, (3.0, 2), id="long-identity-b"),
        pytest.param(long_identity, (3, 2.0), id="long-identity-n"),
        pytest.param(rebak_family, (0.5,), id="rebak"),
        pytest.param(rebak_variant_family, (0.5,), id="rebak-variant"),
        pytest.param(surd_family_high, (3.5,), id="surd-high"),
        pytest.param(surd_family_low, (-2.5,), id="surd-low"),
        pytest.param(discover, (1, 10, 2.0), id="discover-t"),
        pytest.param(discover, (1, 10.0, 2), id="discover-trials"),
        pytest.param(discover, (1, 10, 2, (2.0, 6)), id="discover-a_range-lo"),
        pytest.param(discover, (1, 10, 2, (2, 6.0)), id="discover-a_range-hi"),
        pytest.param(discover, (1, 10, 2, (2, 6), (-20.0, 20)), id="discover-z_range-lo"),
        pytest.param(discover, (1, 10, 2, (2, 6), (-20, 20.0)), id="discover-z_range-hi"),
        pytest.param(discover, (1, 10, 2, (2, 6), (-20, 20), 12.0), id="discover-k_den_max"),
    ],
)
def test_entry_points_reject_floats(entry, args):
    with pytest.raises(PreconditionError):
        entry(*args)


def test_surd_normalize_idempotent_and_value_preserving():
    rng = random.Random(13)
    for _ in range(200):
        p = F(rng.randint(-50, 50), rng.randint(1, 20))
        q = F(rng.randint(-50, 50), rng.randint(1, 20))
        d = rng.randint(0, 500)
        s = Surd(p, q, d)
        again = Surd(s.p, s.q, s.d)
        assert (again.p, again.q, again.d) == (s.p, s.q, s.d)
        raw = float(p) + float(q) * d**0.5
        assert abs(float(s) - raw) <= 1e-12 * max(1.0, abs(raw))


def test_surd_mul_conjugate_is_rational():
    s = Surd(1, 1, 2)
    assert s * Surd(1, -1, 2) == Surd(-1)


def test_surd_mul_sqrt2_squared():
    assert Surd(0, 1, 2) * Surd(0, 1, 2) == Surd(2)


def test_surd_mul_collects_terms():
    # (1 + 2*sqrt3)(2 + sqrt3) = 2 + 2*3 + (1 + 4)*sqrt3
    assert Surd(1, 2, 3) * Surd(2, 1, 3) == Surd(8, 5, 3)


def test_surd_mixed_radicands_rejected():
    with pytest.raises(IncompatibleFieldError):
        Surd(0, 1, 2) * Surd(0, 1, 3)
    with pytest.raises(IncompatibleFieldError):
        Surd(0, 1, 2) + Surd(0, 1, 3)


def test_surd_rational_mixes_with_any_field():
    assert Surd(3) * Surd(1, 1, 5) == Surd(3, 3, 5)


def test_surd_division_and_zero():
    s = Surd(1, 1, 2)
    assert s / s == Surd(1)
    assert 1 / Surd(0, 1, 2) == Surd(0, F(1, 2), 2)
    with pytest.raises(ZeroDivisionError):
        s / Surd(0)


def _random_surd(rng, d):
    return Surd(
        F(rng.randint(-30, 30), rng.randint(1, 12)),
        F(rng.randint(-30, 30), rng.randint(1, 12)),
        d,
    )


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 10])
def test_surd_field_axioms(d):
    rng = random.Random(d)
    for _ in range(60):
        a, b, c = (_random_surd(rng, d) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        if a != Surd(0):
            assert a * a.inverse() == Surd(1)
            assert (a * a.conjugate()).is_rational


def test_rational_field_axioms_randomized():
    rng = random.Random(99)
    for _ in range(200):
        a = F(rng.randint(-99, 99), rng.randint(1, 40))
        b = F(rng.randint(-99, 99), rng.randint(1, 40))
        c = F(rng.randint(-99, 99), rng.randint(1, 40))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * (1 / a) == 1


def test_surd_sign_exact():
    assert Surd(3, -2, 2).sign() == 1  # 9 > 8
    assert Surd(2, -2, 2).sign() == -1  # 4 < 8
    assert Surd(-3, 2, 2).sign() == -1
    assert Surd(-2, 2, 2).sign() == 1
    assert Surd(0).sign() == 0
    assert (Surd(1, 1, 2) - Surd(1, 1, 2)).sign() == 0


def test_surd_ordering_matches_floats():
    rng = random.Random(5)
    for _ in range(200):
        a, b = _random_surd(rng, 7), _random_surd(rng, 7)
        assert (a < b) == (float(a) < float(b) and a != b)
        assert (a > b) == (float(a) > float(b) and a != b)
        assert (a <= b) != (a > b) and (a >= b) != (a < b)


def test_surd_total_order_against_rationals():
    assert Surd(0, 1, 2) > 1
    assert Surd(0, 1, 2) < F(3, 2)


def test_surd_str_round_trip():
    rng = random.Random(17)
    for _ in range(200):
        s = _random_surd(rng, rng.choice([0, 2, 3, 5, 11]))
        assert parse_surd(str(s)) == s
    assert str(Surd(3)) == "3"
    assert str(Surd(F(1, 2), F(-3, 4), 5)) == "1/2 - 3/4*sqrt(5)"
    assert parse_surd("1/2 - 3/4*sqrt(5)") == Surd(F(1, 2), F(-3, 4), 5)


_FIELDS = st.sampled_from(FIELDS)
_RATIONALS = st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**4))


def _surds(d):
    return st.builds(Surd, _RATIONALS, st.one_of(st.just(F(0)), _RATIONALS), st.just(d))


@settings(max_examples=300, deadline=None)
@given(st.data(), _FIELDS)
def test_arithmetic_keeps_the_normalized_field(data, d):
    s = data.draw(_surds(d))
    other = data.draw(st.one_of(_surds(d), _RATIONALS, st.integers(-50, 50)))
    results = [s + other, other + s, s - other, other - s, s * other, other * s,
               -s, s.conjugate(), s - s, s + (-s), s * s.conjugate()]
    if other != 0:
        results.append(s / other)
    if s != 0:
        results += [s.inverse(), other / s, s / s]
    for r in results:
        # What arithmetic returns is what the normalizing constructor makes
        # of it (Surd equality is structural).
        assert type(r.p) is F and type(r.q) is F
        assert r == Surd(r.p, r.q, r.d)
    assert s * s.conjugate() == s.norm()


@settings(max_examples=100, deadline=None)
@given(st.data(), _FIELDS, _FIELDS)
def test_arithmetic_rejects_mixed_fields(data, d, e):
    assume(d != e)
    s = data.draw(_surds(d).filter(lambda v: not v.is_rational))
    t = data.draw(_surds(e).filter(lambda v: not v.is_rational))
    for op in (lambda: s + t, lambda: s - t, lambda: s * t, lambda: s / t):
        with pytest.raises(IncompatibleFieldError):
            op()


@settings(max_examples=200, deadline=None)
@given(st.data(), _FIELDS, _FIELDS)
def test_comparisons_agree_with_the_sign_of_the_difference(data, d, e):
    s = data.draw(_surds(d))
    x = data.draw(st.one_of(_RATIONALS, st.integers(-50, 50)))
    other = data.draw(st.one_of(_surds(d), st.just(x)))
    sign = (s - other).sign()
    assert (s < other, s == other, s > other) == (sign < 0, sign == 0, sign > 0)
    assert (s <= other, s >= other) == (sign <= 0, sign >= 0)
    assert (other < s, other > s) == (sign > 0, sign < 0)
    ordered = sorted(data.draw(st.lists(_surds(d), max_size=8)) + [s])
    assert all((b - a).sign() >= 0 for a, b in zip(ordered, ordered[1:]))
    # A rational operand is coerced to what the constructor makes of it.
    c, expected = s._coerce(x), Surd(x)
    assert (type(c.p), type(c.q)) == (F, F)
    assert (c.p, c.q, c.d) == (expected.p, expected.q, expected.d)
    if d != e:
        t = data.draw(_surds(e).filter(lambda v: not v.is_rational))
        u = s if not s.is_rational else Surd(s.p, 1, d)
        for op in (lambda: u < t, lambda: u > t, lambda: u <= t, lambda: sorted([u, t])):
            with pytest.raises(IncompatibleFieldError):
                op()


@settings(max_examples=300, deadline=None)
@given(st.one_of(_FIELDS, st.integers(0, 10**6)).flatmap(_surds))
def test_parse_surd_inverts_str(s):
    assert parse_surd(str(s)) == s


@pytest.mark.parametrize(
    "text, expected",
    [("1 + 1*sqrt(8)", Surd(1, 2, 2)), ("0 + 3*sqrt(9)", Surd(9)),
     ("1 + 0*sqrt(5)", Surd(1)), ("2 - 1/2*sqrt(12)", Surd(2, -1, 3)),
     ("0 + 1*sqrt(0)", Surd(0))],
)
def test_parse_surd_normalizes_noncanonical_literals(text, expected):
    # Parsed text is not trusted to carry a squarefree radicand.
    assert parse_surd(text) == expected


def test_surd_normalize_function():
    s = Surd(0, 1, 18)
    assert (s.p, s.q, s.d) == (0, 3, 2)


def test_surd_rejects_negative_radicand():
    with pytest.raises(ValueError):
        Surd(0, 1, -2)
    with pytest.raises(ValueError, match="^radicand must be nonnegative$"):
        squarefree_decompose(-1)
    with pytest.raises(ValueError, match="^square root of a negative rational$"):
        Surd.sqrt_rational(F(-1, 4))


def test_surd_fields_keep_their_invariants():
    # q = 0 forces d = 0, and a rational keeps d = 0 whatever q is.
    assert Surd._field(F(5), F(0), 7).d == 0
    assert Surd._field(F(5), F(1), 0).d == 0
    s = Surd(1, 2, 8)
    assert (s.p, s.q, s.d) == (1, 4, 2)
    for name in ("p", "q", "d"):
        with pytest.raises(AttributeError):
            setattr(s, name, 1)
    assert (s.p, s.q, s.d) == (1, 4, 2)


def test_surd_hash_consistency():
    assert hash(Surd(5)) == hash(F(5))
    assert Surd(0, 2, 2) == Surd(0, 1, 8)
    assert hash(Surd(0, 2, 2)) == hash(Surd(0, 1, 8))
    # A Surd built by _field hashes as the constructor's does.
    assert Surd._field(F(5), F(0), 7) == Surd(5) and hash(Surd._field(F(5), F(0), 7)) == hash(F(5))
    assert Surd._field(F(1), F(4), 2) == Surd(1, 2, 8)
    assert hash(Surd._field(F(1), F(4), 2)) == hash(Surd(1, 2, 8))
