"""Closed-form z, pruning bounds and the exhaustive searches."""

import enum
import hashlib
import io
import json
from fractions import Fraction
from math import isqrt
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import brute_force_super_perfect
from ramid import (
    Classification,
    EnumerationReport,
    IdentityTuple,
    PreconditionError,
    TrivialInputError,
    appendix_distinct,
    classify,
    enumerate_perfect,
    enumerate_super_perfect,
    load_appendix,
    prime_filter,
    solve_z,
    verify_tuple,
)
from ramid.enumeration import (
    SUPER_PERFECT_T_VALUES,
    _last,
    _perfect_cells,
    _run_cells,
    _scan_perfect_cell,
    _scan_super_cell,
    _super_perfect_cells,
    super_x_interval,
    super_y_interval,
)
from ramid.identity import _ordered_class

F = Fraction


def test_solve_z_notebook():
    assert solve_z(2, 3, 7, 11) == 19


def test_solve_z_appendix_entry():
    assert solve_z(2, 3, 4, 61) == 63


def test_solve_z_non_integer():
    assert solve_z(2, 3, 4, 38) is None


def test_solve_z_rational_t():
    # Rational t with a positive integer completion.
    for t, A, x, y, z in [(F(15, 2), 3, 3, 3, 4), (F(9, 2), 2, 5, 5, 5)]:
        assert solve_z(t, A, x, y) == z
        assert verify_tuple(IdentityTuple(t, F(A), F(x), F(y), F(z)))
    # The completions of (15/16, 2, 9, 17) and (2, 2, 6, 14) are -3 and -27:
    # they verify, but lie below 2, so solve_z rejects them.
    assert solve_z(F(15, 16), 2, 9, 17) is None
    assert verify_tuple(IdentityTuple(F(15, 16), F(2), F(9), F(17), F(-3)))
    # F_A F_x F_y = (4/3)(7/5)(15/13) = 28/13 > 2 = t, so no z >= 2 exists.
    assert solve_z(2, 2, 6, 14) is None
    assert verify_tuple(IdentityTuple(F(2), F(2), F(6), F(14), F(-27)))
    assert not verify_tuple(IdentityTuple(F(2), F(2), F(6), F(14), F(27)))


def test_solve_z_rejects_float_t():
    with pytest.raises(PreconditionError):
        solve_z(2.0, 3, 7, 11)


def test_solve_z_round_trips_with_verifier():
    for A in range(2, 12):
        for x in range(2, 30):
            for y in range(x, 40):
                z = solve_z(2, A, x, y)
                if z is not None:
                    assert verify_tuple(
                        IdentityTuple(F(2), F(A), F(x), F(y), F(z))
                    ), (A, x, y, z)


@pytest.mark.parametrize("end, lo", [(5, 0), (5, 5), (5, 6), (5, 9), (-2, -4)])
def test_last_finds_the_end_of_a_run(end, lo):
    # lo - 1 when the predicate already fails at lo
    assert _last(lambda n: n <= end, lo) == max(end, lo - 1)


def test_x_interval_invariants():
    # every admissible (t, A, x) satisfies F_A * F_x^3 >= t and F_A * F_x < t,
    # x = hi+1 fails the first and x = lo-1 is A or fails the second
    fx = lambda x: F(x + 1, x - 1)
    for t, A in _super_perfect_cells():
        interval = super_x_interval(t, A)
        if interval is None:
            continue
        lo, hi = interval
        fa = F(A * A, A * A - 1)
        for x in range(lo, hi + 1):
            assert fa * fx(x) ** 3 >= t
            assert fa * fx(x) < t
            assert x > A
        assert fa * fx(hi + 1) ** 3 < t
        assert lo - 1 == A or fa * fx(lo - 1) >= t


def test_x_interval_t2_a3():
    assert super_x_interval(2, 3) == (4, 10)


def test_an_empty_x_interval_gives_an_empty_cell():
    # A = 100 lies past the last super-perfect A for t = 2: x = 101 fails the cubic bound.
    assert super_x_interval(2, 100) is None
    hits = []
    assert _scan_super_cell((2, 100), hits) == 0 and hits == []


def test_y_interval_t2_a3_x4():
    assert super_y_interval(2, 3, 4) == (32, 61)
    assert super_y_interval(2, 3, 2) is None  # m = 16/27 <= 1


def test_y_interval_bounds_are_sharp():
    for t, A in _super_perfect_cells():
        xs = super_x_interval(t, A)
        if xs is None:
            continue
        for x in range(xs[0], xs[1] + 1):
            ys = super_y_interval(t, A, x)
            if ys is None:
                continue
            lo, hi = ys
            m = F(t) * (A * A - 1) * (x - 1) / (A * A * (x + 1))
            f = lambda y: F(y + 1, y - 1)
            assert f(lo) < m <= f(lo - 1) if lo > x + 1 else f(lo) < m
            assert f(hi) ** 2 > m >= f(hi + 1) ** 2


def test_super_perfect_matches_appendix(super_perfect_report):
    assert set(super_perfect_report.identities) == appendix_distinct()
    assert len(super_perfect_report.identities) == 39


def test_appendix_file_has_one_repeat():
    printed = load_appendix()
    assert len(printed) == 40
    assert len(set(printed)) == 39
    dup = IdentityTuple(F(2), F(3), F(4), F(46), F(95))
    assert printed.count(dup) == 2


def test_appendix_all_verify_and_classify_super_perfect():
    for identity in appendix_distinct():
        assert verify_tuple(identity)
        assert classify(identity) in (Classification.SUPER_PERFECT, Classification.PRIME)


def test_super_perfect_all_have_t_2(super_perfect_report):
    assert all(identity.t == 2 for identity in super_perfect_report.identities)


def test_super_perfect_report_counts(super_perfect_report):
    assert super_perfect_report.candidates_examined > 0
    assert super_perfect_report.wall_time >= 0


def test_super_perfect_sorted_deduplicated(super_perfect_report):
    ids = super_perfect_report.identities
    assert list(ids) == sorted(set(ids))


def test_prime_filter(super_perfect_report):
    primes = prime_filter(super_perfect_report).identities
    expected = {
        IdentityTuple(F(2), F(3), F(5), F(13), F(127)),
        IdentityTuple(F(2), F(3), F(5), F(19), F(31)),
        IdentityTuple(F(2), F(3), F(7), F(11), F(19)),
    }
    assert set(primes) == expected


def test_prime_filter_empty_report():
    from ramid import EnumerationReport

    empty = EnumerationReport((), 0, 0.0)
    assert prime_filter(empty).identities == ()


def test_enumeration_classifies_each_tuple_once(monkeypatch):
    # Enumeration checks and tags its tuples in ints: neither it nor the
    # report's writer calls verify_tuple (classify looks it up in
    # ramid.identity), so no identity is verified twice.
    calls = []

    def counted(identity):
        calls.append(identity)
        return verify_tuple(identity)

    monkeypatch.setattr("ramid.identity.verify_tuple", counted)
    reports = []
    for search in (enumerate_super_perfect, enumerate_perfect):
        report = search()
        report.write_jsonl(io.StringIO())
        primes = prime_filter(report)
        primes.write_jsonl(io.StringIO())
        reports += [report, primes]
    assert calls == []
    monkeypatch.undo()
    for report in reports:
        assert report.lines == tuple(i.to_json(classify(i)) + "\n" for i in report.identities)
    super_primes, perfect_primes = reports[1], reports[3]
    assert [json.loads(line)["class"] for line in super_primes.lines] == ["prime"] * 3
    assert [json.loads(line)["class"] for line in perfect_primes.lines].count("prime") == 3
    with pytest.raises(ValueError):  # a report without its lines is not written
        EnumerationReport(reports[0].identities, 0, 0.0).write_jsonl(io.StringIO())


def test_enumerated_lines_are_formatted_from_ints():
    # The scan's ints are formatted directly: writing an enumerated report
    # prints no Fraction and calls neither to_json nor Enum's own __hash__
    # (the tag text is looked up by Classification).
    def counting(owner, name):
        original = getattr(owner, name)
        return mock.patch.object(owner, name, autospec=True, side_effect=original)

    out = io.StringIO()
    with (
        counting(IdentityTuple, "to_json") as to_json,
        counting(Fraction, "__str__") as fraction_str,
        counting(enum.Enum, "__hash__") as enum_hash,
    ):
        for search in (enumerate_super_perfect, enumerate_perfect):
            report = search()
            report.write_jsonl(out)
            prime_filter(report).write_jsonl(out)
    assert (to_json.call_count, fraction_str.call_count, enum_hash.call_count) == (0, 0, 0)
    assert len(out.getvalue().splitlines()) == 39 + 3 + 309 + 46


def test_enumeration_names_a_tuple_that_fails_to_verify():
    def scan(cell, hits):
        hits.append((2, 3, 7, 11, 20))
        return 1

    with pytest.raises(AssertionError, match=r"fails to verify: .*z=Fraction\(20, 1\)"):
        _run_cells([(2, 3)], scan)


@pytest.mark.parametrize("unordered", [(2, 3, 11, 7, 19), (2, 3, 7, 19, 11)])
def test_enumeration_rejects_an_unordered_tuple(unordered):
    # The notebook identity (2, 3, 7, 11, 19) out of order verifies, but the
    # scans emit x <= y <= z and the tag is read from that order.
    assert verify_tuple(IdentityTuple(*unordered))

    def scan(cell, hits):
        hits.append(unordered)
        return 1

    with pytest.raises(AssertionError, match=r"fails to verify: IdentityTuple\(t="):
        _run_cells([(2, 3)], scan)


_ENUMERATED = [tuple(map(int, v)) for v in enumerate_perfect().identities]


@st.composite
def ordered_int_tuples(draw):
    # An enumerated tuple, possibly with one entry moved a little, or five
    # random ints; either way x, y, z are put in order.
    if draw(st.booleans()):
        v = list(draw(st.sampled_from(_ENUMERATED)))
        i = draw(st.integers(0, 4))
        v[i] = max(2, v[i] + draw(st.integers(-2, 2)))
    else:
        v = draw(st.lists(st.integers(2, 10**6), min_size=5, max_size=5))
    return (v[0], v[1], *sorted(v[2:]))


@settings(max_examples=300, deadline=None)
@given(ordered_int_tuples())
def test_integer_check_decides_what_verify_tuple_does(v):
    def scan(cell, hits):
        hits.append(v)
        return 1

    identity = IdentityTuple(*v)
    if verify_tuple(identity):
        report = _run_cells([(2, 3)], scan)
        assert report.identities == (identity,)
        assert report.lines == (identity.to_json(classify(identity)) + "\n",)
    else:
        with pytest.raises(AssertionError, match="fails to verify"):
            _run_cells([(2, 3)], scan)


def test_ordered_class_is_classify(super_perfect_report, perfect_report):
    for report in (super_perfect_report, perfect_report):
        for identity in report.identities:
            assert _ordered_class(*map(int, identity)) == classify(identity)


def test_enumeration_rejects_an_entry_below_2():
    # The public constructor would reject A = 1; the private one relies on
    # the scan's ints being checked first.
    def scan(cell, hits):
        hits.append((2, 1, 7, 11, 19))
        return 1

    with pytest.raises(AssertionError, match=r"entry below 2: \(2, 1, 7, 11, 19\)"):
        _run_cells([(2, 3)], scan)


def test_enumerated_tuples_equal_publicly_built_ones(super_perfect_report, perfect_report):
    for report in (super_perfect_report, perfect_report):
        built = report.identities
        public = [
            IdentityTuple(*map(Fraction, (int(v.t), int(v.A), int(v.x), int(v.y), int(v.z))))
            for v in built
        ]
        assert list(built) == public == sorted(public)
        assert all(a < b for a, b in zip(built, built[1:]))
        for identity, reference in zip(built, public):
            assert hash(identity) == hash(reference)
            assert repr(identity) == repr(reference)
            entries = (identity.t, identity.A, identity.x, identity.y, identity.z)
            assert all(type(v) is Fraction for v in entries)
    notebook = IdentityTuple(F(2), F(3), F(7), F(11), F(19))
    assert notebook in perfect_report.identities
    built = perfect_report.identities[perfect_report.identities.index(notebook)]
    # _replace goes through the public constructor and its checks
    with pytest.raises(TrivialInputError):
        built._replace(A=F(1))
    with pytest.raises(PreconditionError):
        built._replace(z=19.0)
    assert built._replace(z=20).z == F(20)


def _super_candidates(cell):
    # Each (t, A, x, y) of a super-perfect cell, with its least admissible z.
    t, A = cell
    xs = super_x_interval(t, A)
    for x in range(xs[0], xs[1] + 1) if xs else ():
        ys = super_y_interval(t, A, x)
        for y in range(ys[0], ys[1] + 1) if ys else ():
            yield t, A, x, y, y + 1


def _perfect_candidates(cell):
    # Each (t, A, x, y) of a perfect cell under the A cap of the module
    # docstring, with its least admissible z.  a0 and the y bound come from
    # linear Fraction comparisons, independent of the scan's integer search.
    t, x = cell
    r = F(t) / F(x + 1, x - 1)
    if r <= 1:
        return
    a0 = 2
    while F(a0 * a0, a0 * a0 - 1) >= r:
        a0 += 1
    m4 = r / F(a0 * a0, a0 * a0 - 1)
    y = x
    while F(y + 1, y - 1) ** 2 >= m4:
        p, q = t * (x - 1) * (y - 1), (x + 1) * (y + 1)
        if p > q:
            v = max(y, (p + q) // (p - q) + 1)
            for A in range(2, isqrt(p * (v - 1) // (v * (p - q) - (p + q))) + 1):
                yield t, A, x, y, y
        y += 1


def test_cell_scans_keep_what_solve_z_keeps():
    for cells, scan, candidates, total in [
        (_super_perfect_cells(), _scan_super_cell, _super_candidates, 100),
        (_perfect_cells(), _scan_perfect_cell, _perfect_candidates, 1527),
    ]:
        examined = 0
        for cell in cells:
            hits, expected = [], []
            count = scan(cell, hits)
            reference = list(candidates(cell))
            for t, A, x, y, z_min in reference:
                z = solve_z(t, A, x, y)
                if z is not None and z >= z_min:
                    expected.append((t, A, x, y, z))
            assert (count, hits) == (len(reference), expected), cell
            examined += count
        assert examined == total


def test_prime_filter_drops_composites(super_perfect_report):
    composite = IdentityTuple(F(2), F(6), F(7), F(9), F(13))
    assert composite in set(super_perfect_report.identities)
    assert composite not in set(prime_filter(super_perfect_report).identities)


def test_perfect_superset_of_super_perfect(super_perfect_report, perfect_report):
    # The two cell geometries agree: the super-perfect report is exactly the
    # perfect tuples tagged super-perfect or prime, lines included.
    super_tags = ("super-perfect", "prime")
    tagged = zip(perfect_report.identities, perfect_report.lines, strict=True)
    expected = [(i, line) for i, line in tagged if json.loads(line)["class"] in super_tags]
    assert len(expected) == 39
    super_lines = zip(super_perfect_report.identities, super_perfect_report.lines, strict=True)
    assert list(super_lines) == expected


def test_perfect_all_verify_and_are_perfect(perfect_report):
    assert perfect_report.identities  # nonempty and finite by construction
    for identity in perfect_report.identities:
        assert verify_tuple(identity)
        assert classify(identity) in (
            Classification.PERFECT, Classification.SUPER_PERFECT, Classification.PRIME
        )
        assert identity.x <= identity.y <= identity.z


def test_perfect_finds_unordered_cases(perfect_report):
    found = set(perfect_report.identities)
    # A far above x, reachable only through the uniform A cap
    assert IdentityTuple(F(4), F(28), F(2), F(8), F(57)) in found
    # extreme corner: every variable at minimum, t at its maximum 36
    assert IdentityTuple(F(36), F(2), F(2), F(2), F(2)) in found


def test_bounds_equal_brute_force_at_small_scale(super_perfect_report):
    # Desk-scale soundness: the appendix maximum y is 61, so a 150 cap
    # already covers everything the pruned search reports.
    assert brute_force_super_perfect(150) == set(super_perfect_report.identities)


def test_report_jsonl_round_trip(tmp_path, super_perfect_report):
    path = tmp_path / "out.jsonl"
    with open(path, "w") as fh:
        super_perfect_report.write_jsonl(fh)
    lines = path.read_text().splitlines()
    assert len(lines) == 39
    parsed = [IdentityTuple.from_json(line) for line in lines]
    assert parsed == list(super_perfect_report.identities)
    assert all('"class"' in line for line in lines)


# sha256 of write_jsonl for each class, recorded before the scans moved to
# integer tuples and verify_tuple to the integer equation.
def test_enumerate_output_pinned(super_perfect_report, perfect_report):
    for report, digest in [
        (super_perfect_report, "67af4abd32426046619fc746f18057acd3506b12f8bf7634b798e737301cb0d2"),
        (perfect_report, "1c6ef47ae6142cb00796c9942e2bf54d1d50529e70c7075c8ee1c4d90c1817e5"),
    ]:
        out = io.StringIO()
        report.write_jsonl(out)
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
    assert super_perfect_report.candidates_examined == 100
    assert perfect_report.candidates_examined == 1527
