"""Data model and exact verifier for square-root product identities.

An ``IdentityTuple`` (t, A, x, y, z) asserts

    sqrt(t (1 - 1/A^2)(1 - 1/x^2)(1 - 1/y^2)(1 - 1/z^2))
        = (1 + 1/x)(1 + 1/y)(1 + 1/z)

with all five entries rational (ints are converted to ``Fraction``, floats
are rejected).  A ``VariationIdentity`` generalizes the
shape: a rational scale, any number of radicand factors ``(1 - 1/v^2)`` and
any number of signed right-side factors ``(1 +/- 1/w)``, with the values
drawn from a single real quadratic field.  Verification never takes a square
root: it checks that both sides are nonnegative and that the radicand equals
the square of the right side, exactly.  The exact values of both sides, in
``Fraction`` and field arithmetic, are in ``tests/brute.py``: the references
the property tests compare the integer checks against.

Both records are immutable named tuples (``collections.namedtuple``
subclasses without an instance dict), equal to, hashed and ordered as the
plain tuple of their fields.  Their checks and the canonical form below run in
``__new__``, which ``copy`` and pickle (every protocol, through ``__reduce__``)
call too, and ``_make`` (so ``_replace``) calls the class.  Two builds
skip them with ``tuple.__new__``, for fields known to pass: the build loop of
``enumeration._run_cells`` and the hits of ``families.discover``.

A variation is stored in canonical form, so equal identities compare and
serialize equal: each entry is a positive surd (|v| for a radicand entry v,
which enters as v^2, and (-w, -s) for a right-side pair (w, s) with w < 0, as
1 + s/w = 1 + (-s)/(-w)); 0 and +-1 are rejected; both lists ascend, "+" first.
The signs and the order are decided on integers read once from each entry.
A rational entry (an int, a ``Fraction`` or a ``Surd`` with q = 0) is its
v = n/c from ``as_integer_ratio()``, c > 0: it is flipped when n < 0 and
rejected when n is 0 or c.  An irrational entry is cleared to
v = (a + b sqrt(f))/c with integers a, b != 0 and c > 0, and flipped when
a + b sqrt(f) < 0.  A list with an irrational entry is ordered exactly: as
c1 c2 > 0, v1 < v2 exactly when (a1 c2 - a2 c1) + (b1 c2 - b2 c1) sqrt(f) < 0.
A list over Q is sorted on the integer key (n (L/c), -s), L the lcm of its
denominators c and s the sign.  Each canonical entry is built once as a
``Surd`` (a ``Surd`` entry that needs no flip is kept as it is).

For a tuple the check is made in integers.  Each radicand factor splits as
1 - 1/v^2 = (1 - 1/v)(1 + 1/v), and the right side s = (1 + 1/x)(1 + 1/y)
(1 + 1/z) is nonzero because v = -1 is rejected.  Cancelling s once, the
identity holds exactly when t(1 - 1/A^2)(1 - 1/x)(1 - 1/y)(1 - 1/z) = s and
s > 0.  With t = tn/td, A = an/ad and v = n/d (d > 0) that is
tn (an^2 - ad^2) prod(n - d) = td an^2 prod(n + d), with prod(n + d) and
prod(n) of the same sign.

For a variation the check is made in Z[sqrt(f)], f the entries' common
squarefree radicand (0 when all are rational): a + b sqrt(f) is the integer
pair (a, b), and two pairs are equal exactly when their values are, because
sqrt(f) is irrational.  Canonical entries are positive, and each clears to
v = w/c with w = a + b sqrt(f) and an integer c > 0, so w > 0.  Then
1 - 1/v^2 = (w^2 - c^2)/w^2 and 1 + s/v = (w + s c)/w.  With scale = sn/sd,
the radicand is R = num/(sd D^2) with num = sn prod(w^2 - c^2) and D = prod(w)
over the radicand entries, and the right side is S = rn/rd with
rn = prod(w + s c) and rd = prod(w) over the right-side entries.  D and rd are
positive, so S has the sign of rn, and R = S^2 already makes R nonnegative.
The identity holds exactly when num rd^2 = sd (rn D)^2 and rn >= 0.  A
rational entry n/c has w = n, so it multiplies the running pairs by the ints
n^2 - c^2, n and n + s c; only an irrational entry is cleared as a pair.
"""

from __future__ import annotations

import enum
import json
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from functools import cache, cmp_to_key
from math import lcm

from .errors import IncompatibleFieldError, PreconditionError, TrivialInputError
from .exact import (
    Surd,
    _clear_pair,
    _sign,
    as_rational,
    is_prime,
    parse_rational,
    parse_surd,
    require_int,
)

_ONE = Fraction(1)
_ZERO = Fraction(0)


class Classification(enum.Enum):
    NONTRIVIAL_RATIONAL = "nontrivial-rational"
    GENERAL = "general"
    PERFECT = "perfect"
    SUPER_PERFECT = "super-perfect"
    PRIME = "prime"

    # Members are singletons equal only to themselves; Enum's hash runs in Python.
    __hash__ = object.__hash__


# The "class" member of a tuple's JSON line, by tag (None for no tag).
_JSON_TAG = {None: "", **{c: f', "class": "{c.value}"' for c in Classification}}


def _json_line(t, A, x, y, z, classification: Classification | None) -> str:
    # json.dumps(to_json_dict(classification)) byte for byte, from the entries
    # as ints or as str() of the Fractions (not their slower __format__): each
    # prints as digits, "-" and "/", and the tags are plain ASCII.
    return (
        f'{{"t": "{t}", "A": "{A}", "x": "{x}", "y": "{y}", "z": "{z}"'
        f"{_JSON_TAG[classification]}}}"
    )


def _check_nontrivial(name: str, value: Fraction) -> None:
    if value.numerator in (0, 1, -1) and value.denominator == 1:
        raise TrivialInputError(f"{name} must not be 0, 1 or -1 (got {value})")


def _rebuilt_through_new(record: tuple) -> tuple:
    # __reduce__ of the checked records: pickle at every protocol (0 and 1
    # would otherwise fill the tuple directly) and copy call the class.
    return type(record), tuple(record)


class IdentityTuple(namedtuple("IdentityTuple", "t A x y z")):
    __slots__ = ()

    def __new__(cls, t, A, x, y, z) -> "IdentityTuple":
        # ints become Fractions (1/x of an int is a float); floats are rejected
        if not (type(t) is type(A) is type(x) is type(y) is type(z) is Fraction):
            t, A, x, y, z = map(as_rational, cls._fields, (t, A, x, y, z))
        if t == 0:
            raise TrivialInputError("t must be nonzero")
        _check_nontrivial("A", A)
        _check_nontrivial("x", x)
        _check_nontrivial("y", y)
        _check_nontrivial("z", z)
        return tuple.__new__(cls, (t, A, x, y, z))

    @classmethod
    def _make(cls, iterable: Iterable) -> "IdentityTuple":
        # Through __new__'s checks; namedtuple's _replace calls _make.
        return cls(*iterable)

    __reduce__ = _rebuilt_through_new

    def to_json_dict(self, classification: Classification | None = None) -> dict:
        d = {name: str(v) for name, v in zip(self._fields, self)}
        if classification is not None:
            d["class"] = classification.value
        return d

    def to_json(self, classification: Classification | None = None) -> str:
        return _json_line(
            str(self.t), str(self.A), str(self.x), str(self.y), str(self.z), classification
        )

    @classmethod
    def from_json_dict(cls, data: dict) -> "IdentityTuple":
        return cls(*(parse_rational(data[k]) for k in ("t", "A", "x", "y", "z")))

    @classmethod
    def from_json(cls, text: str) -> "IdentityTuple":
        return cls.from_json_dict(json.loads(text))


def verify_tuple(identity: IdentityTuple) -> bool:
    """Exact truth of the identity: radicand and right side nonnegative,
    radicand equal to the square of the right side.  Decided in integers
    after cancelling the nonzero right side once (see the module docstring).
    """
    tn, td = identity.t.as_integer_ratio()
    an, ad = identity.A.as_integer_ratio()
    lhs = tn * (an * an - ad * ad)
    rhs = td * an * an
    den = 1  # prod(n), the denominator of the right side
    for v in identity[2:]:
        n, d = v.as_integer_ratio()
        lhs *= n - d
        rhs *= n + d
        den *= n
    return lhs == rhs and (rhs > 0) == (den > 0)


def classify(identity: IdentityTuple) -> Classification:
    """Most specific tag for a tuple that verifies (precondition)."""
    if not verify_tuple(identity):
        raise PreconditionError("classify requires a tuple that verifies")
    return _verified_class(identity)


def _verified_class(identity: IdentityTuple) -> Classification:
    # classify's tag for a tuple the caller has verified.
    t, A, x, y, z = identity
    if t.denominator == A.denominator == x.denominator == y.denominator == z.denominator == 1:
        t, A, x, y, z = t.numerator, A.numerator, x.numerator, y.numerator, z.numerator
        if min(t, A, x, y, z) < 2:
            return Classification.GENERAL
        return _ordered_class(t, A, *sorted((x, y, z)))
    return Classification.NONTRIVIAL_RATIONAL


def _ordered_class(t: int, A: int, x: int, y: int, z: int) -> Classification:
    # classify's tag for an integer tuple that verifies, every entry at least
    # 2 and x <= y <= z.
    if not t < A < x < y < z:
        return Classification.PERFECT
    if is_prime(A) and is_prime(x) and is_prime(y) and is_prime(z):
        return Classification.PRIME
    return Classification.SUPER_PERFECT


def _canonical(
    entries: Iterable[tuple[Surd | int | Fraction, int]], what: str
) -> list[tuple[Surd, int]]:
    # The canonical form of the module docstring; a radicand entry v is (v, +1).
    out, f = [], 0
    for value, sign in entries:
        if require_int("sign", sign) not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        if isinstance(value, Surd):
            p, q, d = value.p, value.q, value.d
        else:
            p, q, d, value = as_rational("entry", value), _ZERO, 0, None
        if d:
            f = f or d  # a mix of fields is rejected by field_radicand
            a, b, c = _clear_pair(p, q)
            if _sign(a, b, d) < 0:
                p, q, a, b, sign, value = -p, -q, -a, -b, -sign, None
        else:
            (a, c), b = p.as_integer_ratio(), 0
            if a < 0:
                p, a, sign, value = -p, -a, -sign, None
            if a in (0, c):
                raise TrivialInputError(f"{what} must not be 0, 1 or -1: {p}")
        out.append((a, b, c, sign, Surd._field(p, q, d) if value is None else value))

    if f:
        def order(x: tuple, y: tuple) -> int:
            (a1, b1, c1, s1, _), (a2, b2, c2, s2, _) = x, y
            return _sign(a1 * c2 - a2 * c1, b1 * c2 - b2 * c1, f) or s2 - s1

        out.sort(key=cmp_to_key(order))
    else:
        L = lcm(*[c for _, _, c, _, _ in out])
        out.sort(key=lambda e: (e[0] * (L // e[2]), -e[3]))
    return [(value, sign) for _, _, _, sign, value in out]


class VariationIdentity(namedtuple("VariationIdentity", "scale radicand_entries rhs_entries")):
    __slots__ = ()

    def __new__(cls, scale=_ONE, radicand_entries=(), rhs_entries=()) -> "VariationIdentity":
        scale = as_rational("scale", scale)
        if scale == 0:
            raise TrivialInputError("scale must be nonzero")
        radicand = _canonical(((v, 1) for v in radicand_entries), "radicand entry")
        rhs = _canonical(rhs_entries, "rhs value")
        self = tuple.__new__(cls, (scale, tuple([v for v, _ in radicand]), tuple(rhs)))
        self.field_radicand()  # rejects mixed fields eagerly
        return self

    @classmethod
    def _make(cls, iterable: Iterable) -> "VariationIdentity":
        # Through __new__'s checks and canonical form, as IdentityTuple._make.
        return cls(*iterable)

    __reduce__ = _rebuilt_through_new

    def field_radicand(self) -> int:
        """The common squarefree d of all entries (0 if everything is rational)."""
        d = 0
        for v in (*self.radicand_entries, *(v for v, _ in self.rhs_entries)):
            if v.d and d and v.d != d:
                raise IncompatibleFieldError(f"entries mix sqrt({d}) and sqrt({v.d})")
            d = d or v.d
        return d

    def to_json_dict(self) -> dict:
        return {
            "scale": str(self.scale),
            "radicand": [str(v) for v in self.radicand_entries],
            "rhs": [[str(v), "+" if s > 0 else "-"] for v, s in self.rhs_entries],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "VariationIdentity":
        radicand, rhs = data["radicand"], data["rhs"]
        if not all(isinstance(e, list) for e in (radicand, rhs, *rhs)) or any(
            len(e) != 2 or e[1] not in ("+", "-") for e in rhs
        ):
            raise ValueError('need "radicand": [surd, ...], "rhs": [[surd, "+"|"-"], ...]')
        parse = cache(parse_surd)  # a literal repeated in the record is parsed once
        return cls(
            scale=parse_rational(data.get("scale", "1")),
            radicand_entries=tuple(parse(v) for v in radicand),
            rhs_entries=tuple((parse(v), 1 if s == "+" else -1) for v, s in rhs),
        )

    @classmethod
    def from_json(cls, text: str) -> "VariationIdentity":
        return cls.from_json_dict(json.loads(text))

    @classmethod
    def from_tuple(cls, identity: IdentityTuple) -> "VariationIdentity":
        """The general constructor on a tuple's entries:
        ``cls(t, (A, x, y, z), ((x, 1), (y, 1), (z, 1)))``."""
        t, A, x, y, z = identity
        return cls(t, (A, x, y, z), ((x, 1), (y, 1), (z, 1)))


def _times(x: tuple[int, int], y: tuple[int, int], f: int) -> tuple[int, int]:
    # (x0 + x1 sqrt(f)) (y0 + y1 sqrt(f)) as an integer pair.
    return x[0] * y[0] + x[1] * y[1] * f, x[0] * y[1] + x[1] * y[0]


def verify_variation(identity: VariationIdentity) -> bool:
    """Exact truth of the identity: radicand and right side nonnegative,
    radicand equal to the square of the right side.  Decided in integer pairs
    over one denominator (see the module docstring); ``variation_sides`` in
    ``tests/brute.py`` is the field-arithmetic reference for it."""
    f = identity.field_radicand()
    sn, sd = identity.scale.as_integer_ratio()
    n0, n1, D0, D1 = sn, 0, 1, 0  # num and D as pairs
    for v in identity.radicand_entries:
        if v.d:
            a, b, c = _clear_pair(v.p, v.q)
            w0, w1 = a * a + b * b * f - c * c, 2 * a * b
            n0, n1 = n0 * w0 + n1 * w1 * f, n0 * w1 + n1 * w0
            D0, D1 = D0 * a + D1 * b * f, D0 * b + D1 * a
        else:
            a, c = v.p.as_integer_ratio()
            w = a * a - c * c
            n0, n1, D0, D1 = n0 * w, n1 * w, D0 * a, D1 * a
    r0, r1, d0, d1 = 1, 0, 1, 0  # rn and rd as pairs
    for v, s in identity.rhs_entries:
        if v.d:
            a, b, c = _clear_pair(v.p, v.q)
            w = a + s * c
            r0, r1 = r0 * w + r1 * b * f, r0 * b + r1 * w
            d0, d1 = d0 * a + d1 * b * f, d0 * b + d1 * a
        else:
            a, c = v.p.as_integer_ratio()
            w = a + s * c
            r0, r1, d0, d1 = r0 * w, r1 * w, d0 * a, d1 * a
    lhs = _times((n0, n1), _times((d0, d1), (d0, d1), f), f)
    rn_d = _times((r0, r1), (D0, D1), f)
    rhs = _times(rn_d, rn_d, f)
    return lhs == (sd * rhs[0], sd * rhs[1]) and _sign(r0, r1, f) >= 0


def verify(identity: IdentityTuple | VariationIdentity) -> bool:
    """``verify_tuple`` or ``verify_variation``, by type; anything else is
    rejected."""
    if isinstance(identity, IdentityTuple):
        return verify_tuple(identity)
    if isinstance(identity, VariationIdentity):
        return verify_variation(identity)
    raise PreconditionError(
        f"not an identity: {type(identity).__name__} {identity!r}"
    )
