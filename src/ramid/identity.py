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
the square of the right side, exactly.  ``radicand()`` and ``rhs_product()``
stay as the exact values of both sides, the references the property tests
compare the integer checks against.

A variation is stored in canonical form, so equal identities compare and
serialize equal: each entry is a positive surd (|v| for a radicand entry v,
which enters as v^2, and (-w, -s) for a right-side pair (w, s) with w < 0, as
1 + s/w = 1 + (-s)/(-w)); 0 and +-1 are rejected; both lists ascend, "+" first.
The signs and the order are decided on each entry cleared once to
v = (a + b sqrt(f))/c with integers a, b and c > 0: v is 0 or 1 when b = 0
and a is 0 or c, and as c1 c2 > 0, v1 < v2 exactly when
(a1 c2 - a2 c1) + (b1 c2 - b2 c1) sqrt(f) < 0.  A negative entry is flipped
on those integers, and each canonical entry is built once as a ``Surd``
(a ``Surd`` entry that needs no flip is kept as it is).

A tuple (t, A, x, y, z) is the variation with scale t, radicand entries
A, x, y, z and right side (x, +), (y, +), (z, +).  Its entries are rationals
outside {0, +-1}, so its canonical form is plain order: the radicand is
|A|, |x|, |y|, |z| ascending, and the right side is (|v|, sign v) for v in
x, y, z, by value with "+" first.  With v = n/d and L the common denominator,
that is the order of the integers |n| (L/d).  ``VariationIdentity.from_tuple``
builds this form directly; every other variation goes through the general
canonicalization above.

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
The identity holds exactly when num rd^2 = sd (rn D)^2 and rn >= 0.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cmp_to_key
from math import lcm
from typing import Iterable

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


# The "class" member of a tuple's JSON line, by tag (None for no tag).
_JSON_TAG = {None: "", **{c: f', "class": "{c.value}"' for c in Classification}}


def _check_nontrivial(name: str, value: Fraction) -> None:
    if value.numerator in (0, 1, -1) and value.denominator == 1:
        raise TrivialInputError(f"{name} must not be 0, 1 or -1 (got {value})")


@dataclass(frozen=True, order=True)
class IdentityTuple:
    t: Fraction
    A: Fraction
    x: Fraction
    y: Fraction
    z: Fraction

    def __post_init__(self) -> None:
        # ints become Fractions (1/x of an int is a float); floats are rejected
        t, A, x, y, z = self.t, self.A, self.x, self.y, self.z
        if not (type(t) is type(A) is type(x) is type(y) is type(z) is Fraction):
            for name in ("t", "A", "x", "y", "z"):
                object.__setattr__(self, name, as_rational(name, getattr(self, name)))
            t, A, x, y, z = self.t, self.A, self.x, self.y, self.z
        if t == 0:
            raise TrivialInputError("t must be nonzero")
        _check_nontrivial("A", A)
        _check_nontrivial("x", x)
        _check_nontrivial("y", y)
        _check_nontrivial("z", z)

    def radicand(self) -> Fraction:
        r = self.t
        for v in (self.A, self.x, self.y, self.z):
            r *= 1 - 1 / (v * v)
        return r

    def rhs_product(self) -> Fraction:
        s = _ONE
        for v in (self.x, self.y, self.z):
            s *= 1 + 1 / v
        return s

    def to_json_dict(self, classification: Classification | None = None) -> dict:
        d = {
            "t": str(self.t),
            "A": str(self.A),
            "x": str(self.x),
            "y": str(self.y),
            "z": str(self.z),
        }
        if classification is not None:
            d["class"] = classification.value
        return d

    def to_json(self, classification: Classification | None = None) -> str:
        # json.dumps(self.to_json_dict(classification)), byte for byte: a
        # Fraction prints as digits, "-" and "/", and the tags are plain ASCII.
        # str() skips format()'s dispatch, and the tag text is looked up.
        return (
            f'{{"t": "{str(self.t)}", "A": "{str(self.A)}", "x": "{str(self.x)}", '
            f'"y": "{str(self.y)}", "z": "{str(self.z)}"{_JSON_TAG[classification]}}}'
        )

    @classmethod
    def _of_checked(
        cls, t: Fraction, A: Fraction, x: Fraction, y: Fraction, z: Fraction
    ) -> "IdentityTuple":
        """A tuple from five ``Fraction``s, unchecked: the caller has made
        sure that t is nonzero and no other entry is 0, 1 or -1."""
        self = object.__new__(cls)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)
        return self

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
    for v in (identity.x, identity.y, identity.z):
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
    values = (identity.t, identity.A, identity.x, identity.y, identity.z)
    if any(v.denominator != 1 for v in values):
        return Classification.NONTRIVIAL_RATIONAL
    return _integer_class(*(v.numerator for v in values))


def _integer_class(t: int, A: int, x: int, y: int, z: int) -> Classification:
    # classify's tag for an integer tuple that verifies.
    if min(t, A, x, y, z) < 2:
        return Classification.GENERAL
    x, y, z = sorted((x, y, z))
    if not t < A < x < y < z:
        return Classification.PERFECT
    if all(is_prime(v) for v in (A, x, y, z)):
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
        f = f or d  # a mix of fields is rejected by field_radicand
        a, b, c = _clear_pair(p, q)
        if _sign(a, b, d) < 0:  # q is 0 when b is, and -q would build a Fraction
            p, q, a, b, sign, value = -p, -q if b else q, -a, -b, -sign, None
        if b == 0 and a in (0, c):
            raise TrivialInputError(f"{what} must not be 0, 1 or -1: {p}")
        out.append((a, b, c, sign, Surd._field(p, q, d) if value is None else value))

    def order(x: tuple, y: tuple) -> int:
        (a1, b1, c1, s1, _), (a2, b2, c2, s2, _) = x, y
        return _sign(a1 * c2 - a2 * c1, b1 * c2 - b2 * c1, f) or s2 - s1

    out.sort(key=cmp_to_key(order))
    return [(value, sign) for _, _, _, sign, value in out]


@dataclass(frozen=True)
class VariationIdentity:
    scale: Fraction = field(default=_ONE)
    radicand_entries: tuple[Surd, ...] = ()
    rhs_entries: tuple[tuple[Surd, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale", as_rational("scale", self.scale))
        if self.scale == 0:
            raise TrivialInputError("scale must be nonzero")
        radicand = _canonical(((v, 1) for v in self.radicand_entries), "radicand entry")
        object.__setattr__(self, "radicand_entries", tuple([v for v, _ in radicand]))
        rhs = _canonical(self.rhs_entries, "rhs value")
        object.__setattr__(self, "rhs_entries", tuple(rhs))
        self.field_radicand()  # rejects mixed fields eagerly

    def field_radicand(self) -> int:
        """The common squarefree d of all entries (0 if everything is rational)."""
        d = 0
        for v in (*self.radicand_entries, *(v for v, _ in self.rhs_entries)):
            if v.d and d and v.d != d:
                raise IncompatibleFieldError(f"entries mix sqrt({d}) and sqrt({v.d})")
            d = d or v.d
        return d

    def radicand(self) -> Surd:
        r = Surd(self.scale)
        for v in self.radicand_entries:
            r = r * (Surd(1) - (v * v).inverse())
        return r

    def rhs_product(self) -> Surd:
        s = Surd(1)
        for value, sign in self.rhs_entries:
            s = s * (Surd(1) + sign * value.inverse())
        return s

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
        """``cls(t, (A, x, y, z), ((x, 1), (y, 1), (z, 1)))``, built directly.

        Every entry of a tuple is a rational outside {0, 1, -1}, so no entry
        is rejected, the field is Q, and the flip of a negative v gives |v| on
        the radicand and (|v|, -1) on the right side.  With v = n/d (d > 0) and
        L the lcm of the denominators, |v| < |w| exactly when
        |n| (L/d) < |m| (L/e) for w = m/e, so both lists sort by those
        integers, "+" before "-" among equal values on the right side.  One
        ``Surd`` per distinct |v| serves both lists.
        """
        values = (identity.A, identity.x, identity.y, identity.z)
        ratios = [v.as_integer_ratio() for v in values]
        L = lcm(*[d for _, d in ratios])
        surds: dict[int, Surd] = {}
        keys = []  # per entry, (|v| L, -sign of v)
        for v, (n, d) in zip(values, ratios):
            key = abs(n) * (L // d)
            if key not in surds:
                surds[key] = Surd._field(v if n > 0 else -v, _ZERO, 0)
            keys.append((key, -1 if n > 0 else 1))
        radicand = tuple([surds[key] for key, _ in sorted(keys)])
        rhs = tuple([(surds[key], -m) for key, m in sorted(keys[1:])])
        self = object.__new__(cls)  # the fields are canonical: no __post_init__
        object.__setattr__(self, "scale", identity.t)
        object.__setattr__(self, "radicand_entries", radicand)
        object.__setattr__(self, "rhs_entries", rhs)
        return self


def _times(x: tuple[int, int], y: tuple[int, int], f: int) -> tuple[int, int]:
    # (x0 + x1 sqrt(f)) (y0 + y1 sqrt(f)) as an integer pair.
    return x[0] * y[0] + x[1] * y[1] * f, x[0] * y[1] + x[1] * y[0]


def verify_variation(identity: VariationIdentity) -> bool:
    """Exact truth of the identity: radicand and right side nonnegative,
    radicand equal to the square of the right side.  Decided in integer pairs
    over one denominator (see the module docstring); ``radicand()`` and
    ``rhs_product()`` are the ``Surd`` reference for it."""
    f = identity.field_radicand()
    sn, sd = identity.scale.as_integer_ratio()
    num, D = (sn, 0), (1, 0)
    for v in identity.radicand_entries:
        a, b, c = _clear_pair(v.p, v.q)
        num = _times(num, (a * a + b * b * f - c * c, 2 * a * b), f)
        D = _times(D, (a, b), f)
    rn, rd = (1, 0), (1, 0)
    for v, s in identity.rhs_entries:
        a, b, c = _clear_pair(v.p, v.q)
        rn = _times(rn, (a + s * c, b), f)
        rd = _times(rd, (a, b), f)
    lhs = _times(num, _times(rd, rd, f), f)
    rn_d = _times(rn, D, f)
    rhs = _times(rn_d, rn_d, f)
    return lhs == (sd * rhs[0], sd * rhs[1]) and _sign(*rn, f) >= 0


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
