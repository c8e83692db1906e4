"""LaTeX and plain-text display forms for identities.

One display equation per identity: the radicand factors in the canonical order
of ``VariationIdentity`` (the tuple (2, 5, 4, 15, 251) shows 4 before 5) under
a single square root, the signed product on the right.  Values render as
integers, \\frac for non-integer rationals, and p + q\\sqrt{d} for surds;
negative right-side values always display as subtraction, e.g. (1 - 1/45).
In plain text every value but an integer is parenthesized, (1 - 1/(5/2)^2),
so the line evaluates as written.  A side with no factor (scale 1 and no
radicand entry, or no right-side entry) is the empty product and prints as 1.

Every rational value (the scale, each tuple entry and each variation entry
with d = 0) is formatted from its integers (n, d), d > 0; only an irrational
value is formatted from its ``Surd``.  A tuple (t, A, x, y, z) shows as the
variation ``VariationIdentity.from_tuple`` builds, ordered here in integers
without building it.  Its entries are rationals outside {0, +-1}, so the
canonical form only flips a negative v, to |v| on the radicand and (|v|, -)
on the right side, and sorts.  With v = n/d and L the lcm of the
denominators, |v| < |w| exactly when |n| (L/d) < |m| (L/e) for w = m/e.  So
the radicand is |A|, |x|, |y|, |z| ascending by those integers, and the right
side (|v|, sign v) for v in x, y, z is in the same order, "+" first on ties.
"""

from __future__ import annotations

from math import lcm

from .errors import PreconditionError
from .exact import Surd
from .identity import IdentityTuple, VariationIdentity, verify


def _display(
    identity: IdentityTuple | VariationIdentity, unchecked: bool
) -> tuple[tuple[int, int], list, list]:
    # The scale as (n, d), the radicand values and the right-side (value,
    # sign) pairs in canonical order; a value is (n, d) or an irrational Surd.
    if not unchecked and not verify(identity):
        raise PreconditionError(
            "identity does not verify; pass unchecked to render anyway"
        )
    if isinstance(identity, IdentityTuple):
        ratios = [v.as_integer_ratio() for v in identity[1:]]
        L = lcm(*[d for _, d in ratios])
        keyed = [(abs(n) * (L // d), n < 0, (abs(n), d)) for n, d in ratios]
        radicand = [v for _, _, v in sorted(keyed)]
        rhs = [(v, -1 if flipped else 1) for _, flipped, v in sorted(keyed[1:])]
        return identity.t.as_integer_ratio(), radicand, rhs
    if not isinstance(identity, VariationIdentity):  # verify rejects it unless unchecked
        raise PreconditionError(f"not an identity: {type(identity).__name__} {identity!r}")
    radicand = [v if v.d else v.p.as_integer_ratio() for v in identity.radicand_entries]
    rhs = [(v if v.d else v.p.as_integer_ratio(), s) for v, s in identity.rhs_entries]
    return identity.scale.as_integer_ratio(), radicand, rhs


def _latex_rational(n: int, d: int) -> str:
    if d == 1:
        return str(n)
    return rf"{'-' if n < 0 else ''}\frac{{{abs(n)}}}{{{d}}}"


def _latex_value(value: tuple[int, int] | Surd) -> str:
    if type(value) is tuple:
        return _latex_rational(*value)
    (pn, pd), (qn, qd) = value.p.as_integer_ratio(), value.q.as_integer_ratio()
    root = rf"\sqrt{{{value.d}}}"
    tail = root if abs(qn) == qd == 1 else f"{_latex_rational(abs(qn), qd)}{root}"
    if not pn:  # every entry rendered is canonical, so positive: q > 0
        return tail
    return f"{_latex_rational(pn, pd)}{'+' if qn > 0 else '-'}{tail}"


def _latex_radicand_factor(value: tuple[int, int] | Surd) -> str:
    # (1 - 1/v^2) denominators: integers square bare, everything else in parens.
    if type(value) is tuple and value[1] == 1:
        square = f"{value[0]}^2"
    else:
        square = rf"\left({_latex_value(value)}\right)^2"
    return rf"\left(1-\frac{{1}}{{{square}}}\right)"


def _text_rational(n: int, d: int) -> str:
    return str(n) if d == 1 else f"{n}/{d}"


def _text_value(value: tuple[int, int] | Surd) -> str:
    # Integers print bare; fractions and surds in parentheses, so that
    # 1/v and v^2 read as written.
    if type(value) is not tuple:
        return f"({value})"
    return str(value[0]) if value[1] == 1 else f"({_text_rational(*value)})"


def render_latex(
    identity: IdentityTuple | VariationIdentity, unchecked: bool = False
) -> str:
    scale, radicand, rhs = _display(identity, unchecked)
    radicand = ("" if scale == (1, 1) else _latex_rational(*scale)) + "".join(
        map(_latex_radicand_factor, radicand)
    ) or "1"
    rhs = "".join(
        rf"\left(1{'+' if s > 0 else '-'}\frac{{1}}{{{_latex_value(v)}}}\right)"
        for v, s in rhs
    ) or "1"
    return rf"\sqrt{{{radicand}}} = {rhs}"


def render_text(
    identity: IdentityTuple | VariationIdentity, unchecked: bool = False
) -> str:
    scale, radicand, rhs = _display(identity, unchecked)
    factors = [f"(1 - 1/{_text_value(v)}^2)" for v in radicand]
    if scale != (1, 1):
        factors.insert(0, _text_rational(*scale))
    rhs = " * ".join(
        f"(1 {'+' if s > 0 else '-'} 1/{_text_value(v)})" for v, s in rhs
    ) or "1"
    return f"sqrt({' * '.join(factors) or '1'}) = {rhs}"
