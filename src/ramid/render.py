"""LaTeX and plain-text display forms for identities.

One display equation per identity: the radicand factors in the canonical order
of ``VariationIdentity`` (the tuple (2, 5, 4, 15, 251) shows 4 before 5) under
a single square root, the signed product on the right.  Values render as
integers, \\frac for non-integer rationals, and p + q\\sqrt{d} for surds;
negative right-side values always display as subtraction, e.g. (1 - 1/45).
In plain text every value but an integer is parenthesized, (1 - 1/(5/2)^2),
so the line evaluates as written.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError
from .exact import Surd
from .identity import IdentityTuple, VariationIdentity, verify


def _latex_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    sign = "-" if value < 0 else ""
    return rf"{sign}\frac{{{abs(value.numerator)}}}{{{value.denominator}}}"


def _latex_surd(value: Surd) -> str:
    if value.is_rational:
        return _latex_rational(value.p)
    root = rf"\sqrt{{{value.d}}}"
    q = abs(value.q)
    coeff = "" if q == 1 else _latex_rational(q)
    tail = f"{coeff}{root}"
    if value.p == 0:  # every entry rendered is canonical, so positive: q > 0
        return tail
    op = "+" if value.q > 0 else "-"
    return f"{_latex_rational(value.p)}{op}{tail}"


def _latex_squared_denominator(value: Surd) -> str:
    # (1 - 1/v^2) denominators: integers square bare, everything else in parens.
    if value.is_rational and value.p.denominator == 1:
        return f"{value.p.numerator}^2"
    return rf"\left({_latex_surd(value)}\right)^2"


def _latex_radicand_factor(value: Surd) -> str:
    return rf"\left(1-\frac{{1}}{{{_latex_squared_denominator(value)}}}\right)"


def _latex_rhs_factor(value: Surd, sign: int) -> str:
    op = "+" if sign > 0 else "-"
    return rf"\left(1{op}\frac{{1}}{{{_latex_surd(value)}}}\right)"


def _text_value(value: Surd) -> str:
    # Integers print bare; fractions and surds in parentheses, so that
    # 1/v and v^2 read as written.
    if value.is_rational and value.p.denominator == 1:
        return str(value.p)
    return f"({value})"


def _checked_variation(
    identity: IdentityTuple | VariationIdentity, unchecked: bool
) -> VariationIdentity:
    if not unchecked and not verify(identity):
        raise PreconditionError(
            "identity does not verify; pass unchecked to render anyway"
        )
    if isinstance(identity, IdentityTuple):
        return VariationIdentity.from_tuple(identity)
    if not isinstance(identity, VariationIdentity):  # verify rejects it unless unchecked
        raise PreconditionError(f"not an identity: {type(identity).__name__} {identity!r}")
    return identity


def render_latex(
    identity: IdentityTuple | VariationIdentity, unchecked: bool = False
) -> str:
    variation = _checked_variation(identity, unchecked)
    scale = "" if variation.scale == 1 else _latex_rational(variation.scale)
    radicand = scale + "".join(
        _latex_radicand_factor(v) for v in variation.radicand_entries
    )
    rhs = "".join(_latex_rhs_factor(v, s) for v, s in variation.rhs_entries)
    return rf"\sqrt{{{radicand}}} = {rhs}"


def render_text(
    identity: IdentityTuple | VariationIdentity, unchecked: bool = False
) -> str:
    variation = _checked_variation(identity, unchecked)
    factors = [f"(1 - 1/{_text_value(v)}^2)" for v in variation.radicand_entries]
    if variation.scale != 1:
        factors.insert(0, str(variation.scale))
    rhs = " * ".join(
        f"(1 {'+' if s > 0 else '-'} 1/{_text_value(v)})"
        for v, s in variation.rhs_entries
    )
    return f"sqrt({' * '.join(factors)}) = {rhs}"
