"""Exact scalar arithmetic: arbitrary-precision rationals and real quadratic surds.

Rationals are ``fractions.Fraction`` (always reduced, positive denominator),
which already carries the invariants and the ``p/q`` string format required
here.  ``Surd`` represents ``p + q*sqrt(d)`` with rational ``p``, ``q`` and a
squarefree integer radicand ``d``, so equality and hashing are structural;
arithmetic results keep their operands' normalized field.  Immutable: the
fields are set once, through the slot descriptors, when a ``Surd`` is built.
The literal grammars of ``parse_rational`` and ``parse_surd`` are ASCII only.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache, total_ordering
from itertools import compress
from math import gcd, isqrt, lcm

from .errors import FactoringLimitError, IncompatibleFieldError, PreconditionError

_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?", re.ASCII)
_SURD_RE = re.compile(
    r"(?P<p>[+-]?\d+(?:/\d+)?)\s*(?P<sign>[+-])\s*"
    r"(?P<q>\d+(?:/\d+)?)\*sqrt\((?P<d>\d+)\)",
    re.ASCII,
)

_ZERO = Fraction(0)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI_4 = 3215031751
_PSI_9 = 3825123056546413051
_PSI_12 = 318665857834031151167461
_PSI_13 = 3317044064679887385961981
# Pollard rho's step bound over all restarts.  Test and benchmark radicands
# need at most 1,680 steps, 13-digit semiprimes up to about 4,000.
_RHO_STEPS = 1 << 16


def parse_rational(text: str) -> Fraction:
    """Parse the strict ``p/q`` / ``p`` grammar (ASCII digits, no floats, no
    whitespace); a zero denominator is a ``ValueError`` too."""
    m = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num, den = m.groups()
    try:
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def as_rational(name: str, value: int | Fraction) -> Fraction:
    """``value`` as a ``Fraction``: ints are converted, anything else (floats
    included) is rejected, so exact entry points never compute in floats."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise PreconditionError(
        f"{name} must be an int or a Fraction (got {type(value).__name__} {value!r})"
    )


def require_int(name: str, value: int) -> int:
    """``value`` if it is an int; anything else (floats included) is rejected."""
    if type(value) is not int:
        raise PreconditionError(
            f"{name} must be an int (got {type(value).__name__} {value!r})"
        )
    return value


def is_prime(n: int) -> bool:
    """Exact primality.  After trial division by the primes up to 37, an n
    below 41^2 = 1681 is prime.  Otherwise Miller-Rabin runs the fewest prime
    bases that are exact for n, psi_k being the least strong pseudoprime to
    the first k prime bases: 2, 3, 5 and 7 below psi_4 = 3,215,031,751; 2 to
    23 below psi_9 = 3,825,123,056,546,413,051; 2 to 37 below psi_12 (about
    3.2e23), and 41 too below psi_13 (about 3.3e24).  psi_4 and the value of
    psi_9 are from Jaeschke, "On strong pseudoprimes to several bases"
    (Math. Comp. 61, 1993); psi_12 and psi_13, and psi_9 as the least, are
    from Sorenson and Webster, "Strong pseudoprimes to twelve prime bases"
    (2015; Math. Comp. 86, 2017).  From psi_13 on a strong Lucas test
    follows, which makes it Baillie-PSW, a test with no known counterexample.
    ``n`` must be an int."""
    if require_int("n", n) < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 1681:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < _PSI_4:
        bases = _SMALL_PRIMES[:4]
    elif n < _PSI_9:
        bases = _SMALL_PRIMES[:9]
    else:
        bases = _SMALL_PRIMES if n < _PSI_12 else _SMALL_PRIMES + (41,)
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_13 or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    # Jacobi symbol (a/n) for odd n > 0.
    a, result = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    # Selfridge's parameters: D the first of 5, -7, 9, ... with (D/n) = -1
    # (none exists for a square), P = 1 and Q = (1 - D)/4.  n is odd.
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) == 1:
        D = -D - 2 if D > 0 else 2 - D
    if j == 0:
        return False
    Q, d, s = (1 - D) // 4, n + 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    U, V, Qk = 1, 1, Q % n  # U_k, V_k, Q^k at k = 1, then k runs up d's bits
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = U + V, D * U + V, Qk * Q % n  # 2 U_{k+1}, 2 V_{k+1}
            U, V = (U + n * (U % 2)) // 2 % n, (V + n * (V % 2)) // 2 % n
    if U == 0:
        return True
    for _ in range(s):
        if V == 0:
            return True
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return False


def _pollard_rho(n: int) -> int:
    # Floyd's tortoise and hare on x -> x^2 + c; n must be odd, composite, > 1.
    steps = _RHO_STEPS
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1 and steps:
            steps -= 1
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if 1 < d < n:
            return d
    raise FactoringLimitError(f"cannot factor a {n.bit_length()}-bit number in {_RHO_STEPS} steps")


def _factor(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _pollard_rho(n)
    _factor(d, out)
    _factor(n // d, out)


@cache
def _trial_primes() -> tuple[int, ...]:
    # The 564 primes below 4096, sieved on first use instead of at import.
    n = 4096
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return tuple(compress(range(n), sieve))


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write ``n = s*s*f`` with ``f`` squarefree; return ``(f, s)``.

    ``n`` must be a nonnegative int; ``squarefree_decompose(0) == (0, 1)``.
    ``FactoringLimitError`` if Pollard rho runs out of steps on a cofactor.
    """
    if require_int("n", n) < 0:
        raise ValueError("radicand must be nonnegative")
    if n in (0, 1):
        return n, 1
    f, s = 1, 1
    # Composites never divide what is left: their prime factors are out by then.
    for p in _trial_primes():
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
        else:
            exponents: dict[int, int] = {}
            _factor(n, exponents)
            for p, e in exponents.items():
                s *= p ** (e // 2)
                if e % 2:
                    f *= p
    return f, s


def _clear_pair(p: int | Fraction, q: int | Fraction) -> tuple[int, int, int]:
    # p + q sqrt(d) = (a + b sqrt(d))/c with integers a, b and c > 0 the lcm of the denominators.
    (pn, pd), (qn, qd) = p.as_integer_ratio(), q.as_integer_ratio()
    c = lcm(pd, qd)
    return pn * (c // pd), qn * (c // qd), c


def _sign(a: int | Fraction, b: int | Fraction, d: int) -> int:
    """Exact sign of ``a + b*sqrt(d)`` for rationals a, b and a squarefree
    d > 1 (or b = 0).  When a and b differ in sign, a*a against b*b*d
    decides; the two are never equal, because sqrt(d) is irrational."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa == sb or not sb:
        return sa
    if not sa:
        return sb
    return sa if a * a > b * b * d else -sa


@total_ordering
class Surd:
    """Immutable element ``p + q*sqrt(d)`` of a real quadratic field.

    ``d`` is kept squarefree (square parts are folded into ``q``), ``q = 0``
    forces ``d = 0``, and pure rationals embed as ``d = 0``.  The constructor
    normalizes; arithmetic results keep the operands' normalized field, and
    int or ``Fraction`` operands embed without normalizing.  ``<`` takes the
    exact sign of the difference without building it.  ``p`` and ``q`` are
    ints or ``Fraction``s, ``d`` an int; floats are rejected.
    """

    __slots__ = ("p", "q", "d")

    p: Fraction
    q: Fraction
    d: int

    def __init__(self, p: Fraction | int, q: Fraction | int = 0, d: int = 0):
        p, q, d = as_rational("p", p), as_rational("q", q), require_int("d", d)
        if d < 0:
            raise ValueError("only real quadratic fields: d must be nonnegative")
        if d == 0:
            q = _ZERO
        elif q == 0:
            d = 0
        else:
            f, s = squarefree_decompose(d)
            q *= s
            d = f
            if d == 1:
                p += q
                q = _ZERO
                d = 0
        _set_p(self, p)
        _set_q(self, q)
        _set_d(self, d)

    @classmethod
    def _field(cls, p: Fraction, q: Fraction, d: int) -> Surd:
        """``p + q*sqrt(d)`` for Fractions p, q and a squarefree (or 0) d."""
        self = object.__new__(cls)
        _set_p(self, p)
        _set_q(self, q)
        _set_d(self, d if not d or q else 0)
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Surd is immutable")

    @classmethod
    def sqrt_rational(cls, value: Fraction | int) -> Surd:
        """Exact ``sqrt(value)`` for a nonnegative rational, as a surd."""
        value = as_rational("value", value)
        if value < 0:
            raise ValueError("square root of a negative rational")
        # sqrt(a/b) = sqrt(a*b)/b
        return cls(0, Fraction(1, value.denominator),
                   value.numerator * value.denominator)

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def as_rational(self) -> Fraction:
        if self.q != 0:
            raise ValueError(f"{self} is irrational")
        return self.p

    def _coerce(self, other: object) -> Surd | None:
        # A rational operand embeds as d = 0; it needs no normalization.
        if isinstance(other, Surd):
            return other
        if isinstance(other, (int, Fraction)):
            return Surd._field(as_rational("operand", other), _ZERO, 0)
        return None

    def _common_d(self, other: Surd) -> int:
        if self.d and other.d and self.d != other.d:
            raise IncompatibleFieldError(
                f"cannot mix sqrt({self.d}) with sqrt({other.d})"
            )
        return self.d or other.d

    def __add__(self, other: object) -> Surd:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        d = self._common_d(rhs)
        return Surd._field(self.p + rhs.p, self.q + rhs.q, d)

    __radd__ = __add__

    def __neg__(self) -> Surd:
        return Surd._field(-self.p, -self.q, self.d)

    def __sub__(self, other: object) -> Surd:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> Surd:
        return (-self) + other

    def __mul__(self, other: object) -> Surd:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        d = self._common_d(rhs)
        return Surd._field(
            self.p * rhs.p + self.q * rhs.q * d,
            self.p * rhs.q + self.q * rhs.p,
            d,
        )

    __rmul__ = __mul__

    def conjugate(self) -> Surd:
        return Surd._field(self.p, -self.q, self.d)

    def norm(self) -> Fraction:
        """Field norm ``p*p - q*q*d`` (the product with the conjugate)."""
        return self.p * self.p - self.q * self.q * self.d

    def inverse(self) -> Surd:
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError(f"{self} has no inverse")
        return Surd._field(self.p / n, -self.q / n, self.d)

    def __truediv__(self, other: object) -> Surd:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self * rhs.inverse()

    def __rtruediv__(self, other: object) -> Surd:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs * self.inverse()

    def sign(self) -> int:
        """Exact sign of ``p + q*sqrt(d)``: compares p*p against q*q*d."""
        return _sign(self.p, self.q, self.d)

    def __eq__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return (self.p, self.q, self.d) == (rhs.p, rhs.q, rhs.d)

    def __hash__(self) -> int:
        if self.q == 0:
            return hash(self.p)
        return hash((self.p, self.q, self.d))

    def __lt__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if not (self.q or rhs.q):
            return self.p < rhs.p
        return _sign(self.p - rhs.p, self.q - rhs.q, self._common_d(rhs)) < 0

    def __bool__(self) -> bool:
        return self.p != 0 or self.q != 0

    def __float__(self) -> float:
        return float(self.p) + float(self.q) * self.d ** 0.5

    def __str__(self) -> str:
        if self.q == 0:
            return str(self.p)
        sign = "-" if self.q < 0 else "+"
        return f"{self.p} {sign} {abs(self.q)}*sqrt({self.d})"

    def __repr__(self) -> str:
        return f"Surd({self.p!r}, {self.q!r}, {self.d})"


# The slot setters, which skip the __setattr__ that makes a Surd immutable.
_set_p, _set_q, _set_d = Surd.p.__set__, Surd.q.__set__, Surd.d.__set__


def parse_surd(text: str) -> Surd:
    """Inverse of ``str(Surd)``; also accepts a bare rational literal."""
    if not isinstance(text, str):
        raise ValueError(f"not a surd literal: {text!r}")
    text = text.strip()
    if _RATIONAL_RE.fullmatch(text):
        return Surd._field(parse_rational(text), _ZERO, 0)
    m = _SURD_RE.fullmatch(text)
    if not m:
        raise ValueError(f"not a surd literal: {text!r}")
    q = parse_rational(m.group("q"))
    if m.group("sign") == "-":
        q = -q
    return Surd(parse_rational(m.group("p")), q, int(m.group("d")))
