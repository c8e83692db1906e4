"""Exact scalars: arbitrary-precision rationals and real quadratic surds.

Rationals are ``fractions.Fraction`` (always reduced, positive denominator),
which already carries the invariants and the ``p/q`` string format required
here.  ``Surd`` represents ``p + q*sqrt(d)`` with rational ``p``, ``q`` and a
squarefree integer radicand ``d``, so equality and hashing are structural.
Immutable: the fields are set once, through the slot descriptors, when a
``Surd`` is built.
A radicand n is written f*s*s, f squarefree, by ``squarefree_decompose``:
gcd(n, P), P the product of the primes below 4096, holds its small primes,
Miller-Rabin with the fewest exact bases and Pollard rho find the rest, and
a cofactor past 1,000 bits is refused, so no input factors for minutes.  A
gcd chain puts each prime in f when its exponent is odd and in s once per
pair.  Its results are cached, because every surd literal of a record
repeats its field's radicand.
The literal grammars of ``parse_rational`` and ``parse_surd`` are ASCII only.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from fractions import Fraction
from functools import cache
from itertools import compress
from math import gcd, isqrt, lcm, prod

from .errors import FactoringLimitError, PreconditionError

_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?", re.ASCII)
_SURD_RE = re.compile(
    r"(?P<p>[+-]?\d+(?:/\d+)?)\s*(?P<sign>[+-])\s*"
    r"(?P<q>\d+(?:/\d+)?)\*sqrt\((?P<d>\d+)\)",
    re.ASCII,
)

_ZERO = Fraction(0)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# (psi_k, k): below psi_k, the least strong pseudoprime to the first k prime
# bases, those k bases decide primality exactly (psi_8 = psi_7).
_MILLER_RABIN_BOUNDS = (
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
)
_PSI_13 = 3317044064679887385961981
# Pollard rho's step bound over all restarts.  Test and benchmark radicands
# need at most 1,680 steps, 13-digit semiprimes up to about 4,000.
_RHO_STEPS = 1 << 16
# The largest cofactor, in bits, that squarefree_decompose hands to is_prime
# and Pollard rho.  Rho's steps cost more as n grows: an unfactorable
# 999-bit semiprime takes about 1.7 s, a 13,284-bit radicand took minutes.
_COFACTOR_BITS = 1000
# Distinct radicands whose decomposition is kept: a record repeats its field's
# radicand in each surd literal, and a family member repeats it again.
_DECOMPOSE_CACHE = 64


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
    the first k prime bases: 2 to 7 below psi_4 = 3,215,031,751; 2 to 11
    below psi_5 (about 2.2e12); 2 to 13 below psi_6 (about 3.5e12); 2 to 17
    below psi_7 = psi_8 (about 3.4e14); 2 to 23 below psi_9 =
    3,825,123,056,546,413,051; 2 to 37 below psi_12 (about 3.2e23), and 41
    too below psi_13 (about 3.3e24).  So the 10- to 15-digit cofactors of
    13-digit radicands take 5 to 7 bases, not 9.  psi_4 to psi_8 and the
    value of psi_9 are from Jaeschke, "On strong pseudoprimes to several
    bases" (Math. Comp. 61, 1993); psi_12 and psi_13, and psi_9 as the
    least, are from Sorenson and Webster, "Strong pseudoprimes to twelve
    prime bases" (2015; Math. Comp. 86, 2017).  From psi_13 on a strong
    Lucas test follows, which makes it Baillie-PSW, a test with no known
    counterexample.  ``n`` must be an int."""
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
    for bound, k in _MILLER_RABIN_BOUNDS:
        if n < bound:
            bases = _SMALL_PRIMES[:k]
            break
    else:
        bases = _SMALL_PRIMES + (41,)
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


@cache
def _trial_product() -> int:
    # The product of the trial primes, 5,811 bits.
    return prod(_trial_primes())


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write ``n = s*s*f`` with ``f`` squarefree; return ``(f, s)``.

    ``n`` must be a nonnegative int; ``squarefree_decompose(0) == (0, 1)``.
    Its primes below 4096 are those of g = ``gcd(n, P)``, P their product.
    A chain of passes splits off their part: pass k divides n by g, the
    primes of exponent >= k, puts g into f if k is odd and moves it from f
    into s if k is even, then sets g = gcd(n, g).  So a prime ends in f when
    its exponent is odd and in s once per pair.  The cofactor left has no
    prime factor below 4096; a square is read off by ``isqrt``, anything
    else is factored by Pollard rho and split by the same chain.
    ``FactoringLimitError`` if a cofactor that is not a square has more than
    1,000 bits (its factoring could take minutes), checked before any prime
    test, or if rho runs out of steps on it.  The last 64 distinct results
    are cached, so a radicand repeated within a record or a family member is
    factored once; an error is not cached, and only ints reach the cache.
    A result (f, s) with s > 1 also caches (f, 1): a field built from n is
    the field of f, and its surd literals carry f.
    """
    if require_int("n", n) < 0:
        raise ValueError("radicand must be nonnegative")
    return _squarefree(n)


_decomposed: OrderedDict[int, tuple[int, int]] = OrderedDict()  # least recently used first


def _squarefree(n: int) -> tuple[int, int]:
    # _decompose through the cache of squarefree_decompose's docstring.  Each
    # step is one call on the OrderedDict, so threads can at worst reorder it.
    result = _decomposed.pop(n, None)
    if result is None:
        result = _decompose(n)
        if result[1] > 1:
            _decomposed[result[0]] = result[0], 1
    _decomposed[n] = result
    while len(_decomposed) > _DECOMPOSE_CACHE:
        _decomposed.popitem(last=False)
    return result


_squarefree.cache_clear = _decomposed.clear


def _decompose(n: int) -> tuple[int, int]:
    if n in (0, 1):  # gcd(0, g) = g: the chain of _split would not end
        return n, 1
    n, f, s = _split(n, gcd(n, _trial_product()))
    if n > 1:
        r = isqrt(n)
        if r * r == n:
            s *= r
        elif n.bit_length() > _COFACTOR_BITS:
            raise FactoringLimitError(
                f"cannot factor a {n.bit_length()}-bit number: the limit is {_COFACTOR_BITS} bits"
            )
        else:
            exponents: dict[int, int] = {}
            _factor(n, exponents)
            _, cofactor_f, cofactor_s = _split(n, prod(exponents))
            f, s = f * cofactor_f, s * cofactor_s
    return f, s


def _split(n: int, g: int) -> tuple[int, int, int]:
    # (n/m, f, s), m = f*s*s the part of n over the primes of g, distinct
    # primes that all divide n: the chain of squarefree_decompose's docstring.
    f = s = 1
    odd = True
    while g > 1:
        n //= g
        if odd:
            f *= g
        else:
            f //= g
            s *= g
        odd = not odd
        g = gcd(n, g)
    return n, f, s


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


class Surd:
    """Immutable element ``p + q*sqrt(d)`` of a real quadratic field.

    A value type: it is built, compared, hashed and printed, and the exact
    checks read its fields as integers; it has no arithmetic and no order.
    ``d`` is kept squarefree (square parts are folded into ``q``), ``q = 0``
    forces ``d = 0``, and pure rationals embed as ``d = 0``, so a ``Surd``
    with q = 0 equals and hashes as its int or ``Fraction``.  The constructor
    normalizes.  ``p`` and ``q`` are ints or ``Fraction``s, ``d`` an int;
    floats are rejected.
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

    def __reduce__(self) -> tuple:
        # pickle and copy rebuild through the constructor, not by setting slots
        return Surd, (self.p, self.q, self.d)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Surd):
            return (self.p, self.q, self.d) == (other.p, other.q, other.d)
        if isinstance(other, (int, Fraction)):
            return self.q == 0 and self.p == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.q == 0:
            return hash(self.p)
        return hash((self.p, self.q, self.d))

    def __bool__(self) -> bool:
        return self.p != 0 or self.q != 0

    def __str__(self) -> str:
        if not self.d:
            return str(self.p)
        n, d = self.q.as_integer_ratio()
        q = abs(n) if d == 1 else f"{abs(n)}/{d}"
        return f"{self.p} {'-' if n < 0 else '+'} {q}*sqrt({self.d})"

    def __repr__(self) -> str:
        return f"Surd({self.p!r}, {self.q!r}, {self.d})"


# The slot setters, which skip the __setattr__ that makes a Surd immutable.
_set_p, _set_q, _set_d = Surd.p.__set__, Surd.q.__set__, Surd.d.__set__


def parse_surd(text: str) -> Surd:
    """Inverse of ``str(Surd)``; also accepts a bare rational literal."""
    if not isinstance(text, str):
        raise ValueError(f"not a surd literal: {text!r}")
    text = text.strip()
    if m := _RATIONAL_RE.fullmatch(text):  # built as parse_rational builds it
        num, den = m.groups()
        try:
            p = Fraction(int(num), int(den)) if den else Fraction(int(num))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {text!r}") from None
        return Surd._field(p, _ZERO, 0)
    m = _SURD_RE.fullmatch(text)
    if not m:
        raise ValueError(f"not a surd literal: {text!r}")
    q = parse_rational(m.group("q"))
    if m.group("sign") == "-":
        q = -q
    return Surd(parse_rational(m.group("p")), q, int(m.group("d")))
