"""The benchmark's workloads.

Each workload makes an endless stream of op inputs from a seed (``ops``), runs
one op against ramid's public functions (``run``), and checks that op's output
outside the timed region (``check``, which returns the number of verified
identities the op emitted and raises on a wrong output).  ``fingerprint``
condenses an output so two processes can compare the same op.

Functions are always reached through their module (``families.generate``),
so the traced run's rebinding of module attributes sees every call.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import random
from fractions import Fraction
from typing import Iterator

from ramid import enumeration, families, render
from ramid import identity as ident

import oracle
from oracle import CheckError


def _digest(*parts: str) -> str:
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()


def _checked_tuple(line: str) -> tuple[Fraction, ...]:
    """The values of a printed tuple line, once the oracle and the class tag agree."""
    record = json.loads(line)
    values = oracle.tuple_values(record)
    if not oracle.tuple_holds(values):
        raise CheckError(f"oracle rejects {line}")
    if record.get("class") != oracle.tuple_class(values):
        raise CheckError(f"wrong class tag: {line}")
    return values


class Enumerate:
    """What ``ramid enumerate`` does for both classes.

    Pure integer and Fraction work in ``enumeration`` and ``identity``: it
    never builds a surd and never touches ``construct``.  The job has no
    inputs, so every op is the same; the first op is checked against the
    known answers and every later op against the first.
    """

    SUPER_PERFECT = 39
    PERFECT = 309
    CANDIDATES = (100, 1527)

    def __init__(self) -> None:
        self._reference: str | None = None

    def ops(self, seed: int) -> Iterator[None]:
        return itertools.repeat(None)

    def run(self, op: None):
        out = io.StringIO()
        super_perfect = enumeration.enumerate_super_perfect()
        super_perfect.write_jsonl(out)
        perfect = enumeration.enumerate_perfect()
        perfect.write_jsonl(out)
        return super_perfect, perfect, out.getvalue()

    def fingerprint(self, output) -> str:
        super_perfect, perfect, text = output
        counts = (super_perfect.candidates_examined, perfect.candidates_examined)
        return _digest(text, repr(counts))

    def check(self, op: None, output) -> int:
        super_perfect, perfect, text = output
        key = self.fingerprint(output)
        if self._reference is None:
            self._check_known_answers(super_perfect, perfect, text)
            self._reference = key
        elif key != self._reference:
            raise CheckError("output differs from the first, fully checked op")
        return len(super_perfect.identities) + len(perfect.identities)

    def _check_known_answers(self, super_perfect, perfect, text: str) -> None:
        counts = (super_perfect.candidates_examined, perfect.candidates_examined)
        if counts != self.CANDIDATES:
            raise CheckError(f"candidates examined {counts} != {self.CANDIDATES}")
        if len(super_perfect.identities) != self.SUPER_PERFECT:
            raise CheckError(f"{len(super_perfect.identities)} super-perfect tuples")
        if set(super_perfect.identities) != enumeration.appendix_distinct():
            raise CheckError("super-perfect tuples differ from the appendix")
        if len(perfect.identities) != self.PERFECT:
            raise CheckError(f"{len(perfect.identities)} perfect tuples")
        lines = text.splitlines()
        found = super_perfect.identities + perfect.identities
        if len(lines) != len(found):
            raise CheckError("JSONL has the wrong number of lines")
        for line, identity in zip(lines, found):
            values = _checked_tuple(line)
            if values != (identity.t, identity.A, identity.x, identity.y, identity.z):
                raise CheckError(f"JSONL line does not match {identity}: {line}")


class Discover:
    """``discover(seed=s, trials=200, t=t)`` and the hits as ``ramid discover``
    prints them, with s from the workload seed and t alternating 2, 15/16.

    The only workload that runs ``construct``; its time goes mostly to
    ``squarefree_decompose`` on discriminants of surd roots it then discards.
    """

    TRIALS = 200
    T_VALUES = (Fraction(2), Fraction(15, 16))

    def ops(self, seed: int) -> Iterator[tuple[int, Fraction]]:
        rng = random.Random(seed)
        for i in itertools.count():
            yield rng.randrange(2**32), self.T_VALUES[i % 2]

    def run(self, op: tuple[int, Fraction]) -> list[str]:
        s, t = op
        hits = families.discover(seed=s, trials=self.TRIALS, t=t)
        return [hit.to_json(ident.classify(hit)) for hit in hits]

    def fingerprint(self, output: list[str]) -> str:
        return _digest(*output)

    def check(self, op: tuple[int, Fraction], output: list[str]) -> int:
        previous = None
        for line in output:
            values = _checked_tuple(line)
            t, A, x, y, z = values
            if t != op[1]:
                raise CheckError(f"hit has t = {t}, expected {op[1]}: {line}")
            if not (A > 0 and x <= y <= z):
                raise CheckError(f"hit is not normalized: {line}")
            if previous is not None and not previous < values:
                raise CheckError("hits are not sorted and distinct")
            previous = values
        return len(output)


class FamilyRender:
    """One identity per op: ``families.generate``, ``to_json``, ``from_json``,
    ``render_latex`` and ``render_text``.

    It parses and verifies rather than searches, and runs Surd arithmetic over
    fields with large radicands, where every normalization re-runs trial
    division.  Families come in a fixed cycle and surd sizes from shuffled
    decks of 3 to 13 digits, so every seed has the same mix.  The cheap tuple
    families make 3/5 of the ops, so the p50 lies inside their narrow band
    instead of on the jump to the costlier families; surds of 9 or more
    digits make 1/11 of the ops and set the p90.
    """

    CYCLE = ("rebak", "rebak-variant", "general-infinite", "long-identity", "surd-high",
             "rebak", "rebak-variant", "general-infinite", "long-identity", "surd-low")
    DIGITS = range(3, 14)

    def ops(self, seed: int) -> Iterator[tuple[str, dict]]:
        rng = random.Random(seed)
        decks = {name: self._deck(rng) for name in ("surd-high", "surd-low")}
        for name in itertools.cycle(self.CYCLE):
            if name in ("rebak", "rebak-variant"):
                params = {"a": Fraction(rng.choice((1, -1)) * rng.randint(2, 10**6))}
            elif name == "general-infinite":
                params = {"k": rng.choice((1, -1)) * rng.randint(2, 10**4)}
            elif name == "long-identity":
                b = rng.randint(2, 40)
                params = {"b": b, "n": rng.randint(1, min(20, b * b - 3))}
            else:
                digits = next(decks[name])
                a = rng.randint(10 ** (digits - 1), 10**digits - 1)
                params = {"a": Fraction(a if name == "surd-high" else -a)}
            yield name, params

    def _deck(self, rng: random.Random) -> Iterator[int]:
        while True:
            deck = list(self.DIGITS)
            rng.shuffle(deck)
            yield from deck

    def run(self, op: tuple[str, dict]):
        name, params = op
        original = families.generate(name, params)
        text = original.to_json()
        parsed = type(original).from_json(text)
        return original, text, parsed, render.render_latex(parsed), render.render_text(parsed)

    def fingerprint(self, output) -> str:
        _, text, _, latex, plain = output
        return _digest(text, latex, plain)

    def check(self, op: tuple[str, dict], output) -> int:
        original, text, parsed, latex, plain = output
        if parsed != original:
            raise CheckError(f"JSON round trip changed the identity: {text}")
        lhs, rhs = oracle.record_sides(json.loads(text))
        if not oracle.agree(lhs, rhs):
            raise CheckError(f"oracle rejects {text}")
        shown_lhs, shown_rhs = oracle.text_sides(plain)
        if not (oracle.agree(shown_lhs, lhs) and oracle.agree(shown_rhs, rhs)):
            raise CheckError(f"text rendering has other values: {plain}")
        if not latex.startswith("\\sqrt{") or latex.count("{") != latex.count("}"):
            raise CheckError(f"malformed LaTeX: {latex}")
        return 1


WORKLOADS = {
    "enumerate": Enumerate,
    "discover": Discover,
    "family-render": FamilyRender,
}
