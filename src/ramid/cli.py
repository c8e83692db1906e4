"""Command-line front end.

Exit codes: 0 success, 1 verification-false, 2 usage or domain error.
A stdout closed by its reader (``ramid enumerate | head -1``) is not an
error: the command stops writing and exits 0 silently, whether or not it got
to finish.  Any other failure to write stdout, such as a full disk, exits 2
with its message.
Rationals on the command line use the exact ``p/q`` or integer grammar.
The ``family`` options and their types come from ``families.FAMILIES``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import enumeration, families, render
from .construct import build_tuple
from .errors import PreconditionError, RamidError
from .exact import parse_rational
from .identity import IdentityTuple, VariationIdentity, _verified_class, verify, verify_tuple

EXIT_OK = 0
EXIT_UNVERIFIED = 1
EXIT_USAGE = 2

_NEGATIVE_FRACTION = re.compile(r"^-\d+/\d+$")


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# Every family parameter with its type, in the registry's order of first use.
_FAMILY_PARAMS = {k: v for _, params in families.FAMILIES.values() for k, v in params.items()}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramid",
        description="Verify, construct, generate and enumerate "
        "Ramanujan-type square-root product identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a (t, A, x, y, z) tuple exactly")
    for name in ("t", "A", "x", "y", "z"):
        p.add_argument(f"--{name}", type=_rational, required=True)

    p = sub.add_parser("solve", help="construct x, y from (t, A, z, k)")
    for name in ("t", "A", "z", "k"):
        p.add_argument(f"--{name}", type=_rational, required=True)

    p = sub.add_parser("enumerate", help="exhaustively enumerate identities")
    p.add_argument(
        "--class",
        dest="klass",
        choices=("super-perfect", "perfect"),
        default="super-perfect",
    )
    p.add_argument("--primes-only", action="store_true")
    p.add_argument("--out", help="write identities (JSON lines) to this file")

    p = sub.add_parser("family", help="instantiate a closed-form family")
    p.add_argument("name", choices=families.FAMILIES)
    for key, kind in _FAMILY_PARAMS.items():
        p.add_argument(f"--{key}", type=_rational if kind is Fraction else int)

    p = sub.add_parser("discover", help="seeded random search at fixed t")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--t", type=_rational, required=True)
    p.add_argument("--a-min", type=int, default=2)
    p.add_argument("--a-max", type=int, default=6)
    p.add_argument("--z-min", type=int, default=-50)
    p.add_argument("--z-max", type=int, default=50)
    p.add_argument("--k-den", type=int, default=12)

    p = sub.add_parser("render", help="render identity JSON from stdin")
    p.add_argument("--format", choices=("latex", "text", "json"), default="latex")
    p.add_argument("--unchecked", action="store_true")

    return parser


def _cmd_verify(args: argparse.Namespace) -> int:
    identity = IdentityTuple(args.t, args.A, args.x, args.y, args.z)
    ok = verify_tuple(identity)
    out = identity.to_json_dict(_verified_class(identity) if ok else None)
    out["verified"] = ok
    print(json.dumps(out))
    return EXIT_OK if ok else EXIT_UNVERIFIED


def _cmd_solve(args: argparse.Namespace) -> int:
    print(build_tuple(args.t, args.A, args.z, args.k).to_json())
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.klass == "super-perfect":
        report = enumeration.enumerate_super_perfect()
    else:
        report = enumeration.enumerate_perfect()
    if args.primes_only:
        report = enumeration.prime_filter(report)
    if args.out:
        with open(args.out, "w") as fh:
            report.write_jsonl(fh)
        print(json.dumps(report.to_summary_dict()))
    else:
        report.write_jsonl(sys.stdout)
        print(json.dumps(report.to_summary_dict()), file=sys.stderr)
    return EXIT_OK


def _cmd_family(args: argparse.Namespace) -> int:
    params = {k: v for k, v in vars(args).items() if k in _FAMILY_PARAMS and v is not None}
    identity = families.generate(args.name, params)
    ok = verify(identity)
    print(_to_json(identity, ok))
    return EXIT_OK if ok else EXIT_UNVERIFIED


def _cmd_discover(args: argparse.Namespace) -> int:
    results = families.discover(
        seed=args.seed,
        trials=args.trials,
        t=args.t,
        a_range=(args.a_min, args.a_max),
        z_range=(args.z_min, args.z_max),
        k_den_max=args.k_den,
    )
    for identity in results:  # discover returns only tuples that verify
        print(identity.to_json(_verified_class(identity)))
    return EXIT_OK


def _to_json(identity: IdentityTuple | VariationIdentity, verified: bool) -> str:
    # A tuple that verifies carries its class tag.
    if isinstance(identity, IdentityTuple):
        return identity.to_json(_verified_class(identity) if verified else None)
    return identity.to_json()


def _clip(text: str) -> str:
    return text if len(text) <= 120 else text[:120] + "..."


def _parse_identity_json(line: str) -> IdentityTuple | VariationIdentity:
    try:
        data = json.loads(line)
        if not isinstance(data, dict):
            raise ValueError("not a JSON object")
        if "radicand" in data:
            return VariationIdentity.from_json_dict(data)
        return IdentityTuple.from_json_dict(data)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        # A bad record may be huge, and the error's repr may repeat it.
        raise RamidError(f"not an identity record ({_clip(repr(exc))}): {_clip(line)}") from None


def _cmd_render(args: argparse.Namespace) -> int:
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        identity = _parse_identity_json(line)
        ok = verify(identity)
        if not ok and not args.unchecked:
            raise PreconditionError(f"identity does not verify: {_clip(line)}")
        if args.format == "json":
            print(_to_json(identity, ok))
        else:
            print(_RENDERS[args.format](identity, unchecked=True))
    return EXIT_OK


_RENDERS = {"latex": render.render_latex, "text": render.render_text}

_COMMANDS = {
    "verify": _cmd_verify,
    "solve": _cmd_solve,
    "enumerate": _cmd_enumerate,
    "family": _cmd_family,
    "discover": _cmd_discover,
    "render": _cmd_render,
}


def _attach_negative_fractions(argv: list[str]) -> list[str]:
    # argparse takes "-9/4" for an option (only "-9" and "-2.5" pass as
    # negative numbers), so "--a -9/4" is passed on as "--a=-9/4".
    out: list[str] = []
    for arg in argv:
        awaits_value = out and out[-1].startswith("--") and "=" not in out[-1]
        if awaits_value and _NEGATIVE_FRACTION.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(
        _attach_negative_fractions(sys.argv[1:] if argv is None else argv)
    )
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a failed write to stdout shows here, not at exit
    except BrokenPipeError:  # the reader is gone (`| head -1`): stop quietly
        code = EXIT_OK
    except PreconditionError as exc:
        print(f"ramid: {exc}", file=sys.stderr)
        code = EXIT_UNVERIFIED
    except (RamidError, ValueError, OSError) as exc:
        print(f"ramid: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    try:
        sys.stdout.flush()
    except OSError:
        # What stdout holds cannot be written: point it at devnull, so the
        # flush at exit cannot fail again ("Exception ignored", exit 120).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
