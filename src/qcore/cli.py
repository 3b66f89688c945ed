"""Command-line front door.

Subcommands: expand, verify, oracle, census, bfile export|check.
Exit codes: 0 success, 1 verification mismatch or value discrepancy,
2 usage error, 3 I/O error.  Output for a fixed invocation is
byte-identical across runs; timing is opt-in via --timing.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import bfile as bfile_mod
from . import identities
from .partitions import OracleScaleExceeded, count_t_cores, partitions_of
from .products import (
    PochhammerFactor,
    QProductSpec,
    chi,
    euler_f,
    expand_qproduct,
    gen_a5bar,
    gen_b5bar,
    gen_c5,
    phi,
    psi,
    rr_quotient,
)
from .reports import MISMATCH

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_IO = 3

DEFAULT_VERIFY_ORDER = 1000
DEFAULT_EXPAND_ORDER = 100

_SEQ_ALIASES = {"c5": "c5", "a5bar": "a5", "b5bar": "b5"}


class UsageError(Exception):
    pass


def _env_default(default: int) -> int:
    raw = os.environ.get("QCORE_DEFAULT_ORDER")
    if raw is None:
        return default
    try:
        value = int(raw)
        if value < 0:
            raise ValueError
    except ValueError:
        raise UsageError(f"QCORE_DEFAULT_ORDER must be a non-negative integer, got {raw!r}")
    return value


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return integer


_FACTOR_RE = re.compile(r"^(-?)(\d+)/(\d+)(?:\^(-?\d+))?$")


def _parse_product_spec(text: str) -> QProductSpec:
    """Inline product syntax: comma-separated factors '[-]E/M[^Z]'.

    '1/1' is (q;q), '-1/2' is (-q;q^2), '1/1^-1' is 1/(q;q); E is the
    starting exponent, M the modulus, Z the power.
    """
    factors = []
    for part in text.split(","):
        part = part.strip()
        m = _FACTOR_RE.match(part)
        if not m:
            raise UsageError(f"bad product factor {part!r}; expected '[-]E/M[^Z]'")
        sign = -1 if m.group(1) else 1
        offset, modulus = int(m.group(2)), int(m.group(3))
        exponent = int(m.group(4)) if m.group(4) else 1
        if offset < 1 or modulus < 1:
            raise UsageError(f"factor {part!r} needs E >= 1 and M >= 1")
        factors.append(PochhammerFactor(sign, offset, modulus, exponent))
    if not factors:
        raise UsageError("empty product spec")
    return QProductSpec(tuple(factors))


def _parse_sign(token: str) -> int:
    if token == "+":
        return 1
    if token == "-":
        return -1
    raise UsageError(f"sign must be '+' or '-', got {token!r}")


def resolve_series(name: str, order: int):
    """Map a CLI series name to its expansion.

    Names: c5 | a5bar | b5bar | f[:J] | R[:J] | phi[:SIGN[:J]] |
    psi[:SIGN[:J]] | chi[:SIGN[:J]] | prod:SPEC (inline Pochhammer product).
    """
    if name.startswith("prod:"):
        return expand_qproduct(_parse_product_spec(name[5:]), order)
    head, *rest = name.split(":")
    try:
        if head == "c5" and not rest:
            return gen_c5(order)
        if head == "a5bar" and not rest:
            return gen_a5bar(order)
        if head == "b5bar" and not rest:
            return gen_b5bar(order)
        if head == "f" and len(rest) <= 1:
            return euler_f(int(rest[0]) if rest else 1, order)
        if head == "R" and len(rest) <= 1:
            return rr_quotient(int(rest[0]) if rest else 1, order)
        if head in ("phi", "psi", "chi") and len(rest) <= 2:
            sign = _parse_sign(rest[0]) if rest else -1
            j = int(rest[1]) if len(rest) > 1 else 1
            return {"phi": phi, "psi": psi, "chi": chi}[head](sign, j, order)
    except (ValueError, UsageError) as exc:
        raise UsageError(f"cannot expand {name!r}: {exc}") from None
    raise UsageError(f"unknown series {name!r}")


# -- subcommands --------------------------------------------------------------


def _cmd_expand(args) -> int:
    order = args.positional_order if args.positional_order is not None else args.order
    if order is None:
        order = _env_default(DEFAULT_EXPAND_ORDER)
    series = resolve_series(args.name, order)
    if args.format == "json":
        print(json.dumps(
            {"name": args.name, "order": order, "coefficients": list(series.coeffs)},
            sort_keys=True))
    else:
        print(" ".join(str(c) for c in series.coeffs))
    return EXIT_OK


def _cmd_verify(args) -> int:
    order = args.order if args.order is not None else _env_default(DEFAULT_VERIFY_ORDER)
    selector = args.selector or (args.tier or "all")
    if selector in ("all", "core", "extended"):
        reports = identities.verify_all(selector, order, args.kmax, jobs=args.jobs)
    else:
        try:
            reports = [identities.verify(selector, order, args.kmax)]
        except identities.UnknownIdentity:
            print(f"unknown identity or tier: {selector!r}", file=sys.stderr)
            return EXIT_USAGE
    if args.format == "json":
        print(json.dumps([r.to_dict(include_elapsed=args.timing) for r in reports],
                         sort_keys=True))
    else:
        for r in reports:
            print(r.to_line(include_elapsed=args.timing))
        print(identities.summarize(reports))
    return EXIT_OK if all(r.ok for r in reports) else EXIT_MISMATCH


def _cmd_oracle(args) -> int:
    count = count_t_cores(args.n, args.t, ceiling=args.ceiling)
    print(f"count_t_cores({args.n}, {args.t}) = {count}")
    if args.list:
        for p in partitions_of(args.n):
            if p.is_t_core(args.t):
                print("  " + (",".join(map(str, p.parts)) or "(empty)"))
    if args.t == 5:
        coeff = gen_c5(args.n)[args.n]
        status = "agrees" if coeff == count else f"DISAGREES (series says {coeff})"
        print(f"series coefficient c5({args.n}) = {coeff}: {status}")
        if coeff != count:
            return EXIT_MISMATCH
    return EXIT_OK


def _cmd_census(args) -> int:
    order = args.order if args.order is not None else _env_default(10000)
    seq = _SEQ_ALIASES.get(args.name)
    if seq is None:
        raise UsageError(f"unknown sequence {args.name!r}; choose from "
                         + ", ".join(sorted(_SEQ_ALIASES)))
    census = identities.sign_census(seq, order)
    payload = {
        "sequence": args.name,
        "order": order,
        "zero": str(census.zero),
        "positive": str(census.positive),
        "negative": str(census.negative),
    }
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"{args.name} sign census over n=1..{order}: "
              f"zero {census.zero}, positive {census.positive}, negative {census.negative}")
    return EXIT_OK


def _cmd_bfile(args) -> int:
    order = args.order if args.order is not None else _env_default(DEFAULT_VERIFY_ORDER)
    series = resolve_series(args.name, order)
    if args.direction == "export":
        try:
            with open(args.path, "w", encoding="ascii") as fh:
                fh.write(bfile_mod.format_bfile(series.coeffs))
        except OSError as exc:
            print(f"cannot write {args.path}: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"wrote {order + 1} lines to {args.path}")
        return EXIT_OK
    try:
        with open(args.path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return EXIT_IO
    parsed = bfile_mod.parse_bfile(text)
    bad = bfile_mod.first_discrepancy(parsed, series.coeffs)
    overlap = min(parsed.entries[-1][0], order)
    if bad is None:
        print(f"no discrepancies over indices {parsed.first_index}..{overlap}")
        return EXIT_OK
    idx, got, expected = bad
    print(f"discrepancy at index {idx}: file has {got}, expected {expected}")
    return EXIT_MISMATCH


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcore",
        description="Exact q-series expansions and identity verification "
                    "for 5-core partition counts and their theta-quotient analogs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="print coefficients 0..N of a named series")
    p_expand.add_argument("name", help="c5 | a5bar | b5bar | f[:J] | R[:J] | "
                                       "phi[:SIGN[:J]] | psi[:SIGN[:J]] | chi[:SIGN[:J]] | prod:SPEC")
    p_expand.add_argument("positional_order", nargs="?", type=_at_least(0), default=None,
                          metavar="N", help="truncation order (default 100)")
    p_expand.add_argument("-N", "--order", type=_at_least(0), default=None)
    p_expand.add_argument("--format", choices=("text", "json"), default="text")
    p_expand.set_defaults(func=_cmd_expand)

    p_verify = sub.add_parser("verify", help="verify registered identities")
    p_verify.add_argument("selector", nargs="?", default=None,
                          help="identity id, 'core', 'extended', or 'all'")
    p_verify.add_argument("--tier", choices=("core", "extended", "all"), default=None)
    p_verify.add_argument("-N", "--order", type=_at_least(0), default=None)
    p_verify.add_argument("--kmax", type=int, default=identities.DEFAULT_KMAX)
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="parallel record verification (default 1)")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--timing", action="store_true",
                          help="include elapsed seconds in the report")
    p_verify.set_defaults(func=_cmd_verify)

    p_oracle = sub.add_parser("oracle", help="count t-cores of n by enumeration")
    p_oracle.add_argument("n", type=_at_least(0))
    p_oracle.add_argument("t", type=_at_least(1))
    p_oracle.add_argument("--ceiling", type=int, default=60,
                          help="largest n the oracle will enumerate")
    p_oracle.add_argument("--list", action="store_true", help="list the t-cores")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_census = sub.add_parser("census", help="exact sign frequencies of a sequence")
    p_census.add_argument("name", help="c5 | a5bar | b5bar")
    p_census.add_argument("-N", "--order", type=_at_least(1), default=None)
    p_census.add_argument("--format", choices=("text", "json"), default="text")
    p_census.set_defaults(func=_cmd_census)

    p_bfile = sub.add_parser("bfile", help="export or check an OEIS-style b-file")
    p_bfile.add_argument("direction", choices=("export", "check"))
    p_bfile.add_argument("name")
    p_bfile.add_argument("path")
    p_bfile.add_argument("-N", "--order", type=_at_least(0), default=None)
    p_bfile.set_defaults(func=_cmd_bfile)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except bfile_mod.BFileParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OracleScaleExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
