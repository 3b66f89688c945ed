"""Command-line front door.

Subcommands: expand, verify, oracle, census, bfile export|check.
Exit codes: 0 success, 1 verification mismatch or value discrepancy,
2 usage error (an order past the machine's memory included), 3 I/O
error.  Output for a fixed invocation is byte-identical across runs;
timing is opt-in via --timing.  Every series name, prod:SPEC included,
is one side for ``products.evaluate_side``.  Every parameter has one
spelling with its default in the parser, but for expand's order: N or
-N, never both, and DEFAULT_EXPAND_ORDER without one.

A subcommand imports what it runs when it runs: the registry and the
evaluator only for verify, the b-file module only for bfile,
the t-core oracle only for oracle, and json only for --format json.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import struct
import sys

from .defaults import DEFAULT_KMAX, DEFAULT_ORDER
from .products import CHI, PHI, POCH, PSI, SEQ, F, P, R, evaluate_side, gen_c5, sign_census

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_IO = 3

DEFAULT_EXPAND_ORDER = 100
DEFAULT_CENSUS_ORDER = 10000

_SEQ_ALIASES = {"c5": "c5", "a5bar": "a5", "b5bar": "b5"}


class UsageError(Exception):
    pass


# A list holds at most sys.maxsize bytes of pointers; the longest list a read
# to index top allocates has top + 1 slots.
_MAX_SLOTS = sys.maxsize // struct.calcsize("P")


def _check_order(order: int, top: int) -> None:
    """A usage error when no list can hold the slots up to the largest
    index, top, that a command reads at the order."""
    if top >= _MAX_SLOTS:
        raise UsageError(f"order {order} is too large: no list can hold index {top}")


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return integer


_FACTOR_RE = re.compile(r"^(-?)(\d+)/(\d+)(?:\^(-?\d+))?$")


def _parse_product_spec(text: str) -> tuple:
    """Inline product syntax: comma-separated factors '[-]E/M[^Z]', read as
    one product term of POCH atoms.

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
        factors.append(POCH(sign, offset, modulus, exponent))
    return P(1, 0, *factors)


def _parse_sign(token: str) -> int:
    if token == "+":
        return 1
    if token == "-":
        return -1
    raise UsageError(f"sign must be '+' or '-', got {token!r}")


# A series name other than prod:SPEC maps its head to the most ':'-separated
# fields it takes and to the factors those fields give.
_SIDE_NAMES = {
    **{alias: (0, lambda seq=seq: (SEQ(seq),)) for alias, seq in _SEQ_ALIASES.items()},
    "f": (1, lambda j="1": (F(int(j)),)),
    "R": (1, lambda j="1": R(int(j))),
    "phi": (2, lambda s="-", j="1": (PHI(_parse_sign(s), int(j)),)),
    "psi": (2, lambda s="-", j="1": (PSI(_parse_sign(s), int(j)),)),
    "chi": (2, lambda s="-", j="1": CHI(_parse_sign(s), int(j))),
}


def resolve_series(name: str, order: int):
    """Map a CLI series name to its expansion.

    Names: c5 | a5bar | b5bar | f[:J] | R[:J] | phi[:SIGN[:J]] |
    psi[:SIGN[:J]] | chi[:SIGN[:J]] | prod:SPEC (inline Pochhammer product).
    Each is a one-term side; a malformed prod:SPEC factor is reported as
    such, any other bad name as an unknown series or one that cannot expand.
    """
    _check_order(order, order)
    if name.startswith("prod:"):
        return evaluate_side((_parse_product_spec(name[5:]),), order)
    head, *rest = name.split(":")
    if head not in _SIDE_NAMES or len(rest) > _SIDE_NAMES[head][0]:
        raise UsageError(f"unknown series {name!r}")
    try:
        return evaluate_side((P(1, 0, *_SIDE_NAMES[head][1](*rest)),), order)
    except (ValueError, UsageError) as exc:
        raise UsageError(f"cannot expand {name!r}: {exc}") from None


# -- subcommands --------------------------------------------------------------


def _cmd_expand(args) -> int:
    order = next((o for o in (args.positional_order, args.order) if o is not None),
                 DEFAULT_EXPAND_ORDER)
    series = resolve_series(args.name, order)
    if args.format == "json":
        import json
        print(json.dumps(
            {"name": args.name, "order": order, "coefficients": list(series.coeffs)},
            sort_keys=True))
    else:
        print(" ".join(map(str, series.coeffs)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import identities

    order, selector = args.order, args.selector
    tier = selector in ("all", "core", "extended")
    if not (tier or selector in identities.REGISTRY):
        print(f"unknown identity or tier: {selector!r}", file=sys.stderr)
        return EXIT_USAGE
    ids = identities.record_ids(selector) if tier else [selector]
    _check_order(order, identities.largest_index(ids, order))
    reports = (identities.verify_all(selector, order, args.kmax) if tier
               else [identities.verify(selector, order, args.kmax)])
    if args.format == "json":
        import json
        print(json.dumps([r.to_dict(include_elapsed=args.timing) for r in reports],
                         sort_keys=True))
    else:
        for r in reports:
            print(r.to_line(include_elapsed=args.timing))
        print(identities.summarize(reports))
    return EXIT_OK if all(r.ok for r in reports) else EXIT_MISMATCH


def _cmd_oracle(args) -> int:
    from .partitions import count_t_cores, t_cores

    count = count_t_cores(args.n, args.t)
    print(f"count_t_cores({args.n}, {args.t}) = {count}")
    if args.list:
        for p in t_cores(args.n, args.t):
            print("  " + (",".join(map(str, p.parts)) or "(empty)"))
    if args.t == 5:
        coeff = gen_c5(args.n)[args.n]
        status = "agrees" if coeff == count else f"DISAGREES (series says {coeff})"
        print(f"series coefficient c5({args.n}) = {coeff}: {status}")
        if coeff != count:
            return EXIT_MISMATCH
    return EXIT_OK


def _cmd_census(args) -> int:
    order = args.order
    seq = _SEQ_ALIASES.get(args.name)
    if seq is None:
        raise UsageError(f"unknown sequence {args.name!r}; choose from "
                         + ", ".join(sorted(_SEQ_ALIASES)))
    _check_order(order, order)
    census = sign_census(seq, order)
    payload = {
        "sequence": args.name,
        "order": order,
        "zero": str(census.zero),
        "positive": str(census.positive),
        "negative": str(census.negative),
    }
    if args.format == "json":
        import json
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"{args.name} sign census over n=1..{order}: "
              f"zero {census.zero}, positive {census.positive}, negative {census.negative}")
    return EXIT_OK


def _cmd_bfile(args) -> int:
    from . import bfile as bfile_mod

    order = args.order
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
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        parsed = bfile_mod.parse_bfile(text)
    except bfile_mod.BFileParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    last = parsed.entries[-1][0]
    if parsed.first_index > order:
        print(f"nothing checked: the file holds indices {parsed.first_index}..{last}, "
              f"the series 0..{order}")
        return EXIT_MISMATCH
    bad = bfile_mod.first_discrepancy(parsed, series.coeffs)
    overlap = min(last, order)
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
    expand_order = p_expand.add_mutually_exclusive_group()
    expand_order.add_argument("positional_order", nargs="?", type=_at_least(0), metavar="N",
                              help=f"truncation order (default {DEFAULT_EXPAND_ORDER})")
    expand_order.add_argument("-N", "--order", type=_at_least(0), help="the same as N")
    p_expand.add_argument("--format", choices=("text", "json"), default="text")
    p_expand.set_defaults(func=_cmd_expand)

    p_verify = sub.add_parser("verify", help="verify registered identities")
    p_verify.add_argument("selector", nargs="?", default="all",
                          help="identity id, 'core', 'extended', or 'all' (the default)")
    p_verify.add_argument("-N", "--order", type=_at_least(0), default=DEFAULT_ORDER)
    p_verify.add_argument("--kmax", type=_at_least(2), default=DEFAULT_KMAX)
    p_verify.add_argument("--jobs", type=int, choices=[1], default=1,
                          help="records are verified serially; only 1 is accepted")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--timing", action="store_true",
                          help="include elapsed seconds in the report")
    p_verify.set_defaults(func=_cmd_verify)

    p_oracle = sub.add_parser("oracle", help="count t-cores of n as lattice vectors "
                                             "(Garvan-Kim-Stanton)")
    p_oracle.add_argument("n", type=_at_least(0))
    p_oracle.add_argument("t", type=_at_least(1))
    p_oracle.add_argument("--list", action="store_true", help="list the t-cores")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_census = sub.add_parser("census", help="exact sign frequencies of a sequence")
    p_census.add_argument("name", help="c5 | a5bar | b5bar")
    p_census.add_argument("-N", "--order", type=_at_least(1), default=DEFAULT_CENSUS_ORDER)
    p_census.add_argument("--format", choices=("text", "json"), default="text")
    p_census.set_defaults(func=_cmd_census)

    p_bfile = sub.add_parser("bfile", help="export or check an OEIS-style b-file")
    p_bfile.add_argument("direction", choices=("export", "check"))
    p_bfile.add_argument("name")
    p_bfile.add_argument("path")
    p_bfile.add_argument("-N", "--order", type=_at_least(0), default=DEFAULT_ORDER)
    p_bfile.set_defaults(func=_cmd_bfile)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away (``| head``); the flush at exit must not fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        # an order under _check_order's bound can still outgrow the machine
        print("error: out of memory; try a smaller order", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """The ``qcore`` console script: ``main`` in a one-shot process.

    A command keeps what it builds until the process exits, so the cyclic
    collector finds next to nothing to free (the argparse parser's few
    hundred objects) but still walks the growing heap several times while
    the command runs, and again at interpreter shutdown.  So the
    collector is off for the command, and ``gc.freeze()`` moves the heap
    out of the shutdown collections' reach however ``main`` ends: with its
    exit code, argparse's usage exit or a traceback.  Freezing rather
    than ``os._exit`` keeps atexit handlers, the flushing of the standard
    streams and the exit code as they are.  In-process callers of ``main``
    keep Python's default collector.
    """
    gc.disable()
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
