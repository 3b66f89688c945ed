"""Command-line front door.

Subcommands: expand, verify, oracle, census, bfile export|check.
Exit codes: 0 success, 1 verification mismatch or value discrepancy,
2 usage error (an order past the machine's memory included), 3 I/O
error.  Output for a fixed invocation is byte-identical across runs;
timing is opt-in via --timing.  Every series name, prod:SPEC included,
is one side for ``products.evaluate_side``.

One table, ``_COMMANDS``, holds each subcommand's positionals and options
with their kinds and defaults, its help line and its handler; ``parse_args``
reads a command line against it.  Every parameter has one spelling with its
default in the table, but for expand's order: N or -N, never both, and
DEFAULT_EXPAND_ORDER without one.  A malformed command line is one
``error:`` line and exit 2, like every other usage error.  A ``prod:``
factor and a negative number are read with ``str`` methods, so no command
imports or compiles ``re``; they accept exactly what the patterns kept in
``tests/_brute.py`` accept, Unicode decimal digits included.

A subcommand imports what it runs when it runs: ``sequences`` and
``series`` only to evaluate a series, so not for a name, sign, factor or
option it refuses, nor for oracle at t != 5; ``products`` only for a name
other than c5, a5bar and b5bar, and the kernels only at the first product
or quotient; the registry and the evaluator only for verify, the b-file
module only for bfile, the t-core oracle only for oracle, and json only for
--format json.
"""

from __future__ import annotations

import gc
import os
import struct
import sys

from .defaults import DEFAULT_KMAX, DEFAULT_ORDER

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


def _parse_product_spec(text: str) -> list:
    """Inline product syntax: comma-separated factors '[-]E/M[^Z]', each
    read as the (sign, offset, modulus, exponent) of one POCH atom.

    '1/1' is (q;q), '-1/2' is (-q;q^2), '1/1^-1' is 1/(q;q); E is the
    starting exponent, M the modulus, Z the power.
    """
    factors = []
    for part in text.split(","):
        part = part.strip()
        negative = part[:1] == "-"
        head, caret, power = (part[1:] if negative else part).partition("^")
        offset, slash, modulus = head.partition("/")
        if not (slash and offset.isdecimal() and modulus.isdecimal()
                and (not caret or (power[1:] if power[:1] == "-" else power).isdecimal())):
            raise UsageError(f"bad product factor {part!r}; expected '[-]E/M[^Z]'")
        sign = -1 if negative else 1
        offset, modulus = int(offset), int(modulus)
        exponent = int(power) if caret else 1
        if offset < 1 or modulus < 1:
            raise UsageError(f"factor {part!r} needs E >= 1 and M >= 1")
        factors.append((sign, offset, modulus, exponent))
    return factors


def _parse_sign(token: str) -> int:
    if token == "+":
        return 1
    if token == "-":
        return -1
    raise UsageError(f"sign must be '+' or '-', got {token!r}")


# A series name other than a sequence or prod:SPEC maps its head to the
# parsers of the ':'-separated fields it may give and to the factors those
# fields give, built from the ``products`` module once every field has parsed.
_SIDE_NAMES = {
    "f": ((int,), lambda p, j=1: (p.F(j),)),
    "R": ((int,), lambda p, j=1: p.R(j)),
    "phi": ((_parse_sign, int), lambda p, s=-1, j=1: (p.PHI(s, j),)),
    "psi": ((_parse_sign, int), lambda p, s=-1, j=1: (p.PSI(s, j),)),
    "chi": ((_parse_sign, int), lambda p, s=-1, j=1: p.CHI(s, j)),
}


def resolve_series(name: str, order: int):
    """Map a CLI series name to its expansion.

    Names: c5 | a5bar | b5bar | f[:J] | R[:J] | phi[:SIGN[:J]] |
    psi[:SIGN[:J]] | chi[:SIGN[:J]] | prod:SPEC (inline Pochhammer product).
    Each is a one-term side; a malformed prod:SPEC factor is reported as
    such, any other bad name as an unknown series or one that cannot expand.
    A sequence is read from its constructor in ``sequences.SEQUENCES``,
    which is what its side, P(1, 0, SEQ(seq)), reads in ``evaluate_side``.
    """
    _check_order(order, order)
    seq = _SEQ_ALIASES.get(name)
    if seq is not None:
        from .sequences import SEQUENCES
        return SEQUENCES[seq](order)
    if name.startswith("prod:"):
        factors = _parse_product_spec(name[5:])
        from . import products
        return products.evaluate_side(
            (products.P(1, 0, *(products.POCH(*f) for f in factors)),), order)
    head, *rest = name.split(":")
    if head not in _SIDE_NAMES or len(rest) > len(_SIDE_NAMES[head][0]):
        raise UsageError(f"unknown series {name!r}")
    parsers, factors = _SIDE_NAMES[head]
    try:
        fields = [parse(text) for parse, text in zip(parsers, rest)]
        from . import products
        return products.evaluate_side((products.P(1, 0, *factors(products, *fields)),), order)
    except (ValueError, UsageError) as exc:
        raise UsageError(f"cannot expand {name!r}: {exc}") from None


# -- subcommands --------------------------------------------------------------


def _cmd_expand(args: dict) -> int:
    order = next((o for o in (args["positional_order"], args["order"]) if o is not None),
                 DEFAULT_EXPAND_ORDER)
    series = resolve_series(args["name"], order)
    if args["format"] == "json":
        import json
        print(json.dumps({"name": args["name"], "order": order, "coefficients": series.coeffs},
                         sort_keys=True))
    else:   # one formatting call for the row; %d writes an int as str does
        print(" ".join(["%d"] * len(series.coeffs)) % series.coeffs)
    return EXIT_OK


def _cmd_verify(args: dict) -> int:
    from . import identities

    order, selector = args["order"], args["selector"]
    tier = selector in ("all", "core", "extended")
    if not (tier or selector in identities.REGISTRY):
        raise UsageError(f"unknown identity or tier: {selector!r}")
    ids = identities.record_ids(selector) if tier else [selector]
    _check_order(order, identities.largest_index(ids, order))
    reports = (identities.verify_all(selector, order, args["kmax"]) if tier
               else [identities.verify(selector, order, args["kmax"])])
    if args["format"] == "json":
        import json
        print(json.dumps([r.to_dict(include_elapsed=args["timing"]) for r in reports],
                         sort_keys=True))
    else:
        for r in reports:
            print(r.to_line(include_elapsed=args["timing"]))
        print(identities.summarize(reports))
    return EXIT_OK if all(r.ok for r in reports) else EXIT_MISMATCH


def _cmd_oracle(args: dict) -> int:
    from .partitions import count_t_cores, t_cores

    n, t = args["n"], args["t"]
    count = count_t_cores(n, t)
    print(f"count_t_cores({n}, {t}) = {count}")
    if args["list"]:
        for p in t_cores(n, t):
            print("  " + (",".join(map(str, p.parts)) or "(empty)"))
    if t == 5:
        from .sequences import gen_c5

        coeff = gen_c5(n)[n]
        status = "agrees" if coeff == count else f"DISAGREES (series says {coeff})"
        print(f"series coefficient c5({n}) = {coeff}: {status}")
        if coeff != count:
            return EXIT_MISMATCH
    return EXIT_OK


def _cmd_census(args: dict) -> int:
    name, order = args["name"], args["order"]
    seq = _SEQ_ALIASES.get(name)
    if seq is None:
        raise UsageError(f"unknown sequence {name!r}; choose from "
                         + ", ".join(sorted(_SEQ_ALIASES)))
    _check_order(order, order)
    from .sequences import sign_census

    census = sign_census(seq, order)
    payload = {
        "sequence": name,
        "order": order,
        "zero": str(census.zero),
        "positive": str(census.positive),
        "negative": str(census.negative),
    }
    if args["format"] == "json":
        import json
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"{name} sign census over n=1..{order}: "
              f"zero {census.zero}, positive {census.positive}, negative {census.negative}")
    return EXIT_OK


def _cmd_bfile(args: dict) -> int:
    from . import bfile as bfile_mod

    order, path = args["order"], args["path"]
    series = resolve_series(args["name"], order)
    if args["direction"] == "export":
        try:
            with open(path, "w", encoding="ascii") as fh:
                fh.write(bfile_mod.format_bfile(series.coeffs))
        except OSError as exc:
            print(f"cannot write {path}: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"wrote {order + 1} lines to {path}")
        return EXIT_OK
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
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


def _print_help(text: str) -> int:
    print(text)
    return EXIT_OK


# -- the command line ---------------------------------------------------------
#
# An argument is (name, key, kind, default, help).  A name starting with '-'
# is an option, its flags joined by '/'; any other is a positional, which
# must be given when its default is _REQUIRED.  Its value is stored under
# the key.  The kind is str for any text, an int n for an integer >= n, a
# tuple for the choices, or None for a switch, an option without a value.

_REQUIRED = object()
_FORMAT = ("--format", "format", ("text", "json"), "text", "output format (default text)")
_HELP = ("-h/--help", "help", None, False, "print this help and exit")

# subcommand -> (help line, handler, arguments, {name: the name of the
# argument it may not be given with})
_COMMANDS = {
    "expand": ("print coefficients 0..N of a named series", _cmd_expand, (
        ("name", "name", str, _REQUIRED, "c5 | a5bar | b5bar | f[:J] | R[:J] | "
                                         "phi[:SIGN[:J]] | psi[:SIGN[:J]] | chi[:SIGN[:J]] | "
                                         "prod:SPEC"),
        ("N", "positional_order", 0, None,
         f"truncation order (default {DEFAULT_EXPAND_ORDER})"),
        ("-N/--order", "order", 0, None, "the same as N"),
        _FORMAT,
    ), {"N": "-N/--order", "-N/--order": "N"}),
    "verify": ("verify registered identities", _cmd_verify, (
        ("selector", "selector", str, "all",
         "identity id, 'core', 'extended', or 'all' (the default)"),
        ("-N/--order", "order", 0, DEFAULT_ORDER, f"truncation order (default {DEFAULT_ORDER})"),
        ("--kmax", "kmax", 2, DEFAULT_KMAX,
         f"the largest k a family is checked at (default {DEFAULT_KMAX})"),
        ("--jobs", "jobs", (1,), 1, "records are verified serially; only 1 is accepted"),
        _FORMAT,
        ("--timing", "timing", None, False, "include elapsed seconds in the report"),
    ), {}),
    "oracle": ("count t-cores of n as lattice vectors (Garvan-Kim-Stanton)", _cmd_oracle, (
        ("n", "n", 0, _REQUIRED, "the number partitioned"),
        ("t", "t", 1, _REQUIRED, "the core size"),
        ("--list", "list", None, False, "list the t-cores"),
    ), {}),
    "census": ("exact sign frequencies of a sequence", _cmd_census, (
        ("name", "name", str, _REQUIRED, "c5 | a5bar | b5bar"),
        ("-N/--order", "order", 1, DEFAULT_CENSUS_ORDER,
         f"the last index counted (default {DEFAULT_CENSUS_ORDER})"),
        _FORMAT,
    ), {}),
    "bfile": ("export or check an OEIS-style b-file", _cmd_bfile, (
        ("direction", "direction", ("export", "check"), _REQUIRED, "export or check"),
        ("name", "name", str, _REQUIRED, "a series name, as for expand"),
        ("path", "path", str, _REQUIRED, "the b-file"),
        ("-N/--order", "order", 0, DEFAULT_ORDER, f"truncation order (default {DEFAULT_ORDER})"),
    ), {}),
}


def _negative_number(token: str) -> bool:
    """Whether token is a negative number, a value rather than an option:
    '-' and decimal digits, which may hold one '.' with a digit after it and
    be followed by one newline."""
    if token[:1] != "-":
        return False
    whole, dot, fraction = (token[1:-1] if token.endswith("\n") else token[1:]).partition(".")
    if dot:
        return fraction.isdecimal() and (not whole or whole.isdecimal())
    return whole.isdecimal()


def _option(token: str, options) -> tuple | None:
    """The option that token names and the value attached to it, if any
    (--order=5, -N5, -N=5), or None when the token is no option: '-', '--',
    a negative number, or text not starting with '-' or holding a space.
    A long option may be shortened to a unique prefix (--ord)."""
    if token[:1] != "-" or token in ("-", "--"):
        return None
    if token.startswith("--"):
        flag, eq, attached = token.partition("=")
        found = [o for o in options if o[0].split("/")[-1].startswith(flag)]
        attached = attached if eq else None
    else:
        found = [o for o in options if token[:2] in o[0].split("/")]
        attached = token[2:]
        attached = attached[1:] if attached[:1] == "=" else attached or None
    if len(found) == 1:
        return found[0], attached
    if _negative_number(token) or " " in token:
        return None
    raise UsageError(f"unrecognized option {token!r}")


def _value(name: str, kind, text: str):
    """The value of one argument's text, by its kind."""
    if kind is str:
        return text
    choices = kind if isinstance(kind, tuple) else ()
    try:
        value = type(choices[0])(text) if choices else int(text)
    except ValueError:
        raise UsageError(f"argument {name}: invalid integer value: {text!r}") from None
    if choices and value not in choices:
        raise UsageError(f"argument {name}: invalid choice: {value!r} (choose from "
                         + ", ".join(map(repr, choices)) + ")")
    if not choices and value < kind:
        raise UsageError(f"argument {name}: must be >= {kind}, got {value}")
    return value


def _help(command: str | None = None) -> str:
    """The usage of one subcommand, or of qcore with command None: a usage
    line, the help line and a line per argument, options first."""
    if command is None:
        summary = ("Exact q-series expansions and identity verification for 5-core "
                   "partition counts\nand their theta-quotient analogs.")
        rows = [(name, entry[0]) for name, entry in _COMMANDS.items()]
        usage = "qcore [-h/--help] {" + ",".join(_COMMANDS) + "} ..."
    else:
        summary, _, arguments, _ = _COMMANDS[command]
        rows = []
        for name, key, kind, default, text in sorted((_HELP, *arguments),
                                                     key=lambda a: a[0][0] != "-"):
            if isinstance(kind, tuple):
                choices = "{" + ",".join(map(str, kind)) + "}"
                name = f"{name} {choices}" if name[0] == "-" else choices
            elif name[0] == "-" and kind is not None:
                name += " " + key.upper()
            rows.append((name if default is _REQUIRED else f"[{name}]", text))
        usage = " ".join(["qcore", command, *(row[0] for row in rows)])
    width = max(len(row[0]) for row in rows)
    return f"usage: {usage}\n\n{summary}\n" + "".join(
        f"\n  {name:<{width}}  {text}" for name, text in rows)


def _parse_command(command: str, argv) -> tuple:
    _, handler, arguments, exclusive = _COMMANDS[command]
    options = [_HELP, *(a for a in arguments if a[0][0] == "-")]
    positionals = iter([a for a in arguments if a[0][0] != "-"])
    args = {key: default for _, key, _, default, _ in arguments}
    given = set()
    tokens = iter(argv)
    dashes = False  # after '--' every token is a positional
    for token in tokens:
        if token == "--" and not dashes:
            dashes = True
            continue
        found = None if dashes else _option(token, options)
        argument, text = found or (next(positionals, None), token)
        if argument is None:
            raise UsageError(f"unrecognized arguments: {token}")
        name, key, kind = argument[:3]
        if found and kind is None:  # a switch
            if text is not None:
                raise UsageError(f"argument {name}: ignored explicit argument {text!r}")
            if argument is _HELP:
                return _print_help, _help(command)
            args[key] = True
            continue
        if found and text is None:
            text = next(tokens, None)
            if text is None or text == "--" or _option(text, options) is not None:
                raise UsageError(f"argument {name}: expected one argument")
        if exclusive.get(name) in given:
            raise UsageError(f"argument {name}: not allowed with argument {exclusive[name]}")
        args[key] = _value(name, kind, text)
        given.add(name)
    missing = [a[0] for a in positionals if a[3] is _REQUIRED]
    if missing:
        raise UsageError("the following arguments are required: " + ", ".join(missing))
    return handler, args


def parse_args(argv) -> tuple:
    """The handler of a command line and the arguments to call it with, read
    against ``_COMMANDS``; a UsageError if the line is malformed.  For -h or
    --help, before or after the subcommand, the handler prints the usage."""
    if not argv:
        raise UsageError("the following arguments are required: command")
    if argv[0] in _COMMANDS:
        return _parse_command(argv[0], argv[1:])
    if _option(argv[0], [_HELP]) == (_HELP, None):
        return _print_help, _help()
    raise UsageError(f"argument command: invalid choice: {argv[0]!r} (choose from "
                     + ", ".join(map(repr, _COMMANDS)) + ")")


def main(argv=None) -> int:
    try:
        handler, args = parse_args(sys.argv[1:] if argv is None else argv)
        code = handler(args)
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
    collector finds next to nothing to free but still walks the growing
    heap several times while the command runs, and again at interpreter
    shutdown.  So the collector is off for the command, and ``gc.freeze()``
    moves the heap out of the shutdown collections' reach however ``main``
    ends: with its exit code or a traceback.  Freezing rather than
    ``os._exit`` keeps atexit handlers, the flushing of the standard
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
