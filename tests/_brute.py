"""Small, deliberately naive helpers used to derive expected test values.

Nothing here imports the package under test, but for the triple product
and the command-line parser: straight loops over plain coefficient lists,
so these stay an independent cross-check.  ``triple_product`` is the
reference for ``theta_general``'s bilateral sum: the Jacobi triple product,
a side of the package's Pochhammer atoms.  ``build_parser`` is the argparse
parser that ``qcore.cli`` once used, the reference for its table parser, and
``FACTOR_RE`` and ``NEGATIVE_RE`` are the patterns it read a ``prod:`` factor
and a negative number with, the reference for the string methods it uses now.
"""

import argparse
import re

from qcore.cli import (
    DEFAULT_CENSUS_ORDER,
    DEFAULT_EXPAND_ORDER,
    _cmd_bfile,
    _cmd_census,
    _cmd_expand,
    _cmd_oracle,
    _cmd_verify,
)
from qcore.defaults import DEFAULT_KMAX, DEFAULT_ORDER


def convolve(a, b, order):
    out = [0] * (order + 1)
    for i in range(min(len(a) - 1, order) + 1):
        if not a[i]:
            continue
        for j in range(min(len(b) - 1, order - i) + 1):
            out[i + j] += a[i] * b[j]
    return out


def power(a, k, order):
    out = [1] + [0] * order
    for _ in range(k):
        out = convolve(out, a, order)
    return out


def invert(a, order):
    assert a[0] in (1, -1)
    out = [0] * (order + 1)
    out[0] = a[0]
    for n in range(1, order + 1):
        s = 0
        for k in range(1, n + 1):
            if k < len(a) and a[k]:
                s += a[k] * out[n - k]
        out[n] = -a[0] * s
    return out


def pochhammer(sign, offset, modulus, order):
    """(sign*q^offset; q^modulus)_inf as a coefficient list, exponent 1."""
    out = [1] + [0] * order
    t = offset
    while t <= order:
        for i in range(order - t, -1, -1):
            if out[i]:
                out[i + t] -= sign * out[i]
        t += modulus
    return out


def qproduct(factors, order):
    """Product of ((sign, offset, modulus, exponent), ...) Pochhammer symbols."""
    out = [1] + [0] * order
    for sign, offset, modulus, exponent in factors:
        base = pochhammer(sign, offset, modulus, order)
        piece = power(base, abs(exponent), order)
        if exponent < 0:
            piece = invert(piece, order)
        out = convolve(out, piece, order)
    return out


def theta_sum(s1, e1, s2, e2, order):
    """Bilateral two-monomial theta sum, with a crudely wide summation window."""
    out = [0] * (order + 1)
    for n in range(-(2 * order + 3), 2 * order + 4):
        t1 = n * (n + 1) // 2
        t2 = n * (n - 1) // 2
        exp = e1 * t1 + e2 * t2
        if 0 <= exp <= order:
            out[exp] += (s1 if t1 % 2 else 1) * (s2 if t2 % 2 else 1)
    return out


def partition_counts(order):
    """p(0..order) by the classic two-variable dynamic program."""
    table = [1] + [0] * order
    for part in range(1, order + 1):
        for n in range(part, order + 1):
            table[n] += table[n - part]
    return table


def distinct_partition_counts(order):
    table = [1] + [0] * order
    for part in range(1, order + 1):
        for n in range(order, part - 1, -1):
            table[n] += table[n - part]
    return table


def partitions_of(n, largest=None):
    """Every partition of n (into parts <= largest) as a tuple of parts, in
    decreasing lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, n if largest is None else largest), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def is_t_core(parts, t):
    """No hook length l_i - j + l'_j - i - 1 (0-based i, j) divisible by t."""
    cols = [sum(1 for p in parts if p > j) for j in range(parts[0] if parts else 0)]
    return all((lam - j + cols[j] - i - 1) % t
               for i, lam in enumerate(parts) for j in range(lam))


def t_core_counts(t, order):
    """Coefficients of prod_k (1 - q^{tk})^t / (1 - q^k) to q^order."""
    return convolve(power(pochhammer(1, t, t, order), t, order),
                    invert(pochhammer(1, 1, 1, order), order), order)


def _poch_factors_for(coeff_sign, coeff_exp, base_sign, base_exp):
    """POCH atoms of (c; Q)_inf with c = coeff_sign*q^coeff_exp, Q = base_sign*q^base_exp.

    A negative base splits over even/odd k into two factors on modulus
    2*base_exp.
    """
    from qcore.products import POCH

    if coeff_exp < 1:
        raise ValueError("triple product expansion needs strictly positive exponents")
    if base_sign == 1:
        return (POCH(coeff_sign, coeff_exp, base_exp),)
    return (
        POCH(coeff_sign, coeff_exp, 2 * base_exp),
        POCH(-coeff_sign, coeff_exp + base_exp, 2 * base_exp),
    )


def triple_product(spec, order):
    """Expand f(a, b) through (-a; ab)(-b; ab)(ab; ab) as a side of Pochhammer
    atoms; a factor that repeats, as in phi, is expanded once and squared."""
    from qcore.products import P, evaluate_side

    ab_sign = spec.s1 * spec.s2
    ab_exp = spec.e1 + spec.e2
    factors = (
        _poch_factors_for(-spec.s1, spec.e1, ab_sign, ab_exp)
        + _poch_factors_for(-spec.s2, spec.e2, ab_sign, ab_exp)
        + _poch_factors_for(ab_sign, ab_exp, ab_sign, ab_exp)
    )
    return evaluate_side((P(1, 0, *factors),), order)


# -- the command line: the argparse parser, as qcore.cli had it ----------------


FACTOR_RE = re.compile(r"^(-?)(\d+)/(\d+)(?:\^(-?\d+))?$")
NEGATIVE_RE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def product_factor(part: str):
    """The (sign, offset, modulus, exponent) that ``FACTOR_RE`` reads from one
    stripped factor, or None when it does not match."""
    m = FACTOR_RE.match(part)
    if not m:
        return None
    return (-1 if m.group(1) else 1, int(m.group(2)), int(m.group(3)),
            int(m.group(4)) if m.group(4) else 1)


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return integer


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
