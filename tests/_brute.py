"""Small, deliberately naive helpers used to derive expected test values.

Nothing here imports the package under test, but for the triple product:
straight loops over plain coefficient lists, so these stay an independent
cross-check.  ``triple_product`` is the reference for ``theta_general``'s
bilateral sum: the Jacobi triple product, a side of the package's
Pochhammer atoms.
"""


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
