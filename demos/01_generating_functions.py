#!/usr/bin/env python3
"""The three headline series, built three very different ways.

c5(n) counts the 5-core partitions of n.  Its generating function is the
eta quotient f5^5/f1; the analogous quotients phi(-q^5)^5/phi(-q) and
psi(-q^5)^5/psi(-q) define the companion sequences a5(n) and b5(n).
``gen_c5``, ``gen_a5bar`` and ``gen_b5bar`` compute them from closed forms,
sums of the divisor sums s51(m) = sum over d | m of (m/d | 5) d and
s15(m) = sum over d | m of (d | 5) d.  Below, the series engine also
expands their product definitions, and c5 is counted as lattice vectors.
Everything is exact integer arithmetic.
"""

from qcore import count_t_cores, evaluate_side, gen_a5bar, gen_b5bar, gen_c5
from qcore.products import FORMS

N = 30

c5 = gen_c5(N)
a5 = gen_a5bar(N)
b5 = gen_b5bar(N)

print(f"{'n':>4} {'c5(n)':>8} {'a5(n)':>8} {'b5(n)':>8}")
for n in range(N + 1):
    print(f"{n:>4} {c5[n]:>8} {a5[n]:>8} {b5[n]:>8}")

# The closed forms agree with the product definitions, expanded as exact
# series (by Sturm's bound, a few coefficients prove it; see FORMS).
print("\nclosed forms vs product definitions:")
for name, closed in (("c5", c5), ("a5", a5), ("b5", b5)):
    product = evaluate_side(FORMS[name].side, N)
    print(f"  {name}: {'agree' if product == closed else 'DISAGREE'} through q^{N}")

# The combinatorial world agrees too: count the 5-cores of a few n as
# lattice vectors (no series arithmetic) and compare.
print("\nlattice 5-core counts vs c5(n):")
for n in (0, 4, 9, 17, 25):
    count = count_t_cores(n, 5)
    print(f"  n={n:>2}: lattice {count}, c5 {c5[n]}, "
          f"{'agree' if count == c5[n] else 'DISAGREE'}")

# A few structural facts visible already in the table:
#   a5(5n+2) = 4 c5(5n+1)        (look at n=2,7,12,...)
#   b5(10n+6) = b5(10n+8) = 0
print("\nspot checks:")
print("  a5(2) =", a5[2], "= 4*c5(1) =", 4 * c5[1])
print("  a5(7) =", a5[7], "= 4*c5(6) =", 4 * c5[6])
print("  b5(6) =", b5[6], " b5(8) =", b5[8], " b5(16) =", b5[16])
