#!/usr/bin/env python3
"""Partitions, Ferrers-Young diagrams, hook numbers, and t-cores.

A partition is a t-core when no hook number is divisible by t.  The
classic example (4,3,1,1) has hooks {7,4,3,1,5,2,1,2,1}: it is a 6-core
and a t-core for every t >= 8, but not a 5-core (there is a hook of 5).

The t-cores themselves come from lattice vectors (Garvan-Kim-Stanton), read
off the t-runner abacus; every one listed is checked against its hooks.
"""

from qcore import Partition, count_t_cores, gen_c5, t_cores

p = Partition((4, 3, 1, 1))

print("Ferrers-Young diagram of", p.parts, "with hook numbers:")
for row in p.hook_numbers():
    print("   " + " ".join(f"{h:>2}" for h in row))

print("\nconjugate partition:", p.conjugate().parts)
print("t-core profile:")
for t in range(2, 10):
    print(f"   t={t}: {'yes' if p.is_t_core(t) else 'no'}")

# List the 5-cores of 9, and confirm each by its hook numbers.
print("\n5-cores of 9:")
for q in t_cores(9, 5):
    print("  ", q.parts, "hooks ok" if q.is_t_core(5) else "NOT A 5-CORE")

# And let the lattice count cross-examine the generating function.
series = gen_c5(20)
print("\nn, lattice count, series coefficient:")
for n in range(21):
    print(f"  {n:>2} {count_t_cores(n, 5):>4} {series[n]:>4}")
