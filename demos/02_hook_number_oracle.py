#!/usr/bin/env python3
"""Partitions, Ferrers-Young diagrams, hook numbers, and t-cores.

A partition is a t-core when no hook number is divisible by t.  The
classic example (4,3,1,1) has hooks {7,4,3,1,5,2,1,2,1}: it is a 6-core
and a t-core for every t >= 8, but not a 5-core (there is a hook of 5).
"""

from qcore import Partition, count_t_cores, gen_c5, partitions_of

p = Partition((4, 3, 1, 1))

print("Ferrers-Young diagram of", p.parts, "with hook numbers:")
for row in p.hook_numbers():
    print("   " + " ".join(f"{h:>2}" for h in row))

print("\nconjugate partition:", p.conjugate().parts)
print("t-core profile:")
for t in range(2, 10):
    print(f"   t={t}: {'yes' if p.is_t_core(t) else 'no'}")

# Enumerate the 5-cores of 9 explicitly.
print("\n5-cores of 9:")
for q in partitions_of(9):
    if q.is_t_core(5):
        print("  ", q.parts)

# And let the exhaustive count cross-examine the generating function.
series = gen_c5(20)
print("\nn, brute-force count, series coefficient:")
for n in range(21):
    print(f"  {n:>2} {count_t_cores(n, 5):>4} {series[n]:>4}")
