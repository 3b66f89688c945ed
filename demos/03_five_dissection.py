#!/usr/bin/env python3
"""Splitting series by exponent residue classes mod 5.

Dissecting the partition generating function 1/f1 along residue classes
mod 5 makes Ramanujan's congruence p(5n+4) == 0 (mod 5) jump out of the
residue-4 component.  The closed forms for the components involve the
Rogers-Ramanujan quotient R(q); all four are verified here at N=300.
"""

from qcore import dissect, euler_f, evaluate_side, verify
from qcore.registry import P, R

N = 300

partition_gf = euler_f(1, N).invert()
print("p(n) for n = 0..14:", " ".join(str(partition_gf[n]) for n in range(15)))

components = dissect(partition_gf, 5).components
print("\nresidue-4 component (these are p(5n+4)):")
print("  ", " ".join(str(components[4][n]) for n in range(10)))
print("  every one divisible by 5:",
      all(c % 5 == 0 for c in components[4].coeffs))

# The quotient R(q) = f(-q,-q^4)/f(-q^2,-q^3) drives the closed-form
# dissections; R(1) gives its factors, and a one-term side expands them.
print("\nR(q) =", evaluate_side((P(1, 0, *R(1)),), 12))

for record_id in ("dissection.f1_5", "dissection.inv_f1_5",
                  "dissection.phi_5", "dissection.psi_5"):
    print(verify(record_id, N).to_line())

# The dissection is lossless: components reassemble the source exactly.
reassembled = dissect(partition_gf, 5).reassemble(N)
print("\nreassembly equals the source:", reassembled == partition_gf)
