#!/usr/bin/env python3
"""Touring the identity registry.

Every identity, recurrence, and congruence the package knows about lives
in one declarative registry; the evaluator treats a record purely as data.
This demo verifies the core tier at a modest order, prints the data of one
series identity, and shows what a failure report looks like for a
deliberately corrupted record, checked with ``verify_record`` without
entering the registry.
"""

from qcore import summarize, verify, verify_all, verify_record
from qcore.identities import REGISTRY
from qcore.registry import SEQ, P, SeriesEquality

print("registered records:", len(REGISTRY))
for rid in list(REGISTRY)[:8]:
    print(f"  {rid:>24}  {REGISTRY[rid].statement}")
print("  ...")

print("\nverifying the core tier at N=400:")
reports = verify_all("core", 400)
print(" ", summarize(reports))

print("\na few individual reports:")
for rid in ("thm1.a20n6", "thm3.b5_20n_5", "cor1.mod5k", "derived.triangle"):
    print(" ", verify(rid, 400).to_line())

# A series identity is data: each side is a sum of product terms
# (coeff, shift, ((atom, exponent), ...)) that one evaluator expands.
print("\nsides of dissection.psi_5,", REGISTRY["dissection.psi_5"].statement)
for side in REGISTRY["dissection.psi_5"].sides:
    for term in side:
        print("  ", term)
    print("  --")

# Fault injection: verify a corrupted record, one that is not registered,
# and watch the report point at the first wrong coefficient.
corrupt = SeriesEquality(
    "demo.corrupt", "demo", "c5 series with a bump at q^9",
    ((P(1, 0, SEQ("c5")),), (P(1, 0, SEQ("c5")), P(1, 9))),
)
print("\ncorrupted record:")
print(" ", verify_record(corrupt, 50).to_line())
