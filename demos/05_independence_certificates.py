"""End to end: from a growth condition to an independence certificate.

A family D_{n_i}(T_{p_i,q_i}) is independent in the smooth concordance
group as soon as consecutive members satisfy

    p_i q_i (2 n_i p_i q_i - 1)  <  p_{i+1} q_{i+1} (n_{i+1} p_{i+1} q_{i+1} - 1).

certify_family checks the inequality chain with exact integers and records
the boundary and intersection-form data of the obstruction manifold; the
generator extends any prefix to an arbitrarily long admissible chain.
"""

from knotcert import (
    Family,
    SatelliteParams,
    assemble_X,
    certify_family,
    generate_family,
    next_member,
)
from knotcert.cli import dispatch

pair = Family((SatelliteParams(2, 2, 3), SatelliteParams(2, 2, 5)))
cert = certify_family(pair)
print(f"family {pair}")
for check in cert.chain_checks:
    rel = "<" if check.ok else "!<"
    print(f"  pair {check.index}: {check.lhs} {rel} {check.rhs}")
print(f"  verdict: {cert.verdict}\n")

bad = certify_family(Family(tuple(reversed(pair.members))))
print(f"reversed order: verdict {bad.verdict}\n")

print("growing a 10-member chain with twist fixed at 2:")
family = generate_family(SatelliteParams(2, 2, 3), 10, fix_n=2)
for i, m in enumerate(family.members, start=1):
    print(f"  {i:>2}: {m}")
print(f"  verdict: {certify_family(family).verdict}\n")

print("with the twist parameter free, (2,3) absorbs the growth into n:")
free = Family((SatelliteParams(2, 2, 3),))
for _ in range(4):
    free = Family(free.members + (next_member(free),))
print("  " + ", ".join(str(m) for m in free.members))
print(f"  verdict: {certify_family(free).verdict}\n")

print("assembling the obstruction manifold for the combination -1*(first) +1*(second):")
assembled = assemble_X(pair, [-1, 1])
for piece in assembled.boundary:
    print(f"  boundary: {piece}")
print(f"  form dimension {assembled.rank}, H1(.;Z/2) trivial: "
      f"{assembled.h1_z2_trivial}")

print()
print("the same certificate through the CLI (exit code 0 iff independent):")
code, out = dispatch(["certify", "--family", "2,2,3;2,2,5", "--format", "text"])
print(out)
print(f"exit code: {code}")
