"""The three definite cobordisms out of a branched double cover.

Z lowers the cover to a single Seifert fibered sphere (negative definite),
R kills it entirely (negative definite, empty outgoing boundary after the
4-ball cap), and P doubles it into two Seifert fibered spheres at the price
of positive definiteness.  Reversing P flips the form back to negative
definite, which is what the independence argument consumes.
"""

from knotcert import (
    SatelliteParams,
    SymIntMatrix,
    build_P,
    build_R,
    build_Z,
    definiteness,
    reverse_orientation,
)


def form_line(record):
    """The record's form, sign * I_handle_count, built dense and classified."""
    n = record.handle_count
    form = SymIntMatrix.from_rows([[record.sign if i == j else 0 for j in range(n)] for i in range(n)])
    return f"  form: {form}  ({definiteness(form)})"


params = SatelliteParams(n=2, p=2, q=5)
print(f"satellite: {params}\n")

for record in (build_Z(params), build_R(params), build_P(params)):
    outgoing = ", ".join(str(b) for b in record.outgoing) or "(empty)"
    print(f"{record}")
    print(f"  incoming: {record.incoming}")
    print(f"  outgoing: {outgoing}")
    print(form_line(record))
    print(f"  handles: {record.handle_count}, H1(.;Z/2) trivial: {record.h1_z2_trivial}")
    print()

rev = reverse_orientation(build_P(params))
print("reversed P (the block actually glued into the closed-up manifold):")
print(f"  outgoing: {', '.join(str(b) for b in rev.outgoing)}")
print(form_line(rev))

print()
print("Z with an explicit (non-minimal) unknotting sequence of 5 crossings:")
z5 = build_Z(params, crossings=5)
print(form_line(z5))
print(f"  outgoing unchanged: {z5.outgoing[0]}")
