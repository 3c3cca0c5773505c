"""The instanton index R of Brieskorn spheres is an integer.

R(a1, a2, a3) is a sum of ~a1+a2+a3 cotangent products plus 2/(a1*a2*a3),
so nothing about the formula looks integral -- yet it always rounds to an
integer, and on the surgery family Sigma(p, q, k*p*q - 1) the value is
exactly 1.  This script evaluates the sum with certified rounding and shows
the residuals, including what happens when the working precision escalates.
"""

import mpmath

from knotcert import BrieskornSphere, r_invariant

print("The surgery family Sigma(p, q, k*p*q - 1): R is identically 1")
print(f"{'sphere':>18} {'numeric':>12} {'rounded':>8} {'residual':>10}")
for p, q, k in [(2, 3, 1), (2, 3, 2), (2, 5, 1), (3, 4, 2), (5, 7, 3)]:
    sphere = BrieskornSphere(p, q, k * p * q - 1)
    rv = r_invariant(sphere)
    assert rv.rounded == 1
    print(
        f"{str(sphere):>18} {mpmath.nstr(rv.numeric, 8):>12} "
        f"{rv.rounded:>8} {mpmath.nstr(rv.residual, 3):>10}"
    )

print()
print("Outside the family the value varies (and can be negative):")
for triple in [(2, 3, 7), (2, 3, 13), (3, 4, 5), (5, 6, 7), (3, 5, 7), (7, 11, 13)]:
    rv = r_invariant(BrieskornSphere(*triple))
    print(f"  R{triple} = {rv.rounded}   (residual {mpmath.nstr(rv.residual, 3)})")

print()
print("Precision escalation: demanding a residual below the 128-bit floor")
rv = r_invariant(BrieskornSphere(2, 3, 7), tolerance=1e-45)
print(f"  tolerance 1e-45 forced {rv.precision_bits} working bits; "
      f"residual {mpmath.nstr(rv.residual, 3)}")
