"""Double branched covers of the satellites, and the slopes of their fillings.

The double cover of S^3 branched over D_n(T_{p,q}) splits into the exterior
of the (2, -2n) torus link and two copies of the torus-knot exterior; the
whole construction is captured by one unimodular 2x2 matrix per companion
copy.  Filling along the right curves turns each companion exterior into
surgery on T_{p,q}, and the slope (1/n, 1/(2n), or 1/0) is computed by
inverting the gluing matrix -- after which Moser's classification names the
resulting Seifert fibered sphere.
"""

from knotcert import (
    KILL_LONGITUDE,
    KILL_MERIDIAN,
    SatelliteParams,
    double_cover_decomposition,
    moser_identify,
    pattern_gluing_map,
    post_surgery_gluing,
    slope_from_filling,
)

params = SatelliteParams(n=4, p=2, q=3)
print(f"satellite: {params}")

dec = double_cover_decomposition(params)
print(f"exterior link: T{dec.exterior_link.link_parameters}, "
      f"components {dec.exterior_link.components}")
print(f"companion copies: {dec.companion_copies}")
for i, g in enumerate(dec.gluings, start=1):
    print(f"phi_{i} columns (images of mu_K, lambda_K): {g.matrix}, det {g.determinant}")

print()
print("filling slopes for a range of twist parameters:")
print(f"{'n':>4} {'meridian-disk fill':>20} {'+1 handles':>12} {'-1 handles':>12}")
for n in (2, 4, 6, 8):
    direct = slope_from_filling(pattern_gluing_map(n), KILL_LONGITUDE)
    plus = slope_from_filling(post_surgery_gluing(n, +1), KILL_MERIDIAN)
    minus = slope_from_filling(post_surgery_gluing(n, -1), KILL_MERIDIAN)
    print(f"{n:>4} {str(direct):>20} {str(plus):>12} {str(minus):>12}")

print()
print("Moser identification of the filled manifolds (p, q) = (2, 3):")
for n in (2, 4, 6):
    direct = slope_from_filling(pattern_gluing_map(n), KILL_LONGITUDE)
    plus = slope_from_filling(post_surgery_gluing(n, +1), KILL_MERIDIAN)
    minus = slope_from_filling(post_surgery_gluing(n, -1), KILL_MERIDIAN)
    print(f"  n={n}: {direct} -> {moser_identify(2, 3, direct)},  "
          f"{plus} -> {moser_identify(2, 3, plus)},  "
          f"{minus} -> {moser_identify(2, 3, minus)}")
