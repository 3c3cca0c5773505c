"""knotcert: exact-arithmetic invariants, surgery calculus, and independence
certificates for twisted satellites of torus knots.

The library computes the integer-valued instanton index of Brieskorn
homology spheres with certified integrality, the closed-form Chern-Simons
and Pontryagin quantities of the surgery family Sigma(p, q, k*p*q - 1),
the torus decomposition of double branched covers of the satellites
D_n(T_{p,q}), the three definite cobordisms out of those covers, and the
growth criterion that certifies infinite families independent in the smooth
concordance group.  All certificate arithmetic is exact.
"""

__version__ = "0.21.0"

# Public name -> the submodule that defines it.  Names resolve on first access
# (PEP 562), so `import knotcert` loads no submodule and no mpmath.
_EXPORTS = {
    "THREE_SPHERE": "cobordisms",
    "BoundaryComponent": "cobordisms",
    "BranchedCover": "cobordisms",
    "CobordismLabel": "cobordisms",
    "CobordismRecord": "cobordisms",
    "SatelliteParams": "cobordisms",
    "ThreeSphere": "cobordisms",
    "build_P": "cobordisms",
    "build_R": "cobordisms",
    "build_Z": "cobordisms",
    "default_crossing_count": "cobordisms",
    "reverse_orientation": "cobordisms",
    "KILL_LONGITUDE": "covers",
    "KILL_MERIDIAN": "covers",
    "Slope": "covers",
    "CoverDecomposition": "covers",
    "TorusGluingMap": "covers",
    "TorusLinkExterior": "covers",
    "double_cover_decomposition": "covers",
    "moser_identify": "covers",
    "pattern_gluing_map": "covers",
    "post_surgery_gluing": "covers",
    "slope_from_filling": "covers",
    "BrieskornSphere": "cs_invariants",
    "CompactnessCheck": "cs_invariants",
    "CompactnessReport": "cs_invariants",
    "H1Data": "cs_invariants",
    "TauValue": "cs_invariants",
    "compactness_check": "cs_invariants",
    "count_reducibles": "cs_invariants",
    "lens_cs_lower_bound": "cs_invariants",
    "parity_obstruction": "cs_invariants",
    "pontryagin_number": "cs_invariants",
    "tau_brieskorn_family": "cs_invariants",
    "AllZeroCoefficients": "errors",
    "Definiteness": "errors",
    "IntegralityFailure": "errors",
    "InvalidParams": "errors",
    "KnotcertError": "errors",
    "UnsupportedSlope": "errors",
    "SNFResult": "exactmath",
    "SymIntMatrix": "exactmath",
    "definiteness": "exactmath",
    "smith_normal_form": "exactmath",
    "RValue": "fs_invariant",
    "r_exact": "fs_invariant",
    "r_invariant": "fs_invariant",
    "AssembledManifold": "obstruction",
    "ChainCheck": "obstruction",
    "Family": "obstruction",
    "IndependenceCertificate": "obstruction",
    "Verdict": "obstruction",
    "assemble_X": "obstruction",
    "certify_family": "obstruction",
    "doubled_growth": "obstruction",
    "furuta_chain_check": "obstruction",
    "generate_family": "obstruction",
    "next_member": "obstruction",
    "single_growth": "obstruction",
}

__all__ = tuple(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
