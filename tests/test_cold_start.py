"""What a fresh process loads: `import knotcert` loads no submodule, and a
command loads mpmath only when it evaluates R.

Each check runs in a new interpreter, because the imports of other tests in
this process would hide a module that is loaded too early.
"""

import json
import subprocess
import sys
import textwrap

import pytest

# The public names of the package as of 0.11.0 (59, as in 0.6.0).
PUBLIC_NAMES = {
    "AllZeroCoefficients", "AssembledManifold", "BoundaryComponent", "BranchedCover",
    "BrieskornSphere", "ChainCheck", "CobordismLabel", "CobordismRecord",
    "CompactnessCheck", "CompactnessReport", "CoverDecomposition", "Definiteness",
    "Family", "H1Data", "IndependenceCertificate", "IntegralityFailure", "InvalidParams",
    "KILL_LONGITUDE", "KILL_MERIDIAN", "KnotcertError", "RValue",
    "SNFResult", "SatelliteParams", "Slope", "SymIntMatrix", "THREE_SPHERE",
    "TauValue", "ThreeSphere", "TorusGluingMap", "TorusLinkExterior", "UnsupportedSlope",
    "Verdict", "assemble_X", "build_P", "build_R", "build_Z", "certify_family",
    "compactness_check", "count_reducibles", "default_crossing_count", "definiteness",
    "double_cover_decomposition", "doubled_growth", "furuta_chain_check",
    "generate_family", "lens_cs_lower_bound", "moser_identify", "next_member",
    "parity_obstruction", "pattern_gluing_map", "pontryagin_number",
    "post_surgery_gluing", "r_exact", "r_invariant", "reverse_orientation",
    "single_growth", "slope_from_filling",
    "smith_normal_form", "tau_brieskorn_family",
}

# One argv line per subcommand; r-invariant comes last because it loads mpmath.
COMMANDS = [
    ["tau", "2", "3", "1"],
    ["compactness", "--terminal", "2,5,2", "--boundary", "2,3,1"],
    ["cover", "2", "2", "3"],
    ["cobordism", "R", "2", "2", "3"],
    ["certify", "--family", "2,2,3;2,2,5"],
    ["generate", "--start", "2,2,3", "--count", "3", "--fix-n", "2"],
    ["snf", "2,0;0,3"],
    ["definiteness", "2,1;1,2"],
    ["r-invariant", "2", "3", "5"],
]


def run_fresh(code: str):
    """Run code in a new interpreter and return the JSON it prints."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout)


def test_import_loads_no_submodule_and_no_mpmath():
    loaded = run_fresh(
        """
        import json, sys
        import knotcert
        print(json.dumps(sorted(m for m in sys.modules if m.startswith(("knotcert.", "mpmath")))))
        """
    )
    assert loaded == []


def test_only_r_invariant_loads_mpmath():
    results = run_fresh(
        f"""
        import json, sys
        from knotcert.cli import dispatch
        results = []
        for argv in {COMMANDS!r}:
            code, _ = dispatch(argv)
            results.append([argv[0], code, "mpmath" in sys.modules])
        print(json.dumps(results))
        """
    )
    assert results == [[argv[0], 0, argv[0] == "r-invariant"] for argv in COMMANDS]


def test_every_export_resolves_to_its_defining_object():
    mismatched = run_fresh(
        """
        import importlib, json
        import knotcert
        print(json.dumps([
            name for name, module in knotcert._EXPORTS.items()
            if getattr(knotcert, name) is not getattr(importlib.import_module("knotcert." + module), name)
        ]))
        """
    )
    assert mismatched == []


def test_dir_and_star_import_give_the_public_names():
    names = run_fresh(
        """
        import inspect, json
        import knotcert
        listed = [n for n in dir(knotcert) if not n.startswith("_")]
        star = {}
        exec("from knotcert import *", star)
        print(json.dumps({
            "dir": [n for n in listed if not inspect.ismodule(getattr(knotcert, n))],
            "star": [n for n in star if n != "__builtins__"],
            "version": "__version__" in dir(knotcert),
        }))
        """
    )
    assert set(names["dir"]) == PUBLIC_NAMES
    assert len(names["dir"]) == len(PUBLIC_NAMES)
    assert set(names["star"]) == PUBLIC_NAMES
    assert names["version"]


def test_unknown_attribute_raises_attribute_error():
    import knotcert

    assert not hasattr(knotcert, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        knotcert.no_such_name
