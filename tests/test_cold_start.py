"""What a fresh process loads: `import knotcert` loads no submodule,
`knotcert.exactmath` loads no other layer and no `fractions`, each command
loads only the layers it calls, no command or demo 01 needs mpmath, which
only the tests' oracles use, and no command or layer loads `dataclasses`,
`inspect`, `typing` or `csv`, which the package does without.

Each check runs in a new interpreter, because the imports of other tests in
this process would hide a module that is loaded too early.  It starts with
-S, so no site hook (a .pth file that imports a package at start-up) loads
standard modules before knotcert does, and finds knotcert through PYTHONPATH.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# The public names of the package as of 0.15.0 (59, as in 0.6.0).
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

# One argv line per subcommand.
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
    """Run code in a new interpreter without site and return the JSON it prints."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
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


def test_exactmath_loads_neither_cs_invariants_nor_fractions():
    loaded = run_fresh(
        """
        import json, sys
        import knotcert.exactmath
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("knotcert") or m == "fractions")))
        """
    )
    assert loaded == ["knotcert", "knotcert.errors", "knotcert.exactmath"]


def test_every_command_and_demo_01_run_without_mpmath():
    # A None entry in sys.modules makes every import of mpmath fail.
    demo = ROOT / "demos" / "01_integrality_of_the_index.py"
    results = run_fresh(
        f"""
        import contextlib, io, json, runpy, sys
        sys.modules["mpmath"] = None
        from knotcert.cli import dispatch
        codes = [[argv[0], dispatch(argv)[0]] for argv in {COMMANDS!r}]
        with contextlib.redirect_stdout(io.StringIO()) as demo:
            runpy.run_path({str(demo)!r}, run_name="__main__")
        print(json.dumps({{"codes": codes, "demo": demo.getvalue()}}))
        """
    )
    golden = json.loads((ROOT / "tests" / "data" / "demos_golden.json").read_text())
    assert results["codes"] == [[argv[0], 0] for argv in COMMANDS]
    assert results["demo"] == golden[demo.name]


# The knotcert submodules that each command loads through dispatch.  Only
# r-invariant, or an explicit --tolerance, loads R's kernel (fs_invariant);
# only cover loads the surgery derivation (covers), with its Slope, so no
# linear algebra; Definiteness lives in errors, so cobordism, certify and
# generate load none either.
CERTIFY_LAYERS = ["cli", "cobordisms", "cs_invariants", "errors", "obstruction"]
COMMAND_LAYERS = [
    (["tau", "2", "3", "1"], ["cli", "cs_invariants", "errors"]),
    (["compactness", "--terminal", "2,5,2", "--boundary", "2,3,1"], ["cli", "cs_invariants", "errors"]),
    (["cover", "2", "2", "3"], ["cli", "cobordisms", "covers", "cs_invariants", "errors"]),
    (["cobordism", "R", "2", "2", "3"], ["cli", "cobordisms", "cs_invariants", "errors"]),
    (["certify", "--family", "2,2,3;2,2,5"], CERTIFY_LAYERS),
    (["generate", "--start", "2,2,3", "--count", "3", "--fix-n", "2"], CERTIFY_LAYERS),
    (["snf", "2,0;0,3"], ["cli", "errors", "exactmath"]),
    (["definiteness", "2,1;1,2"], ["cli", "errors", "exactmath"]),
    (["r-invariant", "2", "3", "5"], ["cli", "cs_invariants", "errors", "fs_invariant"]),
    (["tau", "2", "3", "1", "--tolerance", "1e-3"], ["cli", "cs_invariants", "errors", "fs_invariant"]),
]


def loaded_after(code: str) -> list[str]:
    """The knotcert submodules, without the prefix, that code leaves loaded."""
    return run_fresh(
        f"""
        import json, sys
        {code}
        print(json.dumps(sorted(m[9:] for m in sys.modules if m.startswith("knotcert."))))
        """
    )


@pytest.mark.parametrize("argv, layers", COMMAND_LAYERS, ids=[" ".join(argv) for argv, _ in COMMAND_LAYERS])
def test_each_command_loads_only_its_layers(argv, layers):
    assert loaded_after(f"from knotcert.cli import dispatch; assert dispatch({argv!r})[0] == 0") == layers


def test_records_load_no_linear_algebra():
    # A record carries its form as sign and size, so it needs no exactmath.
    assert loaded_after("import knotcert.cobordisms") == ["cobordisms", "cs_invariants", "errors"]


def test_certification_loads_neither_the_surgery_derivation_nor_r():
    assert loaded_after("import knotcert.obstruction") == ["cobordisms", "cs_invariants", "errors", "obstruction"]


LAYERS = ["cli", "cobordisms", "covers", "cs_invariants", "errors", "exactmath", "fs_invariant", "obstruction"]


# Standard modules the package does without.
UNNEEDED = ["dataclasses", "inspect", "typing", "csv"]


def test_no_command_or_layer_loads_dataclasses_inspect_typing_or_csv():
    loaded = run_fresh(
        f"""
        import json, sys
        from knotcert.cli import dispatch
        codes = [dispatch(argv)[0] for argv in {COMMANDS!r}]
        for layer in {LAYERS!r}:
            __import__("knotcert." + layer)
        print(json.dumps({{"codes": codes, "loaded": [m for m in {UNNEEDED!r} if m in sys.modules]}}))
        """
    )
    assert loaded == {"codes": [0] * len(COMMANDS), "loaded": []}


def test_no_package_module_imports_typing_csv_or_dataclasses():
    importers = []
    for path in sorted((ROOT / "src" / "knotcert").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in ("dataclasses", "typing", "csv") for name in names):
                importers.append(path.name)
    assert importers == []
    assert sorted(p.stem for p in (ROOT / "src" / "knotcert").glob("*.py")) == sorted(
        [*LAYERS, "__init__", "__main__"]
    )


def test_brieskorn_sphere_loads_only_its_family_rules():
    assert loaded_after("import knotcert; knotcert.BrieskornSphere") == ["cs_invariants", "errors"]


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
