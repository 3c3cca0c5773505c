"""CLI dispatch: formats, determinism, exit codes, env overrides."""

import json
import subprocess
import sys
import time

from knotcert.cli import MAX_FORM_HANDLES, dispatch


def run(*argv):
    return dispatch(list(argv))


def test_tau_text_output():
    assert run("tau", "2", "3", "1") == (0, "1/30")
    assert run("tau", "2", "3", "2") == (0, "1/66")


def test_tau_json_round_trip():
    code, out = run("tau", "2", "3", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"p": "2", "q": "3", "k": "1", "tau": "1/30"}


def test_r_invariant_text():
    code, out = run("r-invariant", "2", "3", "5")
    assert code == 0
    lines = dict(line.split(": ") for line in out.splitlines())
    assert lines["rounded"] == "1"
    assert float(lines["residual"]) < 1e-6
    assert lines["precision_bits"] == "128"


def test_r_invariant_json_negative_value():
    code, out = run("r-invariant", "2", "3", "7", "--format", "json")
    assert code == 0
    assert json.loads(out)["rounded"] == "-1"


def test_precision_flag_both_positions():
    _, before = run("--precision", "256", "r-invariant", "2", "3", "5")
    _, after = run("r-invariant", "2", "3", "5", "--precision", "256")
    assert before == after
    assert "precision_bits: 256" in after


def test_precision_env_override(monkeypatch):
    monkeypatch.setenv("KNOTCERT_PRECISION_BITS", "512")
    _, out = run("r-invariant", "2", "3", "5")
    assert "precision_bits: 512" in out
    # explicit flag wins over the environment
    _, out = run("r-invariant", "2", "3", "5", "--precision", "128")
    assert "precision_bits: 128" in out


def test_tolerance_flag_triggers_escalation():
    code, out = run("r-invariant", "2", "3", "7", "--tolerance", "1e-45")
    assert code == 0
    assert "precision_bits: 256" in out


def test_bad_precision_is_usage_error():
    code, out = run("r-invariant", "2", "3", "5", "--precision", "32")
    assert code == 2
    assert "usage error" in out
    code, out = run("r-invariant", "2", "3", "5", "--tolerance", "0.7")
    assert code == 2


def test_output_is_deterministic():
    for argv in (
        ["tau", "2", "3", "1"],
        ["certify", "--family", "2,2,3;2,2,5"],
        ["cobordism", "Z", "2", "2", "3"],
        ["generate", "--start", "2,2,3", "--count", "5", "--fix-n", "2"],
    ):
        assert dispatch(list(argv)) == dispatch(list(argv))


def test_compactness_output():
    code, out = run("compactness", "--terminal", "2,5,2", "--boundary", "2,3,1")
    assert code == 0
    assert "1/190 < 1/30" in out
    assert out.endswith("compact")
    code, out = run(
        "compactness", "--terminal", "2,3,1", "--boundary", "2,5,2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["compact"] is False
    assert payload["checks"][-1] == {
        "label": "p1 < tau(2,5,2)",
        "lhs": "1/30",
        "rhs": "1/190",
        "ok": False,
    }


def test_compactness_empty_boundary():
    code, out = run("compactness", "--terminal", "2,3,1", "--format", "json")
    assert code == 0
    assert json.loads(out)["compact"] is True


def test_cover_json():
    code, out = run("cover", "2", "2", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["gluings"] == [
        [["-2", "1"], ["1", "0"]],
        [["-2", "1"], ["1", "0"]],
    ]
    assert payload["exterior_link"]["torus_link"] == ["2", "-4"]
    assert payload["companion_copies"] == "2"


def test_cobordism_json_fields():
    code, out = run("cobordism", "Z", "2", "2", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["label"] == "Z"
    assert payload["form"] == [["-1"]]
    assert payload["definiteness"] == "NegativeDefinite"
    assert payload["h1_z2_trivial"] is True
    assert payload["outgoing"][0]["space"]["multiplicities"] == ["2", "3", "11"]

    code, out = run("cobordism", "P", "2", "2", "5")
    payload = json.loads(out)
    assert payload["definiteness"] == "PositiveDefinite"
    assert payload["outgoing"][0]["multiplicity"] == "2"
    assert payload["outgoing"][0]["space"]["multiplicities"] == ["2", "5", "39"]


def test_cobordism_crossings_flag():
    code, out = run("cobordism", "Z", "2", "2", "3", "--crossings", "4")
    payload = json.loads(out)
    assert payload["handle_count"] == "4"
    assert len(payload["form"]) == 4


def test_certify_exit_codes_follow_verdict():
    code, out = run("certify", "--family", "2,2,3;2,2,5")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == {"kind": "Independent"}
    assert payload["chain_checks"][0]["lhs"] == "138"
    assert payload["chain_checks"][0]["rhs"] == "190"

    code, out = run("certify", "--family", "2,2,5;2,2,3")
    assert code == 1
    assert json.loads(out)["verdict"] == {"kind": "CriterionFails", "failing_index": "1"}


def test_certify_with_coefficients():
    # leading-minus values need the = form so argparse does not read a flag
    code, out = run("certify", "--family", "2,2,3;2,2,5", "--coefficients=-1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients_tested"] == ["-1", "1"]
    doubled = [b for b in payload["assembled_boundary"] if b["multiplicity"] == "2"]
    assert doubled[0]["space"]["multiplicities"] == ["2", "3", "23"]
    assert doubled[0]["space"]["orientation"] == "1"


def test_generate_csv():
    code, out = run("generate", "--start", "2,2,3", "--count", "3", "--fix-n", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,n,p,q,lhs,rhs"
    assert lines[1] == "1,2,2,3,138,66"
    assert lines[2] == "2,2,2,5,390,190"
    assert lines[3] == "3,2,3,5,885,435"


def test_generate_rows_satisfy_chain():
    code, out = run("generate", "--start", "2,2,3", "--count", "8", "--fix-n", "2")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    for prev, nxt in zip(rows, rows[1:]):
        assert int(prev[4]) < int(nxt[5])  # lhs_i < rhs_{i+1}


def test_snf_command():
    code, out = run("snf", "2,0;0,3")
    assert code == 0
    assert out.splitlines()[0] == "diagonal: 1, 6"
    code, out = run("snf", "--format", "json", "--", "-2,4;4,-8")
    payload = json.loads(out)
    assert payload["diagonal"] == ["2", "0"]


def test_definiteness_command():
    assert run("definiteness", "2,1;1,2") == (0, "PositiveDefinite")
    assert run("definiteness", "--", "-1,0;0,-1") == (0, "NegativeDefinite")
    assert run("definiteness", "1,2;2,1") == (0, "Indefinite")
    assert run("definiteness", "2,4;4,8") == (0, "Degenerate")


def test_domain_errors_exit_1_with_error_name():
    code, out = run("tau", "2", "4", "1")
    assert code == 1
    assert out.startswith("InvalidParams:")
    code, out = run("cover", "3", "2", "5")
    assert code == 1
    assert out.startswith("InvalidParams:")
    code, out = run("certify", "--family", "2,2,3", "--coefficients", "0")
    assert code == 1
    assert out.startswith("AllZeroCoefficients:")


def test_usage_errors_exit_2():
    assert run("nonsense")[0] == 2
    assert run("tau", "2", "3")[0] == 2
    assert run("certify", "--family", "2,2")[0] == 2
    assert run("generate", "--start", "2,2,3", "--count", "3", "--format", "widget")[0] == 2
    assert run()[0] == 2


def test_unsupported_format_combination_is_usage_error():
    code, out = run("certify", "--family", "2,2,3", "--format", "csv")
    assert code == 2
    assert "not supported" in out


def test_json_outputs_round_trip_through_schema():
    for argv in (
        ["certify", "--family", "2,2,3;2,2,5"],
        ["cover", "2", "2", "3"],
        ["cobordism", "P", "2", "2", "3"],
        ["tau", "2", "3", "1", "--format", "json"],
    ):
        code, out = run(*argv)
        assert code == 0
        assert json.dumps(json.loads(out), sort_keys=True, indent=2) == out


def test_seed_flag_is_a_usage_error():
    # --seed was parsed but never read, so it was removed with KNOTCERT_SEED.
    code, out = run("--seed", "7", "tau", "2", "3", "1")
    assert code == 2
    assert out.startswith("usage error:")


def test_cobordism_refuses_forms_over_the_output_budget():
    for argv in (
        ["cobordism", "R", "100000", "2", "3"],
        ["cobordism", "Z", "2", "2", "3", "--crossings", "1000000"],
    ):
        start = time.perf_counter()
        code, out = run(*argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out.startswith("InvalidParams:")
        assert str(MAX_FORM_HANDLES) in out


def test_cobordism_within_the_output_budget():
    code, out = run("cobordism", "R", "1000", "2", "3")
    assert code == 0
    assert json.loads(out)["handle_count"] == "1000"


def test_help_exits_zero():
    code, out = run("--help")
    assert code == 0
    assert "COMMAND" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "knotcert", "tau", "2", "3", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1/30"
