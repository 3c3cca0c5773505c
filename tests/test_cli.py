"""CLI dispatch: formats, determinism, exit codes, usage errors."""

import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotcert import SatelliteParams, doubled_growth, single_growth
from knotcert.cli import MAX_FORM_HANDLES, MAX_GENERATE_COUNT, _dump, dispatch


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


def test_tolerance_flag_both_positions():
    _, before = run("--tolerance", "1e-45", "r-invariant", "2", "3", "7")
    _, after = run("r-invariant", "2", "3", "7", "--tolerance", "1e-45")
    assert before == after
    assert "precision_bits: 256" in after


def test_tolerance_flag_triggers_escalation():
    code, out = run("r-invariant", "2", "3", "7", "--tolerance", "1e-45")
    assert code == 0
    assert "precision_bits: 256" in out


def test_tolerance_below_the_float_range_keeps_its_exact_value():
    # As a float, 1e-400 is 0.0 and would be refused; the library takes
    # Fraction(1, 10**400) and runs at 2,048 bits, and so does the CLI.
    code, out = run("--tolerance", "1e-400", "r-invariant", "2", "3", "5")
    assert code == 0
    assert "precision_bits: 2048" in out.splitlines()


def test_r_invariant_over_the_term_budget_fails_fast_with_the_exact_value():
    start = time.perf_counter()
    code, out = run("r-invariant", "2", "3", "1000000007")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (
        1,
        "InvalidParams: R(2,3,1000000007) needs 1000000009 cotangent terms, more than the "
        "budget of 100000; its exact value (r_exact) is 1",
    )


def test_r_invariant_at_a_raised_precision_fails_fast_on_a_long_sum():
    start = time.perf_counter()
    code, out = run("--tolerance", "1e-600", "r-invariant", "2", "3", "99997")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (
        1,
        "InvalidParams: R(2,3,99997) needs 99999 cotangent terms at 2048 bits, more than the "
        "budget of 6250; its exact value (r_exact) is -1",
    )


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


@pytest.mark.parametrize("kind", ["R", "P"])
def test_cobordism_crossings_flag_applies_to_Z_only(kind):
    assert run("cobordism", kind, "2", "2", "3", "--crossings", "5") == (
        2,
        "usage error: --crossings applies to Z only",
    )


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


def test_empty_coefficient_field_is_usage_error():
    # An empty field once vanished: 1,,2 certified the combination 1,2.
    for text in ("1,,2", ",1,2"):
        code, out = run("certify", "--family", "2,2,3;2,2,5", "--coefficients", text)
        assert (code, out) == (2, f"usage error: bad coefficient list {text!r}")
    code, out = run("certify", "--family", "2,2,3;2,2,5", "--coefficients", "1,2,3")
    assert (code, out) == (1, "InvalidParams: 3 coefficients for 2 members")


@pytest.mark.parametrize(
    "argv, what",
    [
        (["certify", "--family", "2,2,3;;2,2,5"], "--family"),
        (["snf", "1,2;;3,4"], "matrix"),
        (["definiteness", "1,0;;0,1"], "matrix"),
        (["compactness", "--terminal", "2,5,2", "--boundary", "2,3,1;"], "--boundary"),
        (["certify", "--family", ";"], "--family"),
    ],
)
def test_empty_row_is_usage_error(argv, what):
    # Empty rows were once dropped: the first argv certified two members.
    assert run(*argv) == (2, f"usage error: bad {what} {argv[-1]!r}")


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


def test_certify_text_names_the_first_failing_pair():
    # Pairs 1 and 2 both fail; the verdict is the first of them.
    code, out = run("certify", "--family", "2,2,5;2,2,3;2,2,3", "--format", "text")
    assert code == 1
    assert out.splitlines()[-1] == "verdict: CriterionFails(1)"


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits") or sys.get_int_max_str_digits() == 0,
    reason="the interpreter prints integers of any length",
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_output_integer_past_the_digit_limit_is_a_domain_error(fmt):
    # k has as many digits as the interpreter reads, so tau's denominator
    # has about twice as many as it prints.
    k = str(10 ** (sys.get_int_max_str_digits() - 1) + 1)
    code, out = run("tau", "2", k, "1", "--format", fmt)
    assert code == 1
    assert out.startswith("InvalidParams: an output integer is too long to print")


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


def _no_json_numbers(text):
    raise AssertionError(f"JSON number {text} in CLI output")


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 4), st.integers(10**60, 10**61), st.integers(1, 10**60)),
        min_size=1,
        max_size=3,
    )
)
def test_certify_json_carries_huge_integers_as_exact_decimal_strings(draws):
    # q = p*d + 1 is coprime to p by construction
    members = [SatelliteParams(2 * half_n, p, p * d + 1) for half_n, p, d in draws]
    family = ";".join(f"{m.n},{m.p},{m.q}" for m in members)
    code, out = run("certify", "--family", family)
    assert code in (0, 1)
    payload = json.loads(out, parse_int=_no_json_numbers, parse_float=_no_json_numbers)
    assert [(int(m["n"]), int(m["p"]), int(m["q"])) for m in payload["family"]] == [
        (m.n, m.p, m.q) for m in members
    ]
    for check, (before, after) in zip(payload["chain_checks"], zip(members, members[1:])):
        assert int(check["lhs"]) == doubled_growth(before)
        assert int(check["rhs"]) == single_growth(after)
        assert len(check["lhs"]) > 100 and len(check["rhs"]) > 100
    assert len(payload["chain_checks"]) == len(members) - 1


def test_seed_flag_is_a_usage_error():
    # --seed was parsed but never read, so it was removed with KNOTCERT_SEED.
    code, out = run("--seed", "7", "tau", "2", "3", "1")
    assert code == 2
    assert out.startswith("usage error:")
    assert "--seed" in out


def test_bad_precision_is_usage_error():
    # --precision was removed, so a value above the 4096-bit cap can no longer
    # run silently at the cap: the working precision follows from --tolerance.
    for argv in (
        ["--precision", "10000", "r-invariant", "2", "3", "5"],
        ["r-invariant", "2", "3", "5", "--precision", "10000"],
    ):
        code, out = run(*argv)
        assert code == 2
        assert out.startswith("usage error: unrecognized arguments: --precision")
    # A refused tolerance is shown as given, not as the float it rounds to.
    for tolerance in ("0.7", "0.5", "nan", "inf", "1e400", "-1e-400"):
        code, out = run("r-invariant", "2", "3", "5", f"--tolerance={tolerance}")
        assert (code, out) == (2, f"usage error: tolerance must lie in (0, 1/2), got {tolerance}")
    for tolerance in ("abc", "1/3"):
        code, out = run("r-invariant", "2", "3", "5", "--tolerance", tolerance)
        assert (code, out) == (2, f"usage error: argument --tolerance: invalid float value: {tolerance!r}")


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


def test_generate_refuses_counts_over_the_budget():
    start = time.perf_counter()
    code, out = run("generate", "--start", "2,2,3", "--count", "1000000")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out.startswith("InvalidParams:")
    assert str(MAX_GENERATE_COUNT) in out


def test_generate_within_the_budget():
    code, out = run("generate", "--start", "2,2,3", "--count", str(MAX_GENERATE_COUNT))
    assert code == 0
    assert len(out.splitlines()) == MAX_GENERATE_COUNT + 1


def test_dump_writes_integers_and_fractions_as_strings():
    payload = {
        "b": True, "n": None, "s": "x", "i": -3, "h": 10**60,
        "f": Fraction(-3, 4), "g": Fraction(4), "t": ((1, 2), [3]),
    }
    assert _dump(payload) == "\n".join(
        [
            "{",
            '  "b": true,',
            '  "f": "-3/4",',
            '  "g": "4",',
            '  "h": "1' + "0" * 60 + '",',
            '  "i": "-3",',
            '  "n": null,',
            '  "s": "x",',
            '  "t": [',
            "    [",
            '      "1",',
            '      "2"',
            "    ],",
            "    [",
            '      "3"',
            "    ]",
            "  ]",
            "}",
        ]
    )


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
