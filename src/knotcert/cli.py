"""Command-line front end.

Subcommands: r-invariant, tau, compactness, cover, cobordism, certify,
generate, snf, definiteness.  Global flags --format/--precision/--tolerance
may be given before or after the subcommand; the KNOTCERT_* env vars
(KNOTCERT_PRECISION_BITS, KNOTCERT_TOLERANCE, KNOTCERT_FORMAT) supply
defaults that explicit flags override.

Output is deterministic: identical argv and config produce byte-identical
output.  In JSON, every semantic integer is serialized as a decimal string
so consumers with bounded integers never overflow; rationals are "p/q"
strings.  Exit codes: 0 success (for certify: verdict Independent), 1 domain
error or failed verdict, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from . import cobordisms, covers, cs_invariants, exactmath, fs_invariant, obstruction
from .errors import InvalidParams, KnotcertError

ENV_PREFIX = "KNOTCERT_"
NUMERIC_DIGITS = 30  # significant digits when printing multiprecision values
# cobordism prints its dense n x n form; larger records fail with
# InvalidParams (exit 1) instead of printing n^2 entries.
MAX_FORM_HANDLES = 1024


class UsageError(Exception):
    pass


@dataclass
class Config:
    precision_bits: int = fs_invariant.DEFAULT_PRECISION_BITS
    integrality_tolerance: float = fs_invariant.DEFAULT_TOLERANCE
    output_format: str | None = None  # None: per-command default

    def __post_init__(self) -> None:
        if self.precision_bits < 64:
            raise UsageError(f"precision must be >= 64 bits, got {self.precision_bits}")
        if not 0 < self.integrality_tolerance < 0.5:
            raise UsageError(
                f"tolerance must lie in (0, 1/2), got {self.integrality_tolerance}"
            )
        if self.output_format not in (None, "json", "csv", "text"):
            raise UsageError(f"unknown format {self.output_format!r}")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


# ---------------------------------------------------------------------------
# argv parsing helpers


def _parse_ints(text: str, expected: int, what: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != expected:
        raise UsageError(f"{what} needs {expected} comma-separated integers, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad integer in {what}: {text!r}") from exc


def _parse_triples(text: str, what: str) -> list[tuple[int, int, int]]:
    chunks = [c for c in (piece.strip() for piece in text.split(";")) if c]
    return [_parse_ints(c, 3, what) for c in chunks]


def _parse_matrix(text: str) -> list[list[int]]:
    rows = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            rows.append([int(p.strip()) for p in chunk.split(",")])
        except ValueError as exc:
            raise UsageError(f"bad matrix row {chunk!r}") from exc
    if not rows:
        raise UsageError("empty matrix")
    return rows


def _parse_coefficients(text: str) -> list[int]:
    try:
        return [int(p.strip()) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise UsageError(f"bad coefficient list {text!r}") from exc


# ---------------------------------------------------------------------------
# JSON encoding (integers as decimal strings)


def _frac(x: Fraction) -> str:
    return str(x)


def _matrix(m: exactmath.SymIntMatrix) -> list[list[str]]:
    return [[str(v) for v in row] for row in m.entries]


def _space(s: cobordisms.BoundarySpace) -> dict:
    if isinstance(s, fs_invariant.BrieskornSphere):
        return {
            "type": "brieskorn",
            "multiplicities": [str(v) for v in s.multiplicities],
            "orientation": str(s.orientation),
        }
    if isinstance(s, covers.BranchedCover):
        return {
            "type": "cover",
            "n": str(s.params.n),
            "p": str(s.params.p),
            "q": str(s.params.q),
            "orientation": str(s.orientation),
        }
    if isinstance(s, covers.ThreeSphere):
        return {"type": "s3"}
    raise TypeError(f"unknown boundary space {s!r}")


def _component(bc: cobordisms.BoundaryComponent) -> dict:
    return {"space": _space(bc.space), "multiplicity": str(bc.multiplicity)}


def _satellite(m: covers.SatelliteParams) -> dict:
    return {"n": str(m.n), "p": str(m.p), "q": str(m.q)}


def _verdict(v: obstruction.Verdict) -> dict:
    if v.independent:
        return {"kind": "Independent"}
    return {"kind": "CriterionFails", "failing_index": str(v.failing_index)}


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _render(fmt: str, payload: dict, text: str) -> str:
    return _dump(payload) if fmt == "json" else text


def _pick_format(config: Config, default: str, allowed: tuple[str, ...]) -> str:
    fmt = config.output_format or default
    if fmt not in allowed:
        raise UsageError(f"format {fmt!r} not supported here (allowed: {', '.join(allowed)})")
    return fmt


# ---------------------------------------------------------------------------
# subcommand handlers: (args, config) -> (exit code, output)


def _cmd_r_invariant(args, config: Config):
    fmt = _pick_format(config, "text", ("text", "json"))
    sphere = fs_invariant.BrieskornSphere(args.a1, args.a2, args.a3)
    rv = fs_invariant.r_invariant(
        sphere,
        precision_bits=config.precision_bits,
        tolerance=config.integrality_tolerance,
    )
    numeric = mpmath.nstr(rv.numeric, NUMERIC_DIGITS)
    residual = mpmath.nstr(rv.residual, 5)
    payload = {
        "multiplicities": [str(v) for v in sphere.multiplicities],
        "numeric": numeric,
        "rounded": str(rv.rounded),
        "residual": residual,
        "precision_bits": str(rv.precision_bits),
    }
    text = "\n".join(
        [
            f"numeric: {numeric}",
            f"rounded: {rv.rounded}",
            f"residual: {residual}",
            f"precision_bits: {rv.precision_bits}",
        ]
    )
    return 0, _render(fmt, payload, text)


def _cmd_tau(args, config: Config):
    fmt = _pick_format(config, "text", ("text", "json"))
    tau = cs_invariants.tau_brieskorn_family(args.p, args.q, args.k)
    payload = {
        "p": str(args.p),
        "q": str(args.q),
        "k": str(args.k),
        "tau": _frac(tau.value),
    }
    return 0, _render(fmt, payload, _frac(tau.value))


def _cmd_compactness(args, config: Config):
    fmt = _pick_format(config, "text", ("text", "json"))
    terminal = _parse_ints(args.terminal, 3, "--terminal")
    boundary = _parse_triples(args.boundary, "--boundary") if args.boundary else []
    report = cs_invariants.compactness_check(boundary, terminal)
    payload = {
        "terminal": [str(v) for v in terminal],
        "boundary": [[str(v) for v in t] for t in boundary],
        "checks": [
            {"label": c.label, "lhs": _frac(c.lhs), "rhs": _frac(c.rhs), "ok": c.ok}
            for c in report.checks
        ],
        "compact": report.ok,
    }
    return 0, _render(fmt, payload, str(report))


def _cmd_cover(args, config: Config):
    fmt = _pick_format(config, "json", ("json", "text"))
    params = covers.SatelliteParams(args.n, args.p, args.q)
    dec = covers.double_cover_decomposition(params)
    payload = {
        "input": _satellite(params),
        "exterior_link": {
            "torus_link": [str(v) for v in dec.exterior_link.link_parameters],
            "components": list(dec.exterior_link.components),
        },
        "companion_copies": str(dec.companion_copies),
        "gluings": [[[str(v) for v in row] for row in g.matrix] for g in dec.gluings],
    }
    text = "\n".join(
        [
            f"cover of {params}",
            f"exterior link: T{dec.exterior_link.link_parameters} with components "
            + ", ".join(dec.exterior_link.components),
            f"companion copies: {dec.companion_copies}",
            *(f"gluing {i + 1}: {g.matrix}" for i, g in enumerate(dec.gluings)),
        ]
    )
    return 0, _render(fmt, payload, text)


def _cmd_cobordism(args, config: Config):
    fmt = _pick_format(config, "json", ("json", "text"))
    params = covers.SatelliteParams(args.n, args.p, args.q)
    if args.kind == "Z":
        record = cobordisms.build_Z(params, crossings=args.crossings)
    elif args.kind == "R":
        record = cobordisms.build_R(params)
    else:
        record = cobordisms.build_P(params)
    if record.handle_count > MAX_FORM_HANDLES:
        raise InvalidParams(
            f"form of {record.handle_count} handles exceeds the output budget of "
            f"{MAX_FORM_HANDLES} handles"
        )
    form = record.form
    defin = exactmath.sign_blocks_definiteness([record.sign])
    payload = {
        "label": record.label.value,
        "params": _satellite(params),
        "incoming": _component(record.incoming),
        "outgoing": [_component(b) for b in record.outgoing],
        "form": _matrix(form),
        "definiteness": defin.value,
        "h1_z2_trivial": record.h1_z2_trivial,
        "handle_count": str(record.handle_count),
    }
    text = "\n".join(
        [
            f"{record}: {record.incoming} -> "
            + (", ".join(str(b) for b in record.outgoing) if record.outgoing else "(empty)"),
            f"form: {form} ({defin})",
            f"h1_z2_trivial: {record.h1_z2_trivial}",
        ]
    )
    return 0, _render(fmt, payload, text)


def _cmd_certify(args, config: Config):
    fmt = _pick_format(config, "json", ("json", "text"))
    triples = _parse_triples(args.family, "--family")
    family = obstruction.Family(tuple(covers.SatelliteParams(*t) for t in triples))
    coefficients = _parse_coefficients(args.coefficients) if args.coefficients else None
    cert = obstruction.certify_family(family, coefficients)
    payload = {
        "family": [_satellite(m) for m in cert.family.members],
        "chain_checks": [
            {"index": str(c.index), "lhs": str(c.lhs), "rhs": str(c.rhs), "ok": c.ok}
            for c in cert.chain_checks
        ],
        "coefficients_tested": None
        if cert.coefficients_tested is None
        else [str(c) for c in cert.coefficients_tested],
        "assembled_boundary": [_component(b) for b in cert.assembled_boundary],
        "total_form_definiteness": cert.total_form_definiteness.value,
        "h1_z2_trivial": cert.h1_z2_trivial,
        "verdict": _verdict(cert.verdict),
    }
    lines = [f"family: {cert.family}"]
    for c in cert.chain_checks:
        rel = "<" if c.ok else "!<"
        lines.append(f"pair {c.index}: {c.lhs} {rel} {c.rhs}")
    lines.append(f"verdict: {cert.verdict}")
    code = 0 if cert.verdict.independent else 1
    return code, _render(fmt, payload, "\n".join(lines))


def _cmd_generate(args, config: Config):
    fmt = _pick_format(config, "csv", ("csv", "json", "text"))
    n, p, q = _parse_ints(args.start, 3, "--start")
    start = covers.SatelliteParams(n, p, q)
    family = obstruction.generate_family(start, args.count, fix_n=args.fix_n)
    rows = [
        {
            "index": i + 1,
            "n": m.n,
            "p": m.p,
            "q": m.q,
            "lhs": obstruction.doubled_growth(m),
            "rhs": obstruction.single_growth(m),
        }
        for i, m in enumerate(family.members)
    ]
    if fmt == "json":
        payload = {"rows": [{k: str(v) for k, v in row.items()} for row in rows]}
        return 0, _dump(payload)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, ["index", "n", "p", "q", "lhs", "rhs"], lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return 0, buf.getvalue().rstrip("\n")


def _cmd_snf(args, config: Config):
    fmt = _pick_format(config, "text", ("text", "json"))
    result = exactmath.smith_normal_form(_parse_matrix(args.matrix))
    payload = {
        "diagonal": [str(v) for v in result.diagonal],
        "left": [[str(v) for v in row] for row in result.left],
        "right": [[str(v) for v in row] for row in result.right],
    }
    def rows_str(rows):
        return "[" + "; ".join(", ".join(str(v) for v in r) for r in rows) + "]"
    text = "\n".join(
        [
            "diagonal: " + ", ".join(str(v) for v in result.diagonal),
            "left: " + rows_str(result.left),
            "right: " + rows_str(result.right),
        ]
    )
    return 0, _render(fmt, payload, text)


def _cmd_definiteness(args, config: Config):
    fmt = _pick_format(config, "text", ("text", "json"))
    m = exactmath.SymIntMatrix.from_rows(_parse_matrix(args.matrix))
    result = exactmath.definiteness(m)
    return 0, _render(fmt, {"definiteness": result.value}, result.value)


# ---------------------------------------------------------------------------
# parser construction and dispatch


def _global_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"), default=argparse.SUPPRESS)
    common.add_argument("--precision", type=int, metavar="BITS", default=argparse.SUPPRESS)
    common.add_argument("--tolerance", type=float, metavar="T", default=argparse.SUPPRESS)
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _global_flags()
    parser = _Parser(prog="knotcert", parents=[common], description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("r-invariant", parents=[common], help="integral instanton index R(a1,a2,a3)")
    p.add_argument("a1", type=int)
    p.add_argument("a2", type=int)
    p.add_argument("a3", type=int)
    p.set_defaults(handler=_cmd_r_invariant)

    p = sub.add_parser("tau", parents=[common], help="minimal Chern-Simons value of Sigma(p,q,k*p*q-1)")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(handler=_cmd_tau)

    p = sub.add_parser("compactness", parents=[common], help="moduli compactness test")
    p.add_argument("--terminal", required=True, metavar="p,q,k")
    p.add_argument("--boundary", default="", metavar="p,q,k[;p,q,k...]")
    p.set_defaults(handler=_cmd_compactness)

    p = sub.add_parser("cover", parents=[common], help="double branched cover decomposition")
    p.add_argument("n", type=int)
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(handler=_cmd_cover)

    p = sub.add_parser("cobordism", parents=[common], help="build a Z/R/P cobordism record")
    p.add_argument("kind", choices=("Z", "R", "P"))
    p.add_argument("n", type=int)
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--crossings", type=int, default=None, metavar="c")
    p.set_defaults(handler=_cmd_cobordism)

    p = sub.add_parser("certify", parents=[common], help="independence certificate for a family")
    p.add_argument("--family", required=True, metavar="n,p,q;n,p,q;...")
    p.add_argument(
        "--coefficients",
        default="",
        metavar="c1,c2,...",
        help="combination to assemble; write --coefficients=-1,1 for negative values",
    )
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("generate", parents=[common], help="extend a family through the growth criterion")
    p.add_argument("--start", required=True, metavar="n,p,q")
    p.add_argument("--count", type=int, required=True, metavar="K")
    p.add_argument("--fix-n", type=int, default=None, dest="fix_n", metavar="N")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("snf", parents=[common], help="Smith normal form with transforms")
    p.add_argument("matrix", metavar="ROWS", help="e.g. \"2,0;0,3\"")
    p.set_defaults(handler=_cmd_snf)

    p = sub.add_parser("definiteness", parents=[common], help="sign type of a symmetric form")
    p.add_argument("matrix", metavar="ROWS", help="e.g. \"2,1;1,2\"")
    p.set_defaults(handler=_cmd_definiteness)

    return parser


def _env_value(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name)


def _config_from(args: argparse.Namespace) -> Config:
    def pick(attr: str, env: str, cast, default):
        value = getattr(args, attr, None)
        if value is not None:
            return value
        raw = _env_value(env)
        if raw is not None:
            try:
                return cast(raw)
            except ValueError as exc:
                raise UsageError(f"bad {ENV_PREFIX}{env} value {raw!r}") from exc
        return default

    return Config(
        precision_bits=pick("precision", "PRECISION_BITS", int, fs_invariant.DEFAULT_PRECISION_BITS),
        integrality_tolerance=pick("tolerance", "TOLERANCE", float, fs_invariant.DEFAULT_TOLERANCE),
        output_format=pick("format", "FORMAT", str, None),
    )


def dispatch(argv: list[str]) -> tuple[int, str]:
    """Parse argv, run the command, and return (exit code, output text)."""
    parser = build_parser()
    captured = io.StringIO()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            args = parser.parse_args(argv)
    except UsageError as exc:
        return 2, f"usage error: {exc}"
    except SystemExit as exc:  # --help
        return int(exc.code or 0), captured.getvalue().rstrip("\n")
    if getattr(args, "handler", None) is None:
        return 2, "usage error: a subcommand is required (see --help)"
    try:
        config = _config_from(args)
        return args.handler(args, config)
    except UsageError as exc:
        return 2, f"usage error: {exc}"
    except KnotcertError as exc:
        return 1, f"{type(exc).__name__}: {exc}"


def main() -> None:
    code, output = dispatch(sys.argv[1:])
    if output:
        print(output)
    sys.exit(code)
