"""Command-line front end.

Subcommands: r-invariant, tau, compactness, cover, cobordism, certify,
generate, snf, definiteness.  Global flags --format/--tolerance may be
given before or after the subcommand.

Output is deterministic: identical argv produce byte-identical output.  In
JSON, every semantic integer is serialized as a decimal string so consumers
with bounded integers never overflow; rationals are "p/q" strings.  Exit
codes: 0 success (for certify: verdict Independent), 1 domain error or failed
verdict, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from decimal import Decimal
from fractions import Fraction

# The one layer imported here: each handler imports the layer modules it
# calls, so a process pays only for its own command.
from .errors import Definiteness, InvalidParams, KnotcertError

# cobordism prints its dense n x n form; larger records fail with
# InvalidParams (exit 1) instead of printing n^2 entries.
MAX_FORM_HANDLES = 1024
# generate refuses larger counts likewise.  That bounds the rows, not the time:
# with --fix-n each successor search restarts, and the product p*q it must
# reach doubles every two members.
MAX_GENERATE_COUNT = 1024


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


# ---------------------------------------------------------------------------
# argv parsing helpers


def _ints(text: str, what: str, width: int | None = None) -> tuple[int, ...]:
    """Comma-separated integers.  An empty or non-integer field, or a count
    other than width, is a usage error."""
    try:
        values = tuple(int(field) for field in text.split(","))
        if width is None or len(values) == width:
            return values
    except ValueError:
        pass
    raise UsageError(f"bad {what} {text!r}")


class _Tolerance(Decimal):
    """--tolerance T at its exact value, which a float would round (1e-400 to
    0), shown as T in messages."""

    def __new__(cls, text: str):
        try:
            self = super().__new__(cls, text)
        except ArithmeticError:  # decimal.InvalidOperation
            raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
        self.text = text
        return self

    def __repr__(self) -> str:
        return self.text


def _int_rows(text: str, what: str, width: int | None = None) -> list[tuple[int, ...]]:
    """Rows of _ints separated by ';'; an empty row is a usage error too."""
    try:
        return [_ints(row, what, width) for row in text.split(";")]
    except UsageError:
        raise UsageError(f"bad {what} {text!r}") from None


# ---------------------------------------------------------------------------
# JSON encoding.  Handlers build payloads from ints, Fractions, tuples, bools,
# None and str; _dump is the one place that applies the schema.  (The module
# docstring is the --help text, so it does not name private functions.)


def _fields(value) -> dict:
    """A value's fields by name, in their order."""
    return dict(zip(value.__slots__, value._values()))


def _space(s) -> dict:
    """A Brieskorn sphere (every outgoing and assembled end) or a cover (an
    incoming end): no command prints an S^3 end."""
    from . import cobordisms

    if isinstance(s, cobordisms.BrieskornSphere):
        return {"type": "brieskorn", "multiplicities": s.multiplicities, "orientation": s.orientation}
    return {"type": "cover", **_fields(s.params), "orientation": s.orientation}


def _component(bc) -> dict:
    return {"space": _space(bc.space), "multiplicity": bc.multiplicity}


def _verdict(v) -> dict:
    if v.independent:
        return {"kind": "Independent"}
    return {"kind": "CriterionFails", "failing_index": v.failing_index}


def _schema(v):
    # Exact type tests: bool stays a JSON boolean, and the walk stays cheap on
    # the million entries of a large cobordism form.
    t = type(v)
    if t is int or t is Fraction:
        return str(v)
    if t is dict:
        return {k: _schema(x) for k, x in v.items()}
    if t is list or t is tuple:
        return [_schema(x) for x in v]
    return v


def _dump(obj: dict) -> str:
    import json

    return json.dumps(_schema(obj), sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# subcommand handlers: args -> (exit code, payload, text).  The payload is
# what --format json prints; text is a zero-argument callable that renders
# every other format, so it runs only when asked for.  Each subparser lists
# its formats, default first, and dispatch alone picks and renders one.


def _rows(matrix) -> str:
    """A matrix as text: "[a, b; c, d]"."""
    return "[" + "; ".join(", ".join(str(v) for v in row) for row in matrix) + "]"


def _cmd_r_invariant(args):
    from . import fs_invariant

    sphere = fs_invariant.BrieskornSphere(args.a1, args.a2, args.a3)
    rv = fs_invariant.r_invariant(sphere, getattr(args, "tolerance", fs_invariant.DEFAULT_TOLERANCE))
    # numeric and residual are integers (R and 0), which float prints exactly,
    # as "-1.0" and "0.0".  Text prints these fields, in this order.
    fields = {
        "numeric": str(float(rv.numeric)),
        "rounded": rv.rounded,
        "residual": str(float(rv.residual)),
        "precision_bits": rv.precision_bits,
    }
    payload = {"multiplicities": sphere.multiplicities, **fields}
    return 0, payload, lambda: "\n".join(f"{key}: {value}" for key, value in fields.items())


def _cmd_tau(args):
    from . import cs_invariants

    tau = cs_invariants.tau_brieskorn_family(args.p, args.q, args.k)
    payload = {"p": args.p, "q": args.q, "k": args.k, "tau": tau.value}
    return 0, payload, lambda: str(tau.value)


def _cmd_compactness(args):
    from . import cs_invariants

    terminal = _ints(args.terminal, "--terminal", 3)
    boundary = _int_rows(args.boundary, "--boundary", 3) if args.boundary else []
    report = cs_invariants.compactness_check(boundary, terminal)
    payload = {
        "terminal": terminal,
        "boundary": boundary,
        "checks": [{**_fields(c), "ok": c.ok} for c in report.checks],
        "compact": report.ok,
    }
    return 0, payload, lambda: str(report)


def _cmd_cover(args):
    from . import covers

    params = covers.SatelliteParams(args.n, args.p, args.q)
    dec = covers.double_cover_decomposition(params)
    payload = {
        "input": _fields(params),
        "exterior_link": {
            "torus_link": dec.exterior_link.link_parameters,
            "components": dec.exterior_link.components,
        },
        "companion_copies": dec.companion_copies,
        "gluings": [g.matrix for g in dec.gluings],
    }
    return 0, payload, lambda: "\n".join(
        [
            f"cover of {params}",
            f"exterior link: T{dec.exterior_link.link_parameters} with components "
            + ", ".join(dec.exterior_link.components),
            f"companion copies: {dec.companion_copies}",
            *(f"gluing {i + 1}: {g.matrix}" for i, g in enumerate(dec.gluings)),
        ]
    )


def _cmd_cobordism(args):
    from . import cobordisms

    params = cobordisms.SatelliteParams(args.n, args.p, args.q)
    if args.crossings is not None and args.kind != "Z":
        raise UsageError("--crossings applies to Z only")
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
    # The record carries its form as sign and size; only this output is dense.
    size = record.handle_count
    form = [[record.sign if i == j else 0 for j in range(size)] for i in range(size)]
    defin = Definiteness.NEGATIVE_DEFINITE if record.sign < 0 else Definiteness.POSITIVE_DEFINITE
    payload = {
        "label": record.label.value,
        "params": _fields(params),
        "incoming": _component(record.incoming),
        "outgoing": [_component(b) for b in record.outgoing],
        "form": form,
        "definiteness": defin.value,
        "h1_z2_trivial": record.h1_z2_trivial,
        "handle_count": size,
    }
    return 0, payload, lambda: "\n".join(
        [
            f"{record}: {record.incoming} -> "
            + (", ".join(str(b) for b in record.outgoing) if record.outgoing else "(empty)"),
            f"form: {_rows(form)} ({defin})",
            f"h1_z2_trivial: {record.h1_z2_trivial}",
        ]
    )


def _cmd_certify(args):
    from . import obstruction

    triples = _int_rows(args.family, "--family", 3)
    family = obstruction.Family(tuple(obstruction.SatelliteParams(*t) for t in triples))
    coefficients = None if args.coefficients is None else _ints(args.coefficients, "coefficient list")
    cert = obstruction.certify_family(family, coefficients)
    payload = {
        "family": [_fields(m) for m in cert.family.members],
        "chain_checks": [{**_fields(c), "ok": c.ok} for c in cert.chain_checks],
        "coefficients_tested": cert.coefficients_tested,
        "assembled_boundary": [_component(b) for b in cert.assembled_boundary],
        "total_form_definiteness": cert.total_form_definiteness.value,
        "h1_z2_trivial": cert.h1_z2_trivial,
        "verdict": _verdict(cert.verdict),
    }
    code = 0 if cert.verdict.independent else 1
    return code, payload, lambda: "\n".join(
        [
            f"family: {cert.family}",
            *(f"pair {c.index}: {c.lhs} {'<' if c.ok else '!<'} {c.rhs}" for c in cert.chain_checks),
            f"verdict: {cert.verdict}",
        ]
    )


def _cmd_generate(args):
    from . import obstruction

    n, p, q = _ints(args.start, "--start", 3)
    start = obstruction.SatelliteParams(n, p, q)
    if args.count > MAX_GENERATE_COUNT:
        raise InvalidParams(f"count {args.count} exceeds the budget of {MAX_GENERATE_COUNT} members")
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

    # Every field is an integer, so a CSV row is its fields joined by commas.
    return 0, {"rows": rows}, lambda: "\n".join(
        ["index,n,p,q,lhs,rhs", *(",".join(map(str, row.values())) for row in rows)]
    )


def _cmd_snf(args):
    from . import exactmath

    result = exactmath.smith_normal_form(_int_rows(args.matrix, "matrix"))
    return 0, _fields(result), lambda: "\n".join(
        [
            "diagonal: " + ", ".join(str(v) for v in result.diagonal),
            "left: " + _rows(result.left),
            "right: " + _rows(result.right),
        ]
    )


def _cmd_definiteness(args):
    from . import exactmath

    m = exactmath.SymIntMatrix.from_rows(_int_rows(args.matrix, "matrix"))
    result = exactmath.definiteness(m)
    return 0, {"definiteness": result.value}, lambda: result.value


# ---------------------------------------------------------------------------
# parser construction and dispatch


def _global_flags() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"), default=argparse.SUPPRESS)
    common.add_argument("--tolerance", type=_Tolerance, metavar="T", default=argparse.SUPPRESS)
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _global_flags()
    # exit_on_error=False lets dispatch see which argument argparse rejected.
    parser = _Parser(prog="knotcert", parents=[common], description=__doc__, exit_on_error=False)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("r-invariant", parents=[common], help="integral instanton index R(a1,a2,a3)")
    p.add_argument("a1", type=int)
    p.add_argument("a2", type=int)
    p.add_argument("a3", type=int)
    p.set_defaults(handler=_cmd_r_invariant, formats=("text", "json"))

    p = sub.add_parser("tau", parents=[common], help="minimal Chern-Simons value of Sigma(p,q,k*p*q-1)")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(handler=_cmd_tau, formats=("text", "json"))

    p = sub.add_parser("compactness", parents=[common], help="moduli compactness test")
    p.add_argument("--terminal", required=True, metavar="p,q,k")
    p.add_argument("--boundary", default="", metavar="p,q,k[;p,q,k...]")
    p.set_defaults(handler=_cmd_compactness, formats=("text", "json"))

    p = sub.add_parser("cover", parents=[common], help="double branched cover decomposition")
    p.add_argument("n", type=int)
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(handler=_cmd_cover, formats=("json", "text"))

    p = sub.add_parser("cobordism", parents=[common], help="build a Z/R/P cobordism record")
    p.add_argument("kind", choices=("Z", "R", "P"))
    p.add_argument("n", type=int)
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--crossings", type=int, default=None, metavar="c")
    p.set_defaults(handler=_cmd_cobordism, formats=("json", "text"))

    p = sub.add_parser("certify", parents=[common], help="independence certificate for a family")
    p.add_argument("--family", required=True, metavar="n,p,q;n,p,q;...")
    p.add_argument(
        "--coefficients",
        metavar="c1,c2,...",
        help="combination to assemble; write --coefficients=-1,1 for negative values",
    )
    p.set_defaults(handler=_cmd_certify, formats=("json", "text"))

    p = sub.add_parser("generate", parents=[common], help="extend a family through the growth criterion")
    p.add_argument("--start", required=True, metavar="n,p,q")
    p.add_argument("--count", type=int, required=True, metavar="K")
    p.add_argument("--fix-n", type=int, default=None, dest="fix_n", metavar="N")
    p.set_defaults(handler=_cmd_generate, formats=("csv", "json", "text"))

    p = sub.add_parser("snf", parents=[common], help="Smith normal form with transforms")
    p.add_argument("matrix", metavar="ROWS", help="e.g. \"2,0;0,3\"")
    p.set_defaults(handler=_cmd_snf, formats=("text", "json"))

    p = sub.add_parser("definiteness", parents=[common], help="sign type of a symmetric form")
    p.add_argument("matrix", metavar="ROWS", help="e.g. \"2,1;1,2\"")
    p.set_defaults(handler=_cmd_definiteness, formats=("text", "json"))

    return parser


def _unknown_flag_before_command(exc: Exception, argv: list[str]) -> str | None:
    """argparse files an unknown flag before the subcommand as unrecognized but
    takes the word after it for COMMAND, so `--seed 7 tau` would be reported as
    the invalid command '7'.  Return the message that names the flag instead.
    """
    if getattr(exc, "argument_name", None) != "COMMAND":
        return None
    try:
        _, rest = _global_flags().parse_known_args(argv)
    except UsageError:
        return None
    if rest and rest[0].startswith("-") and "=" not in rest[0]:
        return f"unrecognized arguments: {rest[0]}"
    return None


def dispatch(argv: list[str]) -> tuple[int, str]:
    """Parse argv, run the command, and return (exit code, output text)."""
    parser = build_parser()
    captured = io.StringIO()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            args = parser.parse_args(argv)
    except (UsageError, argparse.ArgumentError) as exc:
        return 2, f"usage error: {_unknown_flag_before_command(exc, argv) or exc}"
    except SystemExit as exc:  # --help
        return int(exc.code or 0), captured.getvalue().rstrip("\n")
    if getattr(args, "handler", None) is None:
        return 2, "usage error: a subcommand is required (see --help)"
    if hasattr(args, "tolerance"):
        from .fs_invariant import _validate_tolerance

        try:
            _validate_tolerance(args.tolerance)
        except InvalidParams as exc:
            return 2, f"usage error: {exc}"
    fmt = getattr(args, "format", None) or args.formats[0]
    if fmt not in args.formats:
        return 2, f"usage error: format {fmt!r} not supported here (allowed: {', '.join(args.formats)})"
    try:
        code, payload, text = args.handler(args)
    except UsageError as exc:
        return 2, f"usage error: {exc}"
    except KnotcertError as exc:
        return 1, f"{type(exc).__name__}: {exc}"
    try:
        return code, _dump(payload) if fmt == "json" else text()
    except ValueError as exc:
        # Rendering only turns values into text, so this is str() of an int
        # past the interpreter's digit limit (sys.get_int_max_str_digits).
        return 1, f"InvalidParams: an output integer is too long to print: {exc}"


def main() -> None:
    code, output = dispatch(sys.argv[1:])
    if output:
        print(output)
    sys.exit(code)
