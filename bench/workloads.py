"""The four benchmark workloads: inputs from a seed, one op, and its check.

Each workload builds a pool of ops in set-up.  Ops are drawn in blocks: a
block holds one op from every stratum (family length and form dimension,
a3 range, matrix dimension and class, subcommand), shuffled, so any stretch
of a run sees the same mix whatever the seed.  The seed picks the concrete
inputs inside each stratum.  The answer keys come from keys.py and never
from knotcert code.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction

import keys


@dataclass
class Op:
    kind: str
    args: tuple
    key: object
    size: dict = field(default_factory=dict)
    weight: float = 1.0  # rough relative cost; set-up warms up on the lightest ops


class Workload:
    """A workload: make() builds the op pool from a seeded rng; prepare()
    builds an op's input outside the timed call; execute() is the timed
    call; check() compares its result with the op's answer key."""

    name: str
    trace_ops: int  # ops in a traced run, each run untraced and then traced

    def prepare(self, op: Op):
        return op.args


def _shuffled(rng: random.Random, blocks: list[list[Op]]) -> list[Op]:
    """Concatenate the blocks, each shuffled in place."""
    for block in blocks:
        rng.shuffle(block)
    return [op for block in blocks for op in block]


def _coprime(rng: random.Random, lo: int, hi: int) -> tuple[int, int]:
    while True:
        p, q = sorted(rng.sample(range(lo, hi + 1), 2))
        if math.gcd(p, q) == 1:
            return p, q


def _integral_r(a1: int, a2: int, a3: int) -> int:
    r = keys.r_exact(a1, a2, a3)
    if r.denominator != 1:
        raise ValueError(f"Dedekind key for {(a1, a2, a3)} is not an integer: {r}")
    return r.numerator


# ---------------------------------------------------------------------------
# certify_chains

_ROOT_PAIRS = ((2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (4, 5), (2, 9), (3, 7), (5, 6), (4, 7))


class CertifyChains(Workload):
    """generate_family, then certify_family, then compactness_check on the
    chain (acceptance criterion 6), stratified by family length and by the
    dimension of the assembled form, which is capped so no op dominates."""

    name = "certify_chains"
    pool_blocks = 40
    trace_ops = 640
    D_CAP = 72
    L_STRATA = ((2, 3), (4, 5), (6, 8), (9, 12))
    D_STRATA = tuple((lo, lo + 7) for lo in range(1, D_CAP, 8))
    KINDS = ("fix_n",) * 4 + ("free_n",) * 2 + ("planted",) * 2 + ("coeffs",) * 2
    FIXED_ROOTS = tuple((n, p, q) for n in (2, 4, 6) for p, q in _ROOT_PAIRS)
    FREE_ROOTS = ((2, 2, 3), (2, 2, 5), (4, 2, 3), (4, 2, 5))
    CANDIDATES = 4000
    MIN_CELL = 3

    def __init__(self) -> None:
        self.table = keys.PairTable(5000)
        self.chains: dict[tuple, list] = {}

    def _prefix(self, start, fix_n, length: int) -> list:
        chain = self.chains.get((start, fix_n))
        if chain is None:
            chain = self.chains[(start, fix_n)] = self.table.chain(start, self.L_STRATA[-1][1], fix_n)
        return chain[:length]

    def make(self, rng: random.Random) -> list[Op]:
        # Every seed draws from the same roots, so many ops share a chain
        # prefix and the set of (length, dimension) cells that can be filled
        # does not depend on the seed; cells too rare to fill are left out.
        cells: dict[tuple[int, int], list[Op]] = {}
        for _ in range(self.CANDIDATES):
            op = self._candidate(rng)
            if op is not None:
                cells.setdefault((op.size["l_stratum"], op.size["d_stratum"]), []).append(op)
        filled = sorted(k for k, ops in cells.items() if len(ops) >= self.MIN_CELL)

        # Block b asks each cell for a dimension stepping through the cell's
        # range, so the mix of dimensions hardly depends on the seed.
        def pick(cell, b):
            lo, hi = self.D_STRATA[cell[1]]
            target = lo + (b + cell[0]) % (hi - lo + 1)
            best = min(abs(op.size["dim"] - target) for op in cells[cell])
            return rng.choice([op for op in cells[cell] if abs(op.size["dim"] - target) == best])

        return _shuffled(rng, [[pick(cell, b) for cell in filled] for b in range(self.pool_blocks)])

    def _candidate(self, rng) -> Op | None:
        kind = rng.choice(self.KINDS)
        length = rng.randint(2, 12)
        if kind == "free_n":
            start, fix_n = rng.choice(self.FREE_ROOTS), None
        else:
            start = rng.choice(self.FIXED_ROOTS)
            fix_n = start[0]
        planted = None
        coefficients = None
        if kind == "planted":
            planted = rng.randint(1, length - 1)
            members = self._prefix(start, fix_n, length - 1)
            members.insert(planted, members[planted - 1])
            count = length - 1
        else:
            members = self._prefix(start, fix_n, length)
            count = length
        if kind == "coeffs":
            top = rng.randrange(length)
            coefficients = [rng.choice((-2, -1, -1, 0, 1, 1, 2)) for _ in range(top)]
            coefficients += [rng.choice((-2, -1, 1, 2))] + [0] * (length - 1 - top)
        dim = keys.form_dimension(members, coefficients)
        if dim > self.D_CAP:
            return None
        checks = keys.chain_checks(members)
        failing = next((i for i, _, _, ok in checks if not ok), None)
        compact, compact_checks = keys.compactness(members)
        key = {
            "members": members,
            "checks": checks,
            "failing": failing,
            "boundary": keys.boundary_multiset(members, coefficients),
            "coefficients": None if coefficients is None else tuple(coefficients),
            "compact": compact,
            "compact_checks": compact_checks,
        }
        size = {
            "length": length,
            "dim": dim,
            "l_stratum": next(i for i, (lo, hi) in enumerate(self.L_STRATA) if lo <= length <= hi),
            "d_stratum": next(i for i, (lo, hi) in enumerate(self.D_STRATA) if lo <= dim <= hi),
        }
        return Op(kind, (start, count, fix_n, planted, coefficients), key, size, weight=dim**3 + length)

    def execute(self, op: Op, inputs, tracer=None):
        import knotcert

        start, count, fix_n, planted, coefficients = inputs
        family = knotcert.generate_family(knotcert.SatelliteParams(*start), count, fix_n=fix_n)
        if planted is not None:
            members = list(family.members)
            members.insert(planted, members[planted - 1])
            family = knotcert.Family(tuple(members))
        cert = knotcert.certify_family(family, coefficients)
        ms = family.members
        report = knotcert.compactness_check(
            [(m.p, m.q, 2 * m.n) for m in ms[:-1]], (ms[-1].p, ms[-1].q, ms[-1].n)
        )
        return family, cert, report

    def check(self, op: Op, inputs, result) -> bool:
        family, cert, report = result
        key = op.key
        boundary = sorted(
            (b.space.multiplicities, b.space.orientation, b.multiplicity) for b in cert.assembled_boundary
        )
        verdict_ok = (
            cert.verdict.independent and key["failing"] is None
        ) or cert.verdict.failing_index == key["failing"]
        return (
            [(m.n, m.p, m.q) for m in family.members] == key["members"]
            and [(c.index, c.lhs, c.rhs, c.ok) for c in cert.chain_checks] == key["checks"]
            and verdict_ok
            and boundary == key["boundary"]
            and cert.coefficients_tested == key["coefficients"]
            and cert.total_form_definiteness.value == "NegativeDefinite"
            and cert.h1_z2_trivial is True
            and report.ok == key["compact"]
            and [(c.lhs, c.rhs, c.ok) for c in report.checks] == key["compact_checks"]
        )


# ---------------------------------------------------------------------------
# r_spectrum


class RSpectrum(Workload):
    """One r_invariant call per op.  Half the triples are the surgery family
    Sigma(p, q, k p q - 1) (R = 1), half general pairwise-coprime triples;
    a3 is log-spread over classes up to 4000; a fifth of the calls ask for a
    tolerance tight enough to double the working precision."""

    name = "r_spectrum"
    pool_blocks = 24
    trace_ops = 100
    # Each op's a3 lies within 5% of its class, on fixed steps, so latencies
    # cluster and the median and the tail fall inside a cluster whatever the
    # seed; the seed picks the pairs and the family multiple.
    A3_CLASSES = (8, 40, 200, 1000, 4000)
    PER_CLASS = 4
    TIGHT = 1e-40
    FAMILY_PAIRS = ((2, 3), (2, 5), (3, 4), (3, 5), (2, 7))

    def make(self, rng: random.Random) -> list[Op]:
        # A block runs through the classes PER_CLASS times, cheap and costly
        # calls interleaved.  One call per class below the top one gets the
        # tight tolerance, rotating between family and general triples.
        pool = []
        for b in range(self.pool_blocks):
            for j in range(self.PER_CLASS):
                for c, a3 in enumerate(self.A3_CLASSES):
                    target = round(a3 * (0.95 + 0.025 * ((b + j + c) % 5)))
                    op = self._family(rng, target) if j % 2 == 0 else self._general(rng, target)
                    if j == b % self.PER_CLASS and c < len(self.A3_CLASSES) - 1:
                        op.args = (*op.args[:3], self.TIGHT)
                        op.kind += "/tight"
                        op.weight *= 3
                    pool.append(op)
        return pool

    def _op(self, kind, triple, key) -> Op:
        a = sorted(triple)
        return Op(kind, (*a, None), key, {"a3": a[2]}, weight=sum(a))

    def _family(self, rng, target: int) -> Op:
        p, q = rng.choice(self.FAMILY_PAIRS)
        k = max(1, round((target + 1) / (p * q)))
        return self._op("family", (p, q, k * p * q - 1), 1)

    def _general(self, rng, target: int) -> Op:
        a1, a2 = _coprime(rng, 2, 7)
        a3 = max(target, 2)
        while math.gcd(a3, a1 * a2) != 1:
            a3 += 1
        return self._op("general", (a1, a2, a3), _integral_r(a1, a2, a3))

    def execute(self, op: Op, inputs, tracer=None):
        import knotcert

        a1, a2, a3, tolerance = inputs
        sphere = knotcert.BrieskornSphere(a1, a2, a3)
        if tolerance is None:
            return knotcert.r_invariant(sphere)
        return knotcert.r_invariant(sphere, tolerance=tolerance)

    def check(self, op: Op, inputs, result) -> bool:
        tolerance = inputs[3] if inputs[3] is not None else 1e-6
        return result.rounded == op.key and result.residual <= tolerance and result.precision_bits >= 128


# ---------------------------------------------------------------------------
# dense_forms


def _congruence_mix(rows: list[list[int]], steps: int, rng: random.Random) -> None:
    """rows <- E rows E^T for random elementary E, in place: inertia kept."""
    d = len(rows)
    for _ in range(steps):
        i, j = rng.sample(range(d), 2)
        m = rng.choice((-3, -2, -1, 1, 2, 3))
        rows[i] = [x + m * y for x, y in zip(rows[i], rows[j])]
        for row in rows:
            row[i] += m * row[j]


def _equivalence_mix(rows: list[list[int]], steps: int, rng: random.Random) -> None:
    """rows <- L rows R for random elementary L, R, in place: invariant factors kept."""
    d = len(rows)
    for _ in range(steps):
        i, j = rng.sample(range(d), 2)
        m = rng.choice((-2, -1, 1, 2))
        rows[i] = [x + m * y for x, y in zip(rows[i], rows[j])]
        i, j = rng.sample(range(d), 2)
        m = rng.choice((-2, -1, 1, 2))
        for row in rows:
            row[i] += m * row[j]


class DenseForms(Workload):
    """definiteness on U^T D U (all four classes) and smith_normal_form on
    L D R with D a divisibility chain, on dense matrices with large entries.
    Matrices are rebuilt from a per-op seed just before each op, outside the
    timed call, so the pool stays small."""

    name = "dense_forms"
    pool_blocks = 40
    trace_ops = 560
    DEF_STRATA = ((4, 10), (11, 17), (18, 24), (25, 31), (32, 38))
    SNF_STRATA = ((4, 10), (11, 17), (18, 24), (25, 31))
    CLASSES = ("PositiveDefinite", "NegativeDefinite", "Indefinite", "Degenerate")

    def make(self, rng: random.Random) -> list[Op]:
        # Dimensions step through each stratum block by block, so the mix of
        # sizes is the same for every seed; the seed picks the matrices.
        blocks = []
        for b in range(self.pool_blocks):
            ops = []
            for lo, hi in self.DEF_STRATA:
                for k, cls in enumerate(self.CLASSES):
                    d = lo + (b + k) % (hi - lo + 1)
                    ops.append(Op("definiteness", (d, self._signs(rng, d, cls), rng.getrandbits(32)), cls, {"dim": d}, d**3))
            for lo, hi in self.SNF_STRATA:
                for k in range(2):
                    d = lo + (b + 2 * k) % (hi - lo + 1)
                    chain = self._chain(rng, d)
                    ops.append(Op("snf", (d, chain, rng.getrandbits(32)), tuple(chain), {"dim": d}, d**3))
            blocks.append(ops)
        return _shuffled(rng, blocks)

    @staticmethod
    def _signs(rng, d: int, cls: str) -> list[int]:
        mags = [rng.randint(1, 5) for _ in range(d)]
        if cls == "PositiveDefinite":
            return mags
        if cls == "NegativeDefinite":
            return [-m for m in mags]
        signs = [m * rng.choice((-1, 1)) for m in mags]
        signs[0], signs[1] = mags[0], -mags[1]
        if cls == "Degenerate":
            for i in rng.sample(range(d), rng.randint(1, 2)):
                signs[i] = 0
        rng.shuffle(signs)
        return signs

    @staticmethod
    def _chain(rng, d: int) -> list[int]:
        chain = [1]
        for _ in range(d - 1):
            chain.append(chain[-1] * rng.choice((1, 1, 1, 2, 3)))
        for i in range(rng.choice((0, 0, 1, 2))):
            chain[d - 1 - i] = 0
        return chain

    def prepare(self, op: Op):
        d, diagonal, seed = op.args
        rng = random.Random(seed)
        rows = [[diagonal[i] if i == j else 0 for j in range(d)] for i in range(d)]
        if op.kind == "definiteness":
            _congruence_mix(rows, 3 * d, rng)
        else:
            _equivalence_mix(rows, 2 * d, rng)
        return rows

    def execute(self, op: Op, rows, tracer=None):
        import knotcert

        if op.kind == "definiteness":
            return knotcert.definiteness(knotcert.SymIntMatrix.from_rows(rows))
        return knotcert.smith_normal_form(rows)

    def check(self, op: Op, rows, result) -> bool:
        if op.kind == "definiteness":
            return result.value == keys.sylvester_class(op.args[1]) == op.key
        return result.diagonal == op.key and keys.snf_identity_holds(
            result.left, rows, result.right, result.diagonal, random.Random(op.args[2])
        )


# ---------------------------------------------------------------------------
# cli_mix


def run_child(argv: list[str], cwd: str, env: dict) -> tuple[int, bytes, bytes, int]:
    """Run one child to completion: (exit code, stdout, stderr, peak RSS in KiB)."""
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err[0], usage.ru_maxrss


class CliMix(Workload):
    """One ``python -m knotcert`` process per op, one at a time, over all
    nine subcommands; cobordism appears twice per block at moderate n, whose
    JSON output grows as n^2."""

    name = "cli_mix"
    pool_blocks = 12
    trace_ops = 56
    COMMANDS = (
        "r-invariant", "tau", "compactness", "cover", "cobordism",
        "cobordism", "certify", "generate", "snf", "definiteness",
    )

    def __init__(self, root: str) -> None:
        self.root = root
        self.table = keys.PairTable(5000)
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("KNOTCERT_")}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.peak_rss_kib = 0
        self.stdout_bytes: list[int] = []

    def make(self, rng: random.Random) -> list[Op]:
        blocks = [[getattr(self, "_" + c.replace("-", "_"))(rng) for c in self.COMMANDS] for _ in range(self.pool_blocks)]
        return _shuffled(rng, blocks)

    def _r_invariant(self, rng) -> Op:
        a1, a2 = _coprime(rng, 2, 7)
        a3 = rng.randint(5, 300)
        while math.gcd(a3, a1 * a2) != 1:
            a3 += 1
        return Op("r-invariant", ("r-invariant", "--format", "json", str(a1), str(a2), str(a3)),
                  {"rounded": str(_integral_r(a1, a2, a3)), "multiplicities": [str(v) for v in sorted((a1, a2, a3))]})

    def _tau(self, rng) -> Op:
        p, q = _coprime(rng, 2, 11)
        k = rng.randint(1, 9)
        return Op("tau", ("tau", "--format", "json", str(p), str(q), str(k)),
                  {"tau": str(Fraction(1, p * q * (k * p * q - 1)))})

    def _chain(self, rng, longest: int):
        p, q = _coprime(rng, 2, 7)
        n = rng.choice((2, 4))
        return self.table.chain((n, p, q), rng.randint(2, longest), n)

    def _compactness(self, rng) -> Op:
        members = self._chain(rng, 6)
        n, p, q = members[-1]
        boundary = ";".join(f"{bp},{bq},{2 * bn}" for bn, bp, bq in members[:-1])
        compact, checks = keys.compactness(members)
        return Op("compactness", ("compactness", "--format", "json", f"--terminal={p},{q},{n}", f"--boundary={boundary}"),
                  {"compact": compact, "checks": [[str(lhs), str(rhs), ok] for lhs, rhs, ok in checks]})

    def _cover(self, rng) -> Op:
        n = 2 * rng.randint(1, 50)
        p, q = _coprime(rng, 2, 11)
        gluing = [[str(-n), "1"], ["1", "0"]]
        return Op("cover", ("cover", "--format", "json", str(n), str(p), str(q)),
                  {"gluings": [gluing, gluing], "torus_link": ["2", str(-2 * n)], "companion_copies": "2"})

    def _cobordism(self, rng) -> Op:
        kind = rng.choice("ZRP")
        p, q = _coprime(rng, 2, 7)
        n = 2 * rng.randint(4, 32)
        argv = ["cobordism", "--format", "json", kind, str(n), str(p), str(q)]
        size = n
        outgoing = []
        if kind == "Z":
            size = rng.randint(8, 64)
            argv.append(f"--crossings={size}")
            outgoing = [[[str(v) for v in sorted((p, q, n * p * q - 1))], "-1", "1"]]
        elif kind == "P":
            outgoing = [[[str(v) for v in sorted((p, q, 2 * n * p * q - 1))], "-1", "2"]]
        sign = 1 if kind == "P" else -1
        form = [[str(sign if i == j else 0) for j in range(size)] for i in range(size)]
        return Op("cobordism", tuple(argv), {
            "form": form,
            "definiteness": "PositiveDefinite" if kind == "P" else "NegativeDefinite",
            "outgoing": outgoing,
            "handle_count": str(size),
            "incoming": [str(n), str(p), str(q), "1"],
        }, {"dim": size}, weight=size)

    def _certify(self, rng) -> Op:
        members = self._chain(rng, 6)
        coefficients = None
        if rng.random() < 0.25:
            planted = rng.randint(1, len(members) - 1)
            members.insert(planted, members[planted - 1])
        if rng.random() < 0.5:
            coefficients = [rng.choice((-1, 0, 1)) for _ in members[:-1]] + [rng.choice((-1, 1))]
        checks = keys.chain_checks(members)
        failing = next((i for i, _, _, ok in checks if not ok), None)
        argv = ["certify", "--format", "json", "--family=" + ";".join(f"{n},{p},{q}" for n, p, q in members)]
        if coefficients is not None:
            argv.append("--coefficients=" + ",".join(map(str, coefficients)))
        return Op("certify", tuple(argv), {
            "exit": 0 if failing is None else 1,
            "chain_checks": [[str(i), str(lhs), str(rhs), ok] for i, lhs, rhs, ok in checks],
            "verdict": {"kind": "Independent"} if failing is None
            else {"kind": "CriterionFails", "failing_index": str(failing)},
            "boundary": [[[str(v) for v in m], str(o), str(k)] for m, o, k in keys.boundary_multiset(members, coefficients)],
        }, {"dim": keys.form_dimension(members, coefficients)}, weight=len(members))

    def _generate(self, rng) -> Op:
        p, q = _coprime(rng, 2, 7)
        n = rng.choice((2, 4, 6))
        count = rng.randint(2, 10)
        fix_n = rng.choice((None, n))
        members = self.table.chain((n, p, q), count, fix_n)
        argv = ["generate", f"--start={n},{p},{q}", f"--count={count}"]
        if fix_n is not None:
            argv.append(f"--fix-n={fix_n}")
        rows = [[str(i + 1), str(m[0]), str(m[1]), str(m[2]), str(keys.doubled(m)), str(keys.single(m))]
                for i, m in enumerate(members)]
        return Op("generate", tuple(argv), {"rows": rows})

    def _snf(self, rng) -> Op:
        d = rng.randint(3, 8)
        chain = DenseForms._chain(rng, d)
        rows = [[chain[i] if i == j else 0 for j in range(d)] for i in range(d)]
        _equivalence_mix(rows, 2 * d, rng)
        text = ";".join(",".join(map(str, r)) for r in rows)
        return Op("snf", ("snf", "--format", "json", "--", text), {"diagonal": [str(v) for v in chain], "rows": rows})

    def _definiteness(self, rng) -> Op:
        d = rng.randint(3, 10)
        cls = rng.choice(DenseForms.CLASSES)
        rows = [[0] * d for _ in range(d)]
        for i, s in enumerate(DenseForms._signs(rng, d, cls)):
            rows[i][i] = s
        _congruence_mix(rows, 2 * d, rng)
        text = ";".join(",".join(map(str, r)) for r in rows)
        return Op("definiteness", ("definiteness", "--format", "json", "--", text), {"definiteness": cls})

    def execute(self, op: Op, argv, tracer=None):
        if tracer is None:
            cmd = [sys.executable, "-m", "knotcert", *argv]
        else:
            cmd = [sys.executable, os.path.join(self.root, "bench", "cli_child.py"), *argv]
        spawned = time.time()
        code, out, err, rss = run_child(cmd, self.root, self.env)
        self.peak_rss_kib = max(self.peak_rss_kib, rss)
        self.stdout_bytes.append(len(out))
        if tracer is not None:
            report = json.loads(err.decode().strip().splitlines()[-1])
            tracer.samples["interpreter_ms"].append(1000 * (report["started"] - spawned))
            tracer.samples["import_ms"].append(1000 * report["import_s"])
            tracer.counters["stdout_bytes"] += len(out)
            tracer.merge(report["raw"], report["spans"])
        return code, out.decode()

    def check(self, op: Op, argv, result) -> bool:
        code, out = result
        key = op.key
        if op.kind == "generate":
            lines = out.rstrip("\n").split("\n")
            return code == 0 and lines[0] == "index,n,p,q,lhs,rhs" and [l.split(",") for l in lines[1:]] == key["rows"]
        data = json.loads(out)
        if op.kind == "certify":
            boundary = sorted(
                [b["space"]["multiplicities"], b["space"]["orientation"], b["multiplicity"]]
                for b in data["assembled_boundary"]
            )
            return (
                code == key["exit"]
                and [[c["index"], c["lhs"], c["rhs"], c["ok"]] for c in data["chain_checks"]] == key["chain_checks"]
                and data["verdict"] == key["verdict"]
                and boundary == sorted(key["boundary"])
                and data["total_form_definiteness"] == "NegativeDefinite"
            )
        if code != 0:
            return False
        if op.kind == "r-invariant":
            return (
                data["rounded"] == key["rounded"]
                and data["multiplicities"] == key["multiplicities"]
                and float(data["residual"]) <= 1e-6
            )
        if op.kind == "tau":
            return data["tau"] == key["tau"]
        if op.kind == "compactness":
            checks = [[c["lhs"], c["rhs"], c["ok"]] for c in data["checks"]]
            return data["compact"] == key["compact"] and checks == key["checks"]
        if op.kind == "cover":
            return (
                data["gluings"] == key["gluings"]
                and data["exterior_link"]["torus_link"] == key["torus_link"]
                and data["companion_copies"] == key["companion_copies"]
            )
        if op.kind == "cobordism":
            outgoing = [
                [b["space"]["multiplicities"], b["space"]["orientation"], b["multiplicity"]] for b in data["outgoing"]
            ]
            inc = data["incoming"]["space"]
            return (
                data["form"] == key["form"]
                and data["definiteness"] == key["definiteness"]
                and outgoing == key["outgoing"]
                and data["handle_count"] == key["handle_count"]
                and [inc["n"], inc["p"], inc["q"], inc["orientation"]] == key["incoming"]
            )
        if op.kind == "snf":
            diagonal = [int(v) for v in data["diagonal"]]
            left = [[int(v) for v in r] for r in data["left"]]
            right = [[int(v) for v in r] for r in data["right"]]
            return data["diagonal"] == key["diagonal"] and keys.snf_identity_holds(
                left, key["rows"], right, diagonal, random.Random(len(out))
            )
        return data["definiteness"] == key["definiteness"]


def build(name: str, root: str):
    if name == "cli_mix":
        return CliMix(root)
    return {"certify_chains": CertifyChains, "r_spectrum": RSpectrum, "dense_forms": DenseForms}[name]()


NAMES = ("certify_chains", "r_spectrum", "dense_forms", "cli_mix")
