"""polylin benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload sweep-mix --seed 1 --seconds 20 --trace 0

The run imports polylin from src/, generates the first pass's JSON inputs
from the seed and warms up (set-up, repeated SETUP_REPEATS times), then
runs passes until --seconds of operation time have passed.  A pass is one
operation list over a block of slots whose values the seed draws afresh
for every pass (workloads.pass_plan).  Each operation is the CLI called
in-process (polylin.cli.main) or, where the CLI does not reach, a public
verify.* function on a parsed input; the next starts only when the
previous one returns.  Every output is checked outside the timed region
against its expected exit code and the reference bytes in reference.json.

Times are scaled by the machine speed measured beside each operation
(Speed), and percentiles are Harrell-Davis estimates, so that runs of the
same code agree on a shared host.  The wall figures are printed beside
them.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics (see tracer.py).  The last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib
import io
import itertools
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from gate import (
    digest,
    fraction_det,
    max_coeff_bits,
    parse_poly,
    poly_det,
    polymatrix_entries,
    smith_chain_ok,
)
from tracer import OP_SPAN, GROUPS, Tracer, summarize, write_spans
from workloads import (
    COPIES,
    SMITH_PROBE,
    TAIL_PERCENTILE,
    VARIANTS,
    WORKLOADS,
    Op,
    Slot,
    expected_code,
    instance,
    ops_of,
    pass_plan,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

OP_TIME_LIMIT_S = 5.0
SETUP_REPEATS = 5
SELF_SUM_TOLERANCE_S = 1e-6
SPEED_EVERY_S = 0.1
SPEED_WINDOW_S = 1.0
REFERENCE_DETS = 3
REFERENCE_TASK_S = 0.003
SETUP_SPEED_SAMPLES = 4
HD_STEPS = 16

END_TO_END = {
    "certs_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Speed:
    """Machine speed around each operation, from a reference task.

    On a host shared with other load the same code can run up to ~1.7x
    slower for seconds to minutes at a time.  So a fixed reference task
    (REFERENCE_DETS exact determinants of a 6x6 matrix of 40-bit rationals
    in the benchmark's own arithmetic, gate.fraction_det; never polylin's
    code) is timed after every SPEED_EVERY_S of operation time, and a time
    measured over [start, end] is scaled by REFERENCE_TASK_S over the median
    time of the samples taken within SPEED_WINDOW_S of it.  The scaled
    figure reads as seconds on the machine at the speed where the task takes
    REFERENCE_TASK_S.  A change to polylin moves it as it moves the wall
    time; load on the host moves both the operation and the samples beside
    it, and cancels.  Big rationals track the host's slow spells on all four
    workloads more closely than small ones (measured on a 2-vCPU KVM guest).
    The task runs with the garbage collector off, so that the heap polylin
    leaves behind cannot slow it and flatter the scaled figures.
    """

    def __init__(self):
        rng = random.Random("polylin-bench/reference-task")
        big = 2 ** 40
        self.matrix = [[Fraction(rng.randint(-big, big), rng.randint(1, big)) for _ in range(6)]
                       for _ in range(6)]
        self.times: list[float] = []
        self.durations: list[float] = []
        self._since = 0.0

    def sample(self, count: int):
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                start = time.perf_counter()
                for _ in range(REFERENCE_DETS):
                    fraction_det(self.matrix)
                end = time.perf_counter()
                self.times.append((start + end) / 2)
                self.durations.append(end - start)
        finally:
            if enabled:
                gc.enable()

    def tick(self, elapsed: float):
        """Called after each operation with its raw time."""
        self._since += elapsed
        if self._since >= SPEED_EVERY_S:
            count = int(self._since / SPEED_EVERY_S)
            self._since -= count * SPEED_EVERY_S
            self.sample(count)

    def scale(self, start: float, seconds: float) -> float:
        """`seconds` measured from `start`, at the reference speed."""
        lo = bisect.bisect_left(self.times, start - SPEED_WINDOW_S)
        hi = bisect.bisect_right(self.times, start + seconds + SPEED_WINDOW_S)
        near = self.durations[lo:hi] or self.durations
        return seconds * REFERENCE_TASK_S / statistics.median(near)


class OpTimeout(Exception):
    pass


class Program:
    """The polylin modules the benchmark calls, imported fresh from src/."""

    def __init__(self):
        for name in [k for k in sys.modules if k == "polylin" or k.startswith("polylin.")]:
            del sys.modules[name]
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        package = importlib.import_module("polylin")
        if not Path(package.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"polylin was found at {package.__file__}, not under {SRC}")
        self.cli = importlib.import_module("polylin.cli")
        self.verify = importlib.import_module("polylin.verify")
        self.serialize = importlib.import_module("polylin.serialize")
        self.pencils = importlib.import_module("polylin.pencils")


class Result:
    __slots__ = ("latency", "code", "data", "error", "timed_out", "start")

    def __init__(self, latency, code, data, error, timed_out=False, start=0.0):
        self.latency, self.code, self.data, self.error = latency, code, data, error
        self.timed_out, self.start = timed_out, start


class Runner:
    """Runs operations one at a time, each under OP_TIME_LIMIT_S."""

    def __init__(self, prog: Program):
        self.prog = prog
        self._armed = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self._armed:
            self._armed = False
            raise OpTimeout(f"over the {OP_TIME_LIMIT_S} s time limit")

    def cli(self, *argv: str) -> int:
        with contextlib.redirect_stderr(io.StringIO()):
            return self.prog.cli.main(list(argv))

    def execute(self, op: Op, inp: str, out: str) -> tuple[int, bytes | None]:
        """Exit code, plus the verdict for verifier operations (CLI
        operations leave their output in `out`)."""
        if op.kind == "equiv":
            return self.cli("equiv", "--in", inp, "--mode", op.arg, "--out", out), None
        if op.kind == "nf":
            return self.cli("nf", "--in", inp, "--kind", op.arg, "--out", out), None
        with open(inp, encoding="utf-8") as fh:
            p = self.prog.serialize.parse_matrix_polynomial(json.load(fh))
        check = getattr(self.prog.verify, op.arg)
        if op.arg == "verify_bernstein_reversal_pencil":
            verdict = check(p)
        else:
            verdict = check(self.prog.pencils.build_pencil(p), p)
        data = f"{verdict.check} {verdict.ok} {verdict.constant}".encode()
        return (0 if verdict.ok else 1), data

    def timed(self, op: Op, inp: str, out: str, tracer: Tracer | None = None,
              op_id: int = -1) -> Result:
        code = data = error = None
        timed_out = False
        if tracer:
            tracer.begin_op(op_id)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, OP_TIME_LIMIT_S)
        start = time.perf_counter()
        try:
            code, data = self.execute(op, inp, out)
        except OpTimeout as exc:
            error, timed_out = str(exc), True
        except Exception as exc:  # any escape from the program is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        finally:
            end = time.perf_counter()
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer:
                tracer.end_op(start, end)
        if op.kind != "verify":
            path = Path(out)
            if path.exists():
                data = path.read_bytes()
                path.unlink()
        return Result(end - start, code, data, error, timed_out, start)


# ---------------------------------------------------------------------------
# inputs


def _write_json(path: Path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")


def prepare(runner: Runner, name: str, slots: list[Slot], chosen: dict[int, int],
            workdir: Path) -> dict[int, dict]:
    """Write the inputs of each chosen slot (slot index -> variant): the
    matrix polynomial, and for normal-form operations L(z) (from `polylin
    pencil`) and P(z) in the monomial basis (from `polylin convert`) as
    polynomial matrices."""
    workdir.mkdir(parents=True, exist_ok=True)
    tmp = workdir / "tmp.json"
    paths = {}
    for i, variant in chosen.items():
        slot = slots[i]
        inst = instance(name, i, slot, variant)
        base = workdir / f"{name}-{i}.json"
        _write_json(base, inst)
        entry = {"": str(base), "instance": inst}
        ons = {on for _k, _a, on in slot.ops if on}
        if "L" in ons:
            if runner.cli("pencil", "--in", str(base), "--out", str(tmp)) != 0:
                raise RuntimeError(f"polylin pencil failed on {base}")
            pen = json.loads(tmp.read_text(encoding="utf-8"))
            size = len(pen["C1"])
            entries = [[[_neg(pen["C0"][r][c]), pen["C1"][r][c]] for c in range(size)]
                       for r in range(size)]
            entry["L"] = str(workdir / f"{name}-{i}-L.json")
            _write_json(Path(entry["L"]), {"rows": size, "cols": size, "entries": entries})
        if "P" in ons:
            target = json.dumps({"kind": "monomial", "grade": slot.grade})
            if runner.cli("convert", "--in", str(base), "--basis", target,
                          "--out", str(tmp)) != 0:
                raise RuntimeError(f"polylin convert failed on {base}")
            mono = json.loads(tmp.read_text(encoding="utf-8"))["coeffs"]
            entries = [[[blk[r][c] for blk in mono] for c in range(slot.n)]
                       for r in range(slot.n)]
            entry["P"] = str(workdir / f"{name}-{i}-P.json")
            _write_json(Path(entry["P"]), {"rows": slot.n, "cols": slot.n, "entries": entries})
        paths[i] = entry
    return paths


def _neg(s: str) -> str:
    return s[1:] if s.startswith("-") else ("0" if s == "0" else "-" + s)


def warm_up(runner: Runner, slots: list[Slot], workdir: Path):
    """One tiny instance per distinct operation of the workload, so that
    imports and lazy set-up finish before timing."""
    kinds = dict.fromkeys((slot.basis, op) for slot in slots for op in slot.ops)
    tiny = [Slot(basis, 1, 2, (op,)) for basis, op in kinds]
    paths = prepare(runner, "warm-up", tiny, dict.fromkeys(range(len(tiny)), 0), workdir)
    for op in ops_of(tiny):
        runner.timed(op, paths[op.slot][op.on], str(workdir / "warm-up-out.json"))


# ---------------------------------------------------------------------------
# gate


class Gate:
    """One pass's operations, with what each must give: its expected exit
    code and reference bytes; Smith outputs also an independent determinant.

    `ops` are the operations of the chosen slots, in workload order, and
    `paths` their inputs.  Smith verdicts are kept in `smith_checked`,
    shared between passes, per (slot, variant, input).
    """

    def __init__(self, name: str, all_ops: list[Op], chosen: dict[int, int],
                 paths: dict[int, dict], smith_checked: dict):
        ref = json.loads(REFERENCE.read_text(encoding="utf-8"))[name]
        rows = [k for k, op in enumerate(all_ops) if op.slot in chosen]
        self.ops = [all_ops[k] for k in rows]
        self.paths, self.chosen = paths, chosen
        self.expected = [expected_code(op, paths[op.slot]["instance"]) for op in self.ops]
        self.reference = [ref[k][chosen[all_ops[k].slot]] for k in rows]
        self._smith_checked = smith_checked

    def judge(self, k: int, res: Result) -> str | None:
        """None when the result is correct, else the reason it is not."""
        if res.error:
            return res.error
        if res.code != self.expected[k]:
            return f"exit code {res.code}, expected {self.expected[k]}"
        if (digest(res.data) if res.data is not None else "") != self.reference[k]:
            return "output differs from the reference bytes"
        op = self.ops[k]
        if op.kind == "nf" and op.arg == "smith":
            key = (op.slot, self.chosen[op.slot], op.on)
            if key not in self._smith_checked:
                self._smith_checked[key] = smith_problem(res.data, self.paths[op.slot][op.on])
            return self._smith_checked[key]
        return None


def smith_problem(data: bytes, matrix_path: str) -> str | None:
    factors = [parse_poly(f) for f in json.loads(data)["invariantFactors"]]
    with open(matrix_path, encoding="utf-8") as fh:
        det = poly_det(polymatrix_entries(json.load(fh)))
    if not smith_chain_ok(factors, det):
        return "invariant factors do not divide in a chain with product the monic det"
    return None


def negative_controls(runner: Runner, gate: Gate, results: list[Result],
                      workdir: Path) -> list[str]:
    """Corrupt one output and one input; the gate must reject both."""
    problems = []
    k = next(k for k, op in enumerate(gate.ops)
             if op.kind != "verify" and gate.expected[k] == 0 and results[k].data
             and gate.paths[op.slot]["instance"]["basis"]["grade"] >= 2)
    op = gate.ops[k]
    good = results[k]
    text = good.data.decode()
    pos = next(i for i, ch in enumerate(text) if ch in "123456789")
    bad_data = (text[:pos] + str(int(text[pos]) % 9 + 1) + text[pos + 1:]).encode()
    if gate.judge(k, Result(good.latency, good.code, bad_data, None)) is None:
        problems.append("a corrupted output passed the gate")
    src = Path(gate.paths[op.slot][op.on])
    corrupt = workdir / "corrupted-input.json"
    obj = json.loads(src.read_text(encoding="utf-8"))
    _write_json(corrupt, _add_one(obj))
    res = runner.timed(op, str(corrupt), str(workdir / "corrupted-out.json"))
    if gate.judge(k, res) is None:
        problems.append("an operation on a corrupted input passed the gate")
    return problems


def _add_one(obj):
    """Add 1 to every rational coefficient (leaving basis data alone)."""
    if isinstance(obj, dict):
        return {key: (_add_one(v) if key in ("coeffs", "entries") else v)
                for key, v in obj.items()}
    if isinstance(obj, list):
        return [_add_one(x) for x in obj]
    return str(Fraction(obj) + 1)


# ---------------------------------------------------------------------------
# runs


class Tally:
    def __init__(self):
        self.latencies: list[float] = []
        self.starts: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.certs = 0
        self.failures: dict[str, int] = {}

    def add(self, gate: Gate, results: list[Result], timed: bool = True):
        """Judge a pass; its latencies count only when it was timed
        (traced passes are not)."""
        for k, res in enumerate(results):
            if timed:
                self.latencies.append(res.latency)
                self.starts.append(res.start)
            self.attempted += 1
            problem = gate.judge(k, res)
            if problem:
                self.failed += 1
                key = f"{gate.ops[k].label} #{k}: {problem}"
                self.failures[key] = self.failures.get(key, 0) + 1
            elif gate.expected[k] == 0 and timed:
                self.certs += 1


def run_pass(runner: Runner, gate: Gate, workdir: Path, speed: Speed) -> list[Result]:
    out = str(workdir / "out.json")
    results = []
    for op in gate.ops:
        results.append(runner.timed(op, gate.paths[op.slot][op.on], out))
        speed.tick(results[-1].latency)
    return results


def percentile(values: list[float], p: int) -> float:
    """Harrell-Davis estimate of the p-th percentile: a mean of all order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density, whose
    integral over each ((i-1)/n, i/n) is taken by the midpoint rule on
    HD_STEPS points.  Unlike a single order statistic it does not jump
    when the percentile falls in a gap between operations of different
    sizes, so runs agree more closely."""
    xs = sorted(values)
    n = len(xs)
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = []
    for i in range(n):
        ts = ((i + (j + 0.5) / HD_STEPS) / n for j in range(HD_STEPS))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
                           for t in ts))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def probe_smith(runner: Runner, seed: int, workdir: Path) -> tuple[int, int, list[str]]:
    """The ROADMAP C case: Smith form of the 12x12 Bernstein pencil under
    the operation time limit.  Returns (attempted, timed out, problems)."""
    variant = random.Random(seed).randrange(VARIANTS)
    paths = prepare(runner, "smith-probe", [SMITH_PROBE], {0: variant}, workdir)
    op = ops_of([SMITH_PROBE])[0]
    res = runner.timed(op, paths[0]["L"], str(workdir / "probe-out.json"))
    if res.timed_out:
        return 1, 1, []
    if res.error or res.code != 0:
        return 1, 0, [f"smith probe: {res.error or res.code}"]
    problem = smith_problem(res.data, paths[0]["L"])
    return 1, 0, [f"smith probe: {problem}"] if problem else []


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric the traced run reports."""
    out = []
    for name, _mod, _members in GROUPS:
        out.append((f"{name}.calls", "count", "lower"))
        if name != "exact.PolyMatrix.evaluate":
            out += [(f"{name}.self_s", "s", "lower"), (f"{name}.total_s", "s", "lower")]
    for name in ("exact.polymatrix_inverse_unimodular", "exact.polymatrix_det",
                 "exact.is_unimodular"):
        out.append((f"{name}.calls_per_cert", "count", "lower"))
    out += [
        ("equivalence.max_coeff_bits", "bits", "lower"),
        ("normalforms.max_coeff_bits", "bits", "lower"),
        ("normalforms.smith_form.timeouts", "count", "lower"),
        ("serialize.bytes_out", "bytes", "lower"),
        ("bench.certs", "count", "higher"),
        ("bench.op.self_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out


def traced_pass(runner: Runner, gate: Gate, workdir: Path,
                tracer: Tracer) -> tuple[list[Result], list[Result]]:
    """Each operation once untraced and once traced, back to back and in
    alternating order, so that drift in machine speed cancels out of the
    tracing overhead."""
    out = str(workdir / "out.json")
    plain, traced = [], []
    for k, op in enumerate(gate.ops):
        inp = gate.paths[op.slot][op.on]
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
                try:
                    traced.append(runner.timed(op, inp, out, tracer, k))
                finally:
                    tracer.uninstall()
            else:
                plain.append(runner.timed(op, inp, out))
    return plain, traced


def traced_run(runner: Runner, cycle: list[Gate], tally: Tally, workdir: Path,
               seconds: float, trace_path: Path):
    """The passes of one cycle (every block once), repeated whole until
    `seconds` have passed, each pass through traced_pass.  Every repeat
    runs the same inputs, so the per-layer metrics, means per cycle, hold
    counts that repeat exactly for a seed.
    Returns (metrics, last gate, its traced results, problems)."""
    tracer = Tracer()
    walls = {False: [], True: []}
    passes, problems = [], []
    sums: dict[str, float] = {}
    certs = bytes_out = eq_bits = nf_bits = 0
    results: list[Result] = []
    while not passes or (len(passes) % len(cycle)
                         or sum(walls[False]) + sum(walls[True]) < seconds):
        gate = cycle[len(passes) % len(cycle)]
        ops = gate.ops
        plain, results = traced_pass(runner, gate, workdir, tracer)
        tally.add(gate, plain)
        tally.add(gate, results, timed=False)
        walls[False].append(sum(r.latency for r in plain))
        walls[True].append(sum(r.latency for r in results))
        spans = tracer.take()
        passes.append(spans)
        stats, per_op = summarize(spans)
        for span, st in stats.items():
            for key, value in st.items():
                sums[f"{span}.{key}"] = sums.get(f"{span}.{key}", 0.0) + value
        sums["trace.spans"] = sums.get("trace.spans", 0.0) + len(spans)
        for wall, self_sum in per_op:
            if abs(wall - self_sum) > SELF_SUM_TOLERANCE_S:
                problems.append(f"self times sum to {self_sum:.9f} s in an operation "
                                f"of {wall:.9f} s")
        for k, res in enumerate(results):
            op = ops[k]
            if gate.judge(k, res) is None and gate.expected[k] == 0:
                certs += 1
                if op.kind == "verify":
                    continue
                bytes_out += len(res.data)
                obj = json.loads(res.data)
                if op.kind == "equiv" and op.arg == "cofactors":
                    eq_bits = max(eq_bits, max_coeff_bits([obj["E"], obj["F"]]))
                elif op.kind == "nf":
                    nf_bits = max(nf_bits, max_coeff_bits(obj))
    write_spans(str(trace_path), passes)

    n = len(passes) / len(cycle)
    layer = {}
    for name, _unit, _better in per_layer_metrics():
        layer[name] = sums.get(name, 0.0) / n
    layer["bench.op.self_s"] = sums.get(f"{OP_SPAN}.self_s", 0.0) / n
    layer["bench.certs"] = certs / n
    for name in ("exact.polymatrix_inverse_unimodular", "exact.polymatrix_det",
                 "exact.is_unimodular"):
        layer[f"{name}.calls_per_cert"] = layer[f"{name}.calls"] / max(layer["bench.certs"], 1)
    layer["equivalence.max_coeff_bits"] = eq_bits
    layer["normalforms.max_coeff_bits"] = nf_bits
    layer["serialize.bytes_out"] = bytes_out / n
    layer["trace.overhead_s"] = statistics.mean(walls[True]) - statistics.mean(walls[False])
    for name, unit, _better in per_layer_metrics():
        if unit != "s" and float(layer[name]).is_integer():
            layer[name] = int(layer[name])
    return layer, gate, results, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all of them, each in its own process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", w,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for w in WORKLOADS]
        return max(codes)
    name = args.workload
    slots = WORKLOADS[name]
    ops = ops_of(slots)
    plan = pass_plan(name, args.seed)
    first = next(plan)
    smith_checked: dict = {}
    workdir = WORK / f"{name}-{os.getpid()}"
    try:
        setup_times = []
        speed = Speed()
        for _ in range(SETUP_REPEATS):
            speed.sample(SETUP_SPEED_SAMPLES)
            t0 = time.perf_counter()
            try:
                prog = Program()
            except ImportError as exc:
                print(f"cannot import polylin from {SRC}: {exc}", file=sys.stderr)
                return 2
            runner = Runner(prog)
            paths = prepare(runner, name, slots, first, workdir)
            warm_up(runner, slots, workdir)
            setup_times.append((t0, time.perf_counter() - t0))
            speed.sample(SETUP_SPEED_SAMPLES)
        gate = Gate(name, ops, first, paths, smith_checked)

        tally = Tally()
        problems: list[str] = []
        layer: dict[str, float] = {}
        if args.trace:
            trace_path = WORK / f"spans-{name}-seed{args.seed}.jsonl"
            cycle = [gate]
            for chosen in itertools.islice(plan, COPIES[name] - 1):
                paths = prepare(runner, name, slots, chosen, workdir)
                cycle.append(Gate(name, ops, chosen, paths, smith_checked))
            layer, gate, results, problems = traced_run(runner, cycle, tally, workdir,
                                                        args.seconds, trace_path)
        else:
            while True:
                results = None  # let the last pass's outputs go before the next
                results = run_pass(runner, gate, workdir, speed)
                tally.add(gate, results)
                if sum(tally.latencies) >= args.seconds:
                    break
                chosen = next(plan)
                gate = Gate(name, ops, chosen, prepare(runner, name, slots, chosen, workdir),
                            smith_checked)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems += negative_controls(runner, gate, results, workdir)
        probe = (0, 0, [])
        if name == "normal-forms":
            probe = probe_smith(runner, args.seed, workdir)
            problems += probe[2]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = [speed.scale(t, s) for t, s in zip(tally.starts, tally.latencies)]
    p_tail = TAIL_PERCENTILE[name]
    metrics = {
        "certs_per_s": tally.certs / sum(latencies),
        "latency_p50_s": percentile(latencies, 50),
        "latency_tail_s": percentile(latencies, p_tail),
        "setup_s": statistics.median(speed.scale(t, s) for t, s in setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    raw = {
        "certs_per_s": tally.certs / sum(tally.latencies),
        "latency_p50_s": percentile(tally.latencies, 50),
        "latency_tail_s": percentile(tally.latencies, p_tail),
        "setup_s": statistics.median(s for _t, s in setup_times),
    }
    print(f"workload {name}  seed {args.seed}  trace {args.trace}  "
          f"operations {tally.attempted} ({len(gate.ops)} per pass)")
    for key, value in metrics.items():
        wall = f"  (wall {raw[key]:.6g})" if key in raw else ""
        print(f"  {key:<16} {value:.6g} {END_TO_END[key]}{wall}")
    print(f"  reference task   median {statistics.median(speed.durations):.6g} s "
          f"over {len(speed.durations)} samples; times are scaled to "
          f"{REFERENCE_TASK_S} s")
    print(f"  latency_tail_s is p{p_tail} of {len(tally.latencies)} samples "
          f"({len(tally.latencies) * (100 - p_tail) / 100:g} beyond it)")
    print(f"  failed_share     {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted})")
    if name == "normal-forms":
        print(f"  smith probe, 12x12 Bernstein pencil: {probe[1]} of {probe[0]} "
              f"over the {OP_TIME_LIMIT_S} s limit")
    for key, count in sorted(tally.failures.items()):
        print(f"  FAILED x{count}: {key}")
    for problem in problems:
        print(f"  GATE: {problem}")
    if args.trace:
        layer["normalforms.smith_form.timeouts"] = probe[1]
        units = {k: u for k, u, _b in per_layer_metrics()}
        for key, value in layer.items():
            print(f"  {key:<48} {value:.6g} {units[key]}")
        out = {k: {"value": layer[k], "unit": u} for k, u in units.items()}
    else:
        out = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    correct = tally.failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
