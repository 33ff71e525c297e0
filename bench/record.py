"""Record reference.json: the digest of every catalog operation's output.

    python3 bench/record.py [workload ...]

Runs each operation of each workload on every catalog variant, checks its
exit code against the one derived from the input (and Smith outputs
against an independent determinant), and stores the digest of its output
bytes ("" when it writes none).  Run it only at a commit whose outputs are
known good: later runs require byte-identical outputs.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

from gate import digest
from run import REFERENCE, WORK, Program, Runner, prepare, smith_problem
from workloads import VARIANTS, WORKLOADS, expected_code, ops_of


def record(name: str, runner: Runner, workdir) -> list[list[str]]:
    slots = WORKLOADS[name]
    ops = ops_of(slots)
    table = [[""] * VARIANTS for _ in ops]
    worst = [0.0] * len(ops)
    for v in range(VARIANTS):
        paths = prepare(runner, name, slots, dict.fromkeys(range(len(slots)), v), workdir)
        for k, op in enumerate(ops):
            inp = paths[op.slot][op.on]
            res = runner.timed(op, inp, str(workdir / "out.json"))
            want = expected_code(op, paths[op.slot]["instance"])
            problem = res.error or (res.code != want and f"exit {res.code}, expected {want}")
            if not problem and op.kind == "nf" and op.arg == "smith":
                problem = smith_problem(res.data, inp)
            if problem:
                raise SystemExit(f"{name} op {k} ({op.label}) variant {v}: {problem}")
            table[k][v] = digest(res.data) if res.data is not None else ""
            worst[k] = max(worst[k], res.latency)
    for k, op in enumerate(ops):
        s = slots[op.slot]
        print(f"{name:>14} #{k:<3} {op.label:<42} {s.basis:<10} n={s.n} L={s.grade} "
              f"worst {worst[k]:.3f} s", file=sys.stderr)
    return table


def main(argv: list[str]) -> int:
    names = argv or sorted(WORKLOADS)
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    workdir = WORK / f"record-{os.getpid()}"
    runner = Runner(Program())
    try:
        for name in names:
            t0 = time.perf_counter()
            ref[name] = record(name, runner, workdir)
            print(f"{name}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = []
    for name in sorted(ref):
        rows = ",\n".join("  " + json.dumps(row) for row in ref[name])
        lines.append(f"{json.dumps(name)}: [\n{rows}\n]")
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
