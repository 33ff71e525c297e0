"""Seeded instance catalog and the operation list of each workload.

Every workload is a fixed list of *slots*.  A slot fixes the basis, n and
grade of one matrix polynomial and the operations run on it; its
coefficients come from a catalog of VARIANTS instances per slot, each drawn
from its own fixed seed, so every input a run can meet has a recorded
reference output (reference.json).

A workload's slot list is COPIES[name] copies of one *block* of shapes.  A
run is a sequence of passes: pass j runs block j mod COPIES, each slot on a
variant drawn afresh from the run seed (pass_plan).  The same seed gives the
same sequence of inputs and another seed another one.  Fixing the shapes
keeps the work in a pass nearly the same from pass to pass, and drawing
fresh values every pass averages a run over many instances, so that the
figures of runs with different seeds agree.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from gate import fraction_det

VARIANTS = 8
BASES = ("monomial", "recurrence", "bernstein", "lagrange")


@dataclass(frozen=True)
class Op:
    """One closed-loop operation on the input of one slot.

    kind is "equiv" (arg = mode), "nf" (arg = hermite|smith, on = L|P) or
    "verify" (arg = the public verify.* function).
    """

    slot: int
    kind: str
    arg: str
    on: str = ""

    @property
    def label(self) -> str:
        return "/".join(x for x in (self.kind, self.arg, self.on) if x)


@dataclass(frozen=True)
class Slot:
    basis: str
    n: int
    grade: int
    ops: tuple[tuple[str, str, str], ...]


def blocks(basis: str, grade: int) -> int:
    """Block count of the companion pencil."""
    return grade + 2 if basis == "lagrange" else grade


def _equiv_ops(basis: str) -> tuple[tuple[str, str, str], ...]:
    ops = [("equiv", "cofactors", "")]
    if basis in ("bernstein", "lagrange"):
        ops.append(("equiv", "strict", ""))
    if basis == "bernstein":
        ops.append(("equiv", "reversal", ""))
    return tuple(ops)


def _sweep_mix() -> list[Slot]:
    # The shapes `polylin sweep` draws (n 1-3, grade up to 6), capped at
    # pencil size 10 so that no single instance dominates a pass.
    slots = []
    for basis in BASES:
        lo = 2 if basis in ("recurrence", "bernstein") else 1
        for n in (1, 2, 3):
            for grade in range(lo, 7):
                if n * blocks(basis, grade) <= 10:
                    slots.append(Slot(basis, n, grade, _equiv_ops(basis)))
    return slots


def _certify_large() -> list[Slot]:
    # Two shapes per basis at pencil size 12-16 (0.1-0.7 s an operation),
    # n >= 3 so that few draws hit a singular block and refuse at once.
    cof = (("equiv", "cofactors", ""),)
    shapes = {"monomial": ((4, 4), (3, 5)), "recurrence": ((3, 4), (4, 3)),
              "bernstein": ((3, 4), (4, 3)), "lagrange": ((3, 3), (4, 2))}
    return [Slot(b, n, grade, cof) for b in BASES for n, grade in shapes[b]]


def _normal_forms() -> list[Slot]:
    nf = tuple(("nf", k, on) for on in ("L", "P") for k in ("hermite", "smith"))
    smith_checks = (("verify", "verify_strong", ""),
                    ("verify", "smith_equivalence_check", ""))
    slots = []
    for basis, n, grade in (("monomial", 2, 3), ("monomial", 3, 2),
                            ("recurrence", 2, 3), ("recurrence", 3, 2),
                            ("bernstein", 2, 3), ("bernstein", 3, 2),
                            ("lagrange", 2, 2), ("lagrange", 3, 1)):
        extra = (("verify", "verify_bernstein_reversal_pencil", ""),) \
            if basis == "bernstein" else ()
        slots.append(Slot(basis, n, grade, nf + smith_checks + extra))
    # Larger L(z) for Hermite only, at most ~0.25 s each: the 12x12
    # Bernstein (1.2 s) and Lagrange (0.4 s) pencils would take most of a
    # pass, and a run would hold too few of the small operations to give
    # a steady median.
    for basis, n, grade in (("monomial", 2, 6), ("recurrence", 2, 6),
                            ("lagrange", 2, 3), ("bernstein", 3, 3)):
        extra = (("verify", "verify_bernstein_reversal_pencil", ""),) \
            if basis == "bernstein" else ()
        slots.append(Slot(basis, n, grade, (("nf", "hermite", "L"),) + extra))
    return slots


def _strict_large() -> list[Slot]:
    slots = []
    # Pencil sizes 36-50 (n 4-6): large enough that the constant-matrix
    # kernels dominate, small enough (0.1-0.6 s an operation) that a run
    # holds about a hundred operations.  Many shapes rather than copies of
    # a few, so that operation times spread evenly and the median does not
    # sit in a gap between two shapes.
    for n, grade in ((4, 9), (4, 10), (5, 8), (6, 7), (5, 9), (6, 8), (5, 10)):
        slots.append(Slot("bernstein", n, grade,
                          (("equiv", "strict", ""), ("equiv", "reversal", ""))))
    for n, grade in ((4, 7), (4, 8), (5, 6), (6, 5), (5, 7), (6, 6), (5, 8)):
        slots.append(Slot("lagrange", n, grade, (("equiv", "strict", ""),)))
    return slots


# Copies of each block in the catalog: more distinct instances where one
# block holds many small slots.
COPIES = {"sweep-mix": 4, "certify-large": 1, "normal-forms": 3, "strict-large": 1}
BLOCKS = {
    "sweep-mix": _sweep_mix(),
    "certify-large": _certify_large(),
    "normal-forms": _normal_forms(),
    "strict-large": _strict_large(),
}
WORKLOADS = {name: block * COPIES[name] for name, block in BLOCKS.items()}

# The tail percentile each workload reports: the highest of p99, p95, p90
# and p75 with at least ten samples beyond it in a 20-second run on a host
# 1.7x slower than one where a run holds about 620, 64, 930 and 110
# operations; fixed so that runs and commits compare like with like.
TAIL_PERCENTILE = {"sweep-mix": 95, "certify-large": 75, "normal-forms": 95,
                   "strict-large": 75}

# The 12x12 Bernstein pencil (n=3, L=4) whose Smith form does not finish
# (ROADMAP C).  It runs once per normal-forms run under the operation time
# limit and is reported apart from the workload's own operations.
SMITH_PROBE = Slot("bernstein", 3, 4, (("nf", "smith", "L"),))


def ops_of(slots: list[Slot]) -> list[Op]:
    return [Op(i, kind, arg, on) for i, s in enumerate(slots) for kind, arg, on in s.ops]


# ---------------------------------------------------------------------------
# instance generation (entries p/q with p in [-9, 9], q in [1, 9], as in sweep)


def _frac(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        f = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if f or not nonzero:
            return f


def _basis(rng: random.Random, kind: str, grade: int) -> dict:
    out = {"kind": kind, "grade": grade}
    if kind == "recurrence":
        out["alpha"] = [str(_frac(rng, True)) for _ in range(grade)]
        out["beta"] = [str(_frac(rng)) for _ in range(grade)]
        out["gamma"] = ["0"] + [str(_frac(rng)) for _ in range(grade - 1)]
    elif kind == "lagrange":
        nodes: list[Fraction] = []
        while len(nodes) < grade + 1:
            t = _frac(rng)
            if t not in nodes:
                nodes.append(t)
        out["nodes"] = [str(t) for t in nodes]
    return out


def instance(workload: str, slot_index: int, slot: Slot, variant: int) -> dict:
    """Matrix polynomial JSON of one catalog entry."""
    rng = random.Random(f"polylin-bench/{workload}/{slot_index}/{variant}")
    basis = _basis(rng, slot.basis, slot.grade)
    coeffs = [[[str(_frac(rng)) for _ in range(slot.n)] for _ in range(slot.n)]
              for _ in range(slot.grade + 1)]
    return {"n": slot.n, "basis": basis, "coeffs": coeffs}


def pass_plan(name: str, seed: int) -> Iterator[dict[int, int]]:
    """The run's passes, without end: {slot index: variant} for the slots of
    the pass's block.  Each slot deals its variants from a deck shuffled by
    the seed, so a run meets every variant once before any repeats and the
    work in a run depends less on the seed than with independent draws."""
    rng = random.Random(seed)
    size = len(BLOCKS[name])
    decks: dict[int, list[int]] = {}
    for j in itertools.count():
        first = j % COPIES[name] * size
        chosen = {}
        for i in range(first, first + size):
            if not decks.get(i):
                decks[i] = rng.sample(range(VARIANTS), VARIANTS)
            chosen[i] = decks[i].pop()
        yield chosen


# ---------------------------------------------------------------------------
# expected exit codes, derived from the input alone


def _singular(block: list[list[str]]) -> bool:
    return fraction_det([[Fraction(x) for x in row] for row in block]) == 0


def expected_code(op: Op, inst: dict) -> int:
    """CLI exit code the operation must return (0 also for verifier ops,
    whose verdict must hold).

    The triangular cofactor routes need a nonsingular block: A_L for the
    recurrence basis, P(1) = Y_L for Bernstein, every node value for
    Lagrange.  Otherwise they refuse with a precondition error (3).
    """
    if op.kind == "equiv" and op.arg == "cofactors":
        coeffs = inst["coeffs"]
        kind = inst["basis"]["kind"]
        if kind in ("recurrence", "bernstein") and _singular(coeffs[-1]):
            return 3
        if kind == "lagrange" and any(_singular(c) for c in coeffs):
            return 3
    return 0
