"""Per-layer spans, recorded from outside the program.

Tracer.install() wraps the public functions of each polylin layer, both
where they are defined and wherever another module binds them by name
(for example verify.is_unimodular or equivalence.polymatrix_inverse_unimodular),
so calls made inside other layers are caught too.  Each call appends a
span (name, start, end, parent, op) to a list in memory; the spans are
written out when the benchmark ends.  A span's self time is its duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import json
import sys
import time

# (span name, module, members); the span name is the metric prefix.
GROUPS = [
    ("exact.polymatrix_inverse_unimodular", "exact", ["polymatrix_inverse_unimodular"]),
    ("exact.polymatrix_det", "exact", ["polymatrix_det"]),
    ("exact.is_unimodular", "exact", ["is_unimodular"]),
    ("exact.polymatrix_mul", "exact", ["polymatrix_mul"]),
    ("exact.solve_exact", "exact", ["solve_exact"]),
    ("exact.ConstMatrix.try_inverse", "exact", ["ConstMatrix.try_inverse"]),
    ("exact.ConstMatrix.det", "exact", ["ConstMatrix.det"]),
    ("exact.ConstMatrix.matmul", "exact", ["ConstMatrix.__matmul__"]),
    ("exact.PolyMatrix.evaluate", "exact", ["PolyMatrix.evaluate"]),
    ("equivalence.triangular", "equivalence",
     ["recurrence_hermite_analogue", "bernstein_hermite_analogue", "lagrange_hermite_factors"]),
    ("equivalence.monomial_cofactors", "equivalence", ["monomial_cofactors"]),
    ("equivalence.assemble_cofactors", "equivalence", ["assemble_cofactors"]),
    ("equivalence.strict", "equivalence",
     ["bernstein_strict_equivalence", "lagrange_strict_equivalence", "lagrange_monomial_target"]),
    ("equivalence.reversal", "equivalence", ["bernstein_reversal_equivalence"]),
    ("equivalence.reversal_coeffs", "equivalence", ["bernstein_reversal_coeffs"]),
    ("verify.verify_companion", "verify", ["verify_companion"]),
    ("verify.verify_linearization", "verify", ["verify_linearization"]),
    ("verify.verify_strict", "verify", ["verify_strict"]),
    ("verify.verify_reversal_equivalence", "verify", ["verify_reversal_equivalence"]),
    ("verify.verify_strong", "verify", ["verify_strong"]),
    ("verify.smith_equivalence_check", "verify", ["smith_equivalence_check"]),
    ("verify.verify_bernstein_reversal_pencil", "verify", ["verify_bernstein_reversal_pencil"]),
    ("normalforms.hermite_form", "normalforms", ["hermite_form"]),
    ("normalforms.smith_form", "normalforms", ["smith_form"]),
    ("serialize.parse", "serialize", ["parse_matrix_polynomial", "parse_polymatrix"]),
    ("serialize.dump", "serialize",
     ["matrix_polynomial_obj", "polymatrix_obj", "const_matrix_obj", "basis_obj", "pencil_obj"]),
    ("pencils.build_pencil", "pencils",
     ["build_pencil", "build_monomial_pencil", "build_recurrence_pencil",
      "build_bernstein_pencil", "build_lagrange_pencil"]),
    ("bases.to_monomial", "bases", ["to_monomial"]),
    ("bases.matrix_poly_as_polymatrix", "bases", ["matrix_poly_as_polymatrix"]),
    ("bases.barycentric_weights", "bases", ["barycentric_weights"]),
    ("cli.main", "cli", ["main"]),
]

PACKAGE = "polylin"
OP_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack = [-1]
        self._patches: list = []

    # -- patching ---------------------------------------------------------
    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1], self.op)

        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for name, mod_name, members in GROUPS:
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            for member in members:
                owner_name, _, attr = member.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                original = getattr(owner, attr)
                wrapped = self._wrap(name, original)
                self._set(owner, attr, wrapped)
                if owner_name:
                    continue  # methods are looked up through the class
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, key, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- operations -------------------------------------------------------
    def begin_op(self, op: int):
        """Open the root span of an operation; its times come from the
        caller's clock readings in end_op."""
        self.op = op
        self._stack.append(len(self.spans))
        self.spans.append(None)

    def end_op(self, start: float, end: float):
        idx = self._stack.pop()
        self.spans[idx] = (OP_SPAN, start, end, -1, self.op)
        self.op = -1

    def take(self) -> list:
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans: list) -> list[float]:
    child = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_n, start, end, _p, _o) in enumerate(spans)]


def summarize(spans: list) -> tuple[dict, list[tuple[float, float]]]:
    """Per-span-name calls, self_s and total_s (outermost spans of a name
    only, so recursion within a group is not counted twice), plus for each
    operation its wall time and the sum of the self times inside it."""
    selfs = self_times(spans)
    stats: dict[str, dict] = {}
    per_op: dict[int, list[float]] = {}
    for i, (name, start, end, parent, op) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        s["calls"] += 1
        s["self_s"] += selfs[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            s["total_s"] += end - start
        acc = per_op.setdefault(op, [0.0, 0.0])
        acc[1] += selfs[i]
        if name == OP_SPAN:
            acc[0] = end - start
    return stats, [tuple(v) for v in per_op.values()]


def write_spans(path: str, passes: list[list]):
    with open(path, "w", encoding="utf-8") as fh:
        for k, spans in enumerate(passes):
            for name, start, end, parent, op in spans:
                fh.write(json.dumps([k, name, start, end, parent, op]) + "\n")
