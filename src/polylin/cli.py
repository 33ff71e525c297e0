"""Command-line front end.

Commands: pencil, equiv, nf, convert, sweep.  Exit codes: 0 verified,
1 falsified, 2 malformed input, 3 precondition violation.  All output is
UTF-8 JSON with rationals as strings; identical inputs and seeds give
byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from typing import Callable, NamedTuple

from .errors import InputError, PolylinError, PreconditionError
from .exact import ConstMatrix
from . import bases, equivalence, normalforms, pencils, randgen, serialize, verify

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3


def _dump(obj, path: str | None):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except ValueError as exc:  # bad JSON or UTF-8, or an integer over the digit limit
        raise InputError(f"bad JSON in {path}: {exc}") from None
    except RecursionError:
        raise InputError(f"JSON in {path} is nested too deeply") from None


def _load_basis_arg(arg: str):
    """--basis accepts inline JSON or a path to a JSON file."""
    text = arg.strip()
    if text.startswith("{"):
        try:
            obj = json.loads(text)
        except ValueError as exc:
            raise InputError(f"bad inline basis JSON: {exc}") from None
        except RecursionError:
            raise InputError("inline basis JSON is nested too deeply") from None
        return serialize.parse_basis(obj)
    return serialize.parse_basis(_load(arg))


def cmd_pencil(args) -> int:
    p = serialize.parse_matrix_polynomial(_load(args.infile))
    pen = pencils.build_pencil(p)
    _dump(serialize.pencil_obj(pen), args.out)
    return EXIT_OK


def cmd_convert(args) -> int:
    p = serialize.parse_matrix_polynomial(_load(args.infile))
    target = _load_basis_arg(args.basis)
    q = bases.convert(p, target)
    _dump(serialize.matrix_polynomial_obj(q), args.out)
    return EXIT_OK


class Route(NamedTuple):
    """How equiv and sweep certify one basis kind.

    The first three fields are named after the equiv modes they serve; a
    falsy one means the mode does not apply to the kind.  The callables look
    constructors up on their modules at call time, so a wrapper installed
    on a module attribute sees every call.
    """

    cofactors: Callable  # (p, pencil) -> CofactorPair
    strict: Callable | None  # p -> StrictEquivalence
    reversal: bool  # the Bernstein reversal map applies
    min_grade: int  # smallest grade sweep draws


ROUTES = {
    "monomial": Route(
        lambda p, pen: equivalence.monomial_cofactors(p), None, False, 1),
    "recurrence": Route(
        lambda p, pen: equivalence.assemble_cofactors(
            equivalence.recurrence_hermite_analogue(p, pen), pen, p),
        None, False, 2),
    "bernstein": Route(
        lambda p, pen: equivalence.assemble_cofactors(
            equivalence.bernstein_hermite_analogue(p, pen), pen, p),
        lambda p: equivalence.bernstein_strict_equivalence(p),
        True, 2),
    "lagrange": Route(
        lambda p, pen: equivalence.assemble_cofactors(
            equivalence.lagrange_hermite_factors(p, pen), pen, p),
        lambda p: equivalence.lagrange_strict_equivalence(p),
        False, 1),
}


def _check_cofactors(route: Route, p, pen=None):
    if pen is None:
        pen = pencils.build_pencil(p)
    cof = route.cofactors(p, pen)
    return verify.verify_linearization(pen, p, cof), {"E": cof.e, "F": cof.f}


def _check_strict(route: Route, p, pen=None):
    se = route.strict(p)
    if pen is None:  # built after the constructor, whose precondition errors come first
        pen = pencils.build_pencil(p)
    return verify.verify_strict(se, pen, p), {"U": se.u, "W": se.w}


def _check_reversal(route: Route, p, pen=None):
    re = equivalence.bernstein_reversal_equivalence(list(p.coeffs))
    return verify.verify_reversal_equivalence(re, p), {"U": re.u, "Winv": re.winv}


# Each check builds one certificate for p (with pencil pen, built when not
# given) and returns (verdict, factors by name in certificate order); sweep
# runs them in this order.
CHECKS = {
    "cofactors": _check_cofactors,
    "strict": _check_strict,
    "reversal": _check_reversal,
}


def _factor_obj(m):
    if isinstance(m, ConstMatrix):
        return serialize.const_matrix_obj(m)
    return serialize.polymatrix_obj(m)


def cmd_equiv(args) -> int:
    p = serialize.parse_matrix_polynomial(_load(args.infile))
    route = ROUTES[p.basis.kind]
    if not getattr(route, args.mode):
        kinds = " or ".join(k for k, r in ROUTES.items() if getattr(r, args.mode))
        raise PreconditionError(f"{args.mode} mode needs a {kinds} input")
    verdict, factors = CHECKS[args.mode](route, p)
    if not verdict.ok:
        _dump({"check": verdict.check, "ok": False,
               "counterexample": verdict.counterexample}, args.out)
        return EXIT_FALSIFIED
    cert = {
        "kind": args.mode,
        "basis": serialize.basis_obj(p.basis),
        **{name: _factor_obj(m) for name, m in factors.items()},
        "verified": True,
        "unit": {name: serialize.frac_str(d)
                 for name, d in zip(factors, verdict.factor_dets)},
    }
    _dump(cert, args.out)
    return EXIT_OK


def cmd_nf(args) -> int:
    m = serialize.parse_polymatrix(_load(args.infile))
    if args.kind == "hermite":
        res = normalforms.hermite_form(m)
        _dump({
            "H": serialize.polymatrix_obj(res.h),
            "U": serialize.polymatrix_obj(res.u),
            "pivots": list(res.pivot_cols),
            "rankDeficient": res.rank_deficient,
        }, args.out)
        return EXIT_OK
    if args.kind == "smith":
        res = normalforms.smith_form(m)
        _dump({
            "S": serialize.polymatrix_obj(res.s),
            "E": serialize.polymatrix_obj(res.e),
            "F": serialize.polymatrix_obj(res.f),
            "invariantFactors": [serialize.polyq_obj(s) for s in res.invariant_factors],
        }, args.out)
        return EXIT_OK
    if args.kind == "mask":
        grid = normalforms.mask(m)
        if args.out is None or args.out == "-":
            sys.stdout.write("\n".join(grid) + "\n")
        else:
            _dump({"rows": m.rows, "cols": m.cols, "mask": grid}, args.out)
        return EXIT_OK
    raise InputError(f"unknown normal form {args.kind!r}")


def _sweep_one(rng: random.Random, kind: str, nmax: int, lmax: int,
               inject_fault: bool, smith_checks: bool) -> dict | None:
    """Run every applicable constructor+verifier on one random instance,
    then, with smith_checks, verify_strong and smith_equivalence_check.

    Returns None on success or a counterexample description.
    """
    route = ROUTES[kind]
    grade = rng.randint(route.min_grade, max(route.min_grade, lmax))
    n = rng.randint(1, nmax)
    basis = randgen.rand_basis(rng, kind, grade)
    p = randgen.rand_matrix_polynomial(rng, basis, n)
    pen = pencils.build_pencil(p)

    if inject_fault:
        bad = list(pen.c0.entries)
        bad[0] += 1
        pen = pencils.Pencil(pen.c1, ConstMatrix(pen.c0.rows, pen.c0.cols, bad),
                             pen.n, pen.block_count, pen.basis_tag)

    def fail(check):
        return {
            "check": check,
            "basis": kind,
            "instance": serialize.matrix_polynomial_obj(p),
        }

    if not verify.verify_companion(pen, p).ok:
        return fail("companion")
    for mode, check in CHECKS.items():
        if not getattr(route, mode):
            continue
        try:
            verdict, _ = check(route, p, pen)
        except PreconditionError:
            if mode != "cofactors":
                raise
            continue  # singular leading block / value: documented restriction
        if not verdict.ok:
            return fail(verdict.check)
    if smith_checks:
        for check in (verify.verify_strong, verify.smith_equivalence_check):
            verdict = check(pen, p)
            if not verdict.ok:
                return fail(verdict.check)
    return None


def cmd_sweep(args) -> int:
    kinds = [k.strip() for k in args.bases.split(",") if k.strip()]
    if not kinds:
        raise InputError("--bases names no basis kind")
    for k in kinds:
        if k not in ROUTES:
            raise InputError(f"unknown basis kind {k!r}")
    for name in ("nmax", "lmax", "count"):
        if getattr(args, name) < 1:
            raise InputError(f"--{name} must be at least 1")
    rng = random.Random(args.seed)
    report = {"seed": args.seed, "count": args.count, "nmax": args.nmax,
              "lmax": args.lmax, "bases": {}, "ok": True}
    if args.smith_checks:
        report["smith_checks"] = True
    counterexample = None
    for kind in kinds:
        passed = 0
        for i in range(args.count):
            fault = args.inject_fault and i == 0
            bad = _sweep_one(rng, kind, args.nmax, args.lmax, fault, args.smith_checks)
            if bad is None:
                passed += 1
            else:
                counterexample = bad
                break
        report["bases"][kind] = {"passed": passed, "of": args.count}
        if counterexample:
            report["ok"] = False
            report["counterexample"] = counterexample
            break
    _dump(report, args.out)
    return EXIT_OK if report["ok"] else EXIT_FALSIFIED


@functools.cache  # parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polylin",
        description="Exact companion pencils, equivalences, and normal forms over Q[z].",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pencil", help="build the companion pencil of a matrix polynomial")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_pencil)

    sp = sub.add_parser("convert", help="convert a matrix polynomial to another basis")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--basis", required=True, help="target basis (inline JSON or file)")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_convert)

    sp = sub.add_parser("equiv", help="build and verify an equivalence certificate")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--mode", choices=["cofactors", "strict", "reversal"],
                    default="cofactors")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_equiv)

    sp = sub.add_parser("nf", help="Hermite/Smith normal form or structural mask")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--kind", choices=["hermite", "smith", "mask"], required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_nf)

    sp = sub.add_parser("sweep", help="randomized construct-and-verify sweep")
    sp.add_argument("--bases", default="monomial,recurrence,bernstein,lagrange")
    sp.add_argument("--nmax", type=int, default=3)
    sp.add_argument("--lmax", type=int, default=6)
    sp.add_argument("--count", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--smith-checks", action="store_true",
                    help="add verify_strong and smith_equivalence_check after the others")
    sp.add_argument("--inject-fault", action="store_true",
                    help=argparse.SUPPRESS)  # test hook: corrupt one entry
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_sweep)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except PolylinError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED


if __name__ == "__main__":
    sys.exit(main())
