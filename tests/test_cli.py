"""CLI round trips, exit codes, and determinism."""

import dataclasses
import hashlib
import json
from fractions import Fraction as F

import pytest

from polylin.cli import main
from polylin.errors import ConjectureFailure, InputError
from polylin import bases, equivalence, pencils, serialize, verify
from polylin.bases import Bernstein, Lagrange, MatrixPolynomial, Monomial, Recurrence
from polylin.exact import ConstMatrix, PolyMatrix, PolyQ

from conftest import fraction_parse_const_matrix, fraction_parse_polyq, parse_pencil


def write_json(path, obj):
    path.write_text(json.dumps(obj))


def mono_p_obj():
    p = MatrixPolynomial.scalar(Monomial(2), [2, -3, 1])
    return serialize.matrix_polynomial_obj(p)


def _inject_fault(monkeypatch):
    """Make the first pencils.build_pencil call return its pencil with C0
    entry (0, 0) raised by 1, and later calls the true pencil."""
    real = pencils.build_pencil
    built = []

    def faulty(p):
        pen = real(p)
        built.append(pen)
        if len(built) > 1:
            return pen
        bad = list(pen.c0.entries)
        bad[0] += 1
        return dataclasses.replace(pen, c0=ConstMatrix(pen.c0.rows, pen.c0.cols, bad))

    monkeypatch.setattr(pencils, "build_pencil", faulty)


class TestPencilCommand:
    def test_roundtrip(self, tmp_path):
        infile = tmp_path / "p.json"
        outfile = tmp_path / "L.json"
        write_json(infile, mono_p_obj())
        assert main(["pencil", "--in", str(infile), "--out", str(outfile)]) == 0
        pen = parse_pencil(json.loads(outfile.read_text()))
        assert pen.n == 1 and pen.block_count == 2
        assert pen.basis_tag == "monomial"

    def test_bernstein_grade5_structure(self, tmp_path):
        p = MatrixPolynomial.scalar(Bernstein(5), [1, 2, 3, 4, 5, 6])
        infile = tmp_path / "p.json"
        outfile = tmp_path / "L.json"
        write_json(infile, serialize.matrix_polynomial_obj(p))
        assert main(["pencil", "--in", str(infile), "--out", str(outfile)]) == 0
        pen = parse_pencil(json.loads(outfile.read_text()))
        diag = [pen.c1.get(i, i) for i in range(1, 5)]
        assert [str(d) for d in diag] == ["1/2", "1", "2", "5"]

    def test_malformed_input_exit2(self, tmp_path):
        infile = tmp_path / "bad.json"
        infile.write_text("{not json")
        assert main(["pencil", "--in", str(infile)]) == 2

    def test_missing_file_exit2(self, tmp_path):
        assert main(["pencil", "--in", str(tmp_path / "nope.json")]) == 2

    def test_duplicate_nodes_exit3(self, tmp_path):
        obj = {
            "n": 1,
            "basis": {"kind": "lagrange", "grade": 2, "nodes": ["0", "1", "1"]},
            "coeffs": [[["1"]], [["2"]], [["3"]]],
        }
        infile = tmp_path / "p.json"
        write_json(infile, obj)
        assert main(["pencil", "--in", str(infile)]) == 3

    def test_zero_alpha_exit3(self, tmp_path):
        obj = {
            "n": 1,
            "basis": {"kind": "recurrence", "grade": 2,
                      "alpha": ["1", "0"], "beta": ["0", "0"],
                      "gamma": ["0", "0"]},
            "coeffs": [[["1"]], [["2"]], [["3"]]],
        }
        infile = tmp_path / "p.json"
        write_json(infile, obj)
        assert main(["pencil", "--in", str(infile)]) == 3


class TestConvertCommand:
    def test_monomial_to_lagrange(self, tmp_path):
        infile = tmp_path / "p.json"
        outfile = tmp_path / "q.json"
        write_json(infile, mono_p_obj())
        basis = '{"kind": "lagrange", "grade": 2, "nodes": ["0", "1", "2"]}'
        assert main(["convert", "--in", str(infile), "--basis", basis,
                     "--out", str(outfile)]) == 0
        q = serialize.parse_matrix_polynomial(json.loads(outfile.read_text()))
        assert [c.get(0, 0) for c in q.coeffs] == [2, 0, 0]  # p at 0, 1, 2

    @pytest.mark.parametrize("make_basis", [
        Monomial, Recurrence.chebyshev, Bernstein,
        lambda grade: Lagrange(grade, tuple(range(grade + 1)))],
        ids=["monomial", "recurrence", "bernstein", "lagrange"])
    def test_target_grade_between_degree_and_grade(self, make_basis, tmp_path):
        """P of grade 3 and degree 2 converts to any basis at grade 2 and
        back; a target grade below the degree is a precondition violation."""
        p = MatrixPolynomial.scalar(Monomial(3), [1, 2, 3, 0])
        infile, mid, back = tmp_path / "p.json", tmp_path / "q.json", tmp_path / "r.json"
        write_json(infile, serialize.matrix_polynomial_obj(p))

        def convert(src, basis, out):
            return main(["convert", "--in", str(src), "--basis",
                         json.dumps(serialize.basis_obj(basis)), "--out", str(out)])

        assert convert(infile, make_basis(2), mid) == 0
        assert serialize.parse_matrix_polynomial(json.loads(mid.read_text())).grade == 2
        assert convert(mid, Monomial(3), back) == 0
        assert serialize.parse_matrix_polynomial(json.loads(back.read_text())) == p
        assert convert(infile, make_basis(1), mid) == 3


class TestEquivCommand:
    def test_cofactors_monomial(self, tmp_path):
        infile = tmp_path / "p.json"
        outfile = tmp_path / "cert.json"
        write_json(infile, mono_p_obj())
        assert main(["equiv", "--in", str(infile), "--mode", "cofactors",
                     "--out", str(outfile)]) == 0
        cert = json.loads(outfile.read_text())
        assert cert["kind"] == "cofactors" and cert["verified"] is True
        e = serialize.parse_polymatrix(cert["E"])
        assert e.rows == 2

    def test_cofactors_bernstein_singular_at_one_exit3(self, tmp_path, capsys):
        p = MatrixPolynomial.scalar(Bernstein(3), [5, -1, 7, 0])
        infile = tmp_path / "p.json"
        write_json(infile, serialize.matrix_polynomial_obj(p))
        assert main(["equiv", "--in", str(infile), "--mode", "cofactors"]) == 3
        assert "SingularAtOne" in capsys.readouterr().err

    def test_strict_lagrange(self, tmp_path):
        p = MatrixPolynomial.scalar(Lagrange(2, (0, 1, 2)), [1, 3, 7])
        infile = tmp_path / "p.json"
        outfile = tmp_path / "cert.json"
        write_json(infile, serialize.matrix_polynomial_obj(p))
        assert main(["equiv", "--in", str(infile), "--mode", "strict",
                     "--out", str(outfile)]) == 0
        cert = json.loads(outfile.read_text())
        assert cert["kind"] == "strict" and cert["verified"] is True
        u = serialize.parse_const_matrix(cert["U"])
        assert u.rows == 4  # (grade + 2) blocks of size 1

    def test_strict_monomial_exit3(self, tmp_path):
        infile = tmp_path / "p.json"
        write_json(infile, mono_p_obj())
        assert main(["equiv", "--in", str(infile), "--mode", "strict"]) == 3

    def test_reversal_bernstein(self, tmp_path):
        p = MatrixPolynomial.scalar(Bernstein(4), [1, 2, -1, 3, 5])
        infile = tmp_path / "p.json"
        outfile = tmp_path / "cert.json"
        write_json(infile, serialize.matrix_polynomial_obj(p))
        assert main(["equiv", "--in", str(infile), "--mode", "reversal",
                     "--out", str(outfile)]) == 0
        cert = json.loads(outfile.read_text())
        assert cert["kind"] == "reversal"
        assert cert["unit"]["U"] in ("1", "-1")


class TestNfCommand:
    def test_mask_zero_matrix(self, tmp_path, capsys):
        obj = {"rows": 2, "cols": 2,
               "entries": [[["0"], ["0"]], [["0"], ["0"]]]}
        infile = tmp_path / "m.json"
        write_json(infile, obj)
        assert main(["nf", "--in", str(infile), "--kind", "mask"]) == 0
        assert capsys.readouterr().out == "00\n00\n"

    def test_hermite_output(self, tmp_path):
        obj = {"entries": [[["0"], ["1"]], [["1"], ["0"]]]}
        infile = tmp_path / "m.json"
        outfile = tmp_path / "h.json"
        write_json(infile, obj)
        assert main(["nf", "--in", str(infile), "--kind", "hermite",
                     "--out", str(outfile)]) == 0
        res = json.loads(outfile.read_text())
        h = serialize.parse_polymatrix(res["H"])
        assert [str(h.get(i, i)) for i in range(2)] == ["1", "1"]
        assert res["rankDeficient"] is False

    def test_hermite_mask_of_recurrence_pencil(self, tmp_path):
        from fractions import Fraction as F

        from polylin import Recurrence
        from polylin.normalforms import mask
        from polylin.pencils import build_recurrence_pencil

        p = MatrixPolynomial.scalar(Recurrence.chebyshev(5),
                                    [F(2), F(3), F(5), F(7), F(11), F(13)])
        pen = build_recurrence_pencil(p)
        infile = tmp_path / "m.json"
        outfile = tmp_path / "h.json"
        write_json(infile, serialize.polymatrix_obj(pen.as_polymatrix()))
        assert main(["nf", "--in", str(infile), "--kind", "hermite",
                     "--out", str(outfile)]) == 0
        res = json.loads(outfile.read_text())
        h = serialize.parse_polymatrix(res["H"])
        assert mask(h) == ["x000x", "0x00x", "00x0x", "000xx", "0000x"]

    def test_smith_of_lagrange_pencil(self, tmp_path):
        p = MatrixPolynomial.scalar(Lagrange(2, (0, 1, 2)), [2, 3, 6])
        from polylin.pencils import build_lagrange_pencil

        pen = build_lagrange_pencil(p)
        infile = tmp_path / "m.json"
        outfile = tmp_path / "s.json"
        write_json(infile, serialize.polymatrix_obj(pen.as_polymatrix()))
        assert main(["nf", "--in", str(infile), "--kind", "smith",
                     "--out", str(outfile)]) == 0
        res = json.loads(outfile.read_text())
        factors = [fraction_parse_polyq(f) for f in res["invariantFactors"]]
        assert all(str(f) == "1" for f in factors[:-1])
        assert factors[-1].degree == 2  # the monic interpolant

    def test_malformed_exit2(self, tmp_path):
        infile = tmp_path / "m.json"
        write_json(infile, {"entries": "nope"})
        assert main(["nf", "--in", str(infile), "--kind", "smith"]) == 2


class TestSweepCommand:
    def test_small_sweep_deterministic(self, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        args = ["sweep", "--count", "2", "--nmax", "2", "--lmax", "3",
                "--seed", "7"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["ok"] is True
        assert set(report["bases"]) == {"monomial", "recurrence", "bernstein",
                                        "lagrange"}

    def test_injected_fault_exit1(self, tmp_path, monkeypatch):
        _inject_fault(monkeypatch)
        out = tmp_path / "r.json"
        code = main(["sweep", "--count", "1", "--nmax", "1", "--lmax", "2",
                     "--seed", "3", "--bases", "monomial", "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["ok"] is False
        assert report["counterexample"]["check"] == "smith-equivalence"

    def test_lmax_below_a_kinds_smallest_grade(self, tmp_path, capsys):
        """--lmax 1 suits the kinds that draw grade 1 and refuses the others,
        which would draw above it."""
        out = tmp_path / "r.json"
        assert main(["sweep", "--count", "2", "--seed", "1", "--lmax", "1",
                     "--bases", "monomial,lagrange", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["ok"] is True
        assert main(["sweep", "--count", "2", "--seed", "1", "--lmax", "1",
                     "--bases", "monomial,recurrence"]) == 2
        assert capsys.readouterr().err == (
            "input error: --lmax 1 is below the smallest grade recurrence draws (2)\n")

    @pytest.mark.parametrize("flag", ["--smith-checks", "--inject-fault"])
    def test_removed_flags_exit2(self, flag, capsys):
        """Every sweep runs the Smith checks, and faults are injected only
        by tests, so neither flag exists."""
        assert main(["sweep", "--count", "1", flag]) == 2
        assert capsys.readouterr().err == f"input error: unrecognized arguments: {flag}\n"

    @pytest.mark.parametrize("function, check", [
        ("verify_strong", "strong"),
        ("smith_equivalence_check", "smith-equivalence"),
    ])
    def test_falsified_smith_check_named(self, function, check, tmp_path, monkeypatch):
        monkeypatch.setattr(verify, function, lambda pen, p: verify.Verdict(check, False))
        out = tmp_path / "r.json"
        code = main(["sweep", "--count", "1", "--nmax", "1", "--lmax", "2", "--seed", "3",
                     "--bases", "monomial", "--out", str(out)])
        assert code == 1
        assert json.loads(out.read_text())["counterexample"]["check"] == check

    def test_smith_checks_take_each_determinant_once(self, tmp_path, monkeypatch):
        # per draw: det L and det P in smith_equivalence_check, which runs in
        # place of verify_companion, and the two reversals' in verify_strong
        real = verify.polymatrix_det
        calls = []
        monkeypatch.setattr(verify, "polymatrix_det", lambda m: calls.append(m) or real(m))
        assert main(["sweep", "--count", "3", "--nmax", "2", "--lmax", "3", "--seed", "1",
                     "--out", str(tmp_path / "r.json")]) == 0
        draws = 3 * 4
        assert len(calls) == 4 * draws

    def test_conjecture_failure_is_a_counterexample(self, tmp_path, monkeypatch):
        # a constructor that gives up on the second draw: the report keeps
        # the draw, its basis and the counts passed so far
        real = equivalence.bernstein_strict_equivalence
        calls = []

        def fails_second(p):
            calls.append(p)
            if len(calls) == 2:
                raise ConjectureFailure("gave up on the second draw")
            return real(p)

        monkeypatch.setattr(equivalence, "bernstein_strict_equivalence", fails_second)
        out = tmp_path / "r.json"
        code = main(["sweep", "--count", "3", "--nmax", "2", "--lmax", "3", "--seed", "1",
                     "--bases", "monomial,bernstein", "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["ok"] is False
        assert report["bases"] == {"monomial": {"passed": 3, "of": 3},
                                   "bernstein": {"passed": 1, "of": 3}}
        bad = report["counterexample"]
        assert bad["check"] == "strict" and bad["basis"] == "bernstein"
        assert bad["error"] == "ConjectureFailure: gave up on the second draw"
        assert serialize.parse_matrix_polynomial(bad["instance"]) == calls[1]

    @pytest.mark.parametrize("kind, refusal", [
        ("recurrence", '"check": "linearization"'),
        ("bernstein", "ConjectureFailure: triangular factor U^(-1) is not unimodular"),
        ("lagrange", "ConjectureFailure: triangular factor U^(-1) is not unimodular"),
    ])
    def test_wrong_triangular_column_exit1(self, kind, refusal, tmp_path, capsys,
                                           monkeypatch):
        """A wrong closed form for Uinv's last block column is refused by
        verify_linearization or, when Uinv is no longer unimodular, by
        assemble_cofactors; never skipped as a precondition."""
        real = equivalence._triangular

        def wrong_last(pencil, last, h_col, corner_factor):
            eye = PolyMatrix.identity(pencil.n)
            last = [eye if last[0] is None else last[0] + eye] + list(last[1:])
            return real(pencil, last, h_col, corner_factor)

        monkeypatch.setattr(equivalence, "_triangular", wrong_last)
        infile = tmp_path / "p.json"
        write_json(infile, serialize.matrix_polynomial_obj(_golden_instances()[kind]))
        for argv in (["equiv", "--in", str(infile), "--mode", "cofactors"],
                     ["sweep", "--count", "3", "--seed", "1", "--bases", kind]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert refusal in captured.out + captured.err


def _mono_text(entry: str) -> str:
    """A 1x1 grade-1 monomial polynomial whose first coefficient is `entry`,
    spliced into the JSON text as written."""
    return ('{"n": 1, "basis": {"kind": "monomial", "grade": 1}, '
            '"coeffs": [[[%s]], [["1"]]]}' % entry)


def _basis_text(basis: str, grade: int) -> str:
    """A 1x1 polynomial of `grade` over `basis`, spliced in as written."""
    coeffs = ", ".join(['[["1"]]'] * (grade + 1))
    return '{"n": 1, "basis": %s, "coeffs": [%s]}' % (basis, coeffs)


def _lagrange_text(nodes: str) -> str:
    return _basis_text('{"kind": "lagrange", "grade": 1, "nodes": %s}' % nodes, 1)


def _recurrence_text(alpha: str) -> str:
    return _basis_text('{"kind": "recurrence", "grade": 2, "alpha": %s, '
                       '"beta": ["0", "0"], "gamma": ["0", "1"]}' % alpha, 2)


# a 2x2 constant matrix of 3000-digit entries, under the input's digit limit
BIG_NF_TEXT = json.dumps({"entries": [[["1" + "0" * 2999], ["3" * 3000]],
                                      [["7" * 3000], ["2" + "9" * 2999]]]})

EXIT2_CASES = [
    ("decimal", _mono_text('"0.5"'), ["pencil"]),
    ("exponent", _mono_text('"1e3"'), ["pencil"]),
    ("spaces", _mono_text('" 1"'), ["pencil"]),
    ("oversized json integer", _mono_text("1" * 4301), ["pencil"]),
    ("oversized rational string", _mono_text('"%s"' % ("1" * 4301)), ["pencil"]),
    ("ragged nf rows", '{"entries": [[["1"], ["0"]], [["1"]]]}',
     ["nf", "--kind", "hermite"]),
    ("empty nf row", '{"entries": [[]]}', ["nf", "--kind", "hermite"]),
    ("sweep nmax 0", None, ["sweep", "--nmax", "0"]),
    ("sweep lmax 0", None, ["sweep", "--lmax", "0"]),
    ("sweep lmax below recurrence grade", None, ["sweep", "--lmax", "1", "--bases", "recurrence"]),
    ("sweep count -1", None, ["sweep", "--count", "-1"]),
    ("sweep unknown basis", None, ["sweep", "--bases", "monomial,chebyshev"]),
    ("lagrange one node", _lagrange_text('["0"]'), ["pencil"]),
    ("recurrence alpha short", _recurrence_text('["1"]'), ["pencil"]),
    ("lagrange nodes number", _lagrange_text("5"), ["pencil"]),
    ("lagrange nodes string", _lagrange_text('"01"'), ["pencil"]),
    ("recurrence alpha string", _recurrence_text('"12"'), ["pencil"]),
    ("nf rows true", '{"rows": true, "entries": [[["1", "2"]]]}', ["nf", "--kind", "mask"]),
    ("nf cols float", '{"cols": 1.0, "entries": [[["1", "2"]]]}', ["nf", "--kind", "mask"]),
    ("numerator over a zero denominator", _mono_text('"%s/0"' % ("9" * 4300)), ["pencil"]),
    # valid input whose results have entries of about 6000 digits
    ("hermite result over the digit limit", BIG_NF_TEXT, ["nf", "--kind", "hermite"]),
    ("smith result over the digit limit", BIG_NF_TEXT, ["nf", "--kind", "smith"]),
    ("nested json", "[" * 200000 + "]" * 200000, ["nf", "--kind", "mask"]),
    ("deep list for a rational", '{"entries": %s}' % ("[" * 900 + "]" * 900),
     ["nf", "--kind", "hermite"]),
    ("nested inline basis", _mono_text('"1"'),
     ["convert", "--basis", '{"kind": %s}' % ("[" * 5000 + "]" * 5000)]),
    ("sweep bases comma", None, ["sweep", "--bases", ","]),
    ("sweep bases empty", None, ["sweep", "--bases", ""]),
    ("sweep bases repeated", None, ["sweep", "--bases", "monomial,monomial"]),
    # {dir} stands for an existing directory
    ("in is a directory", None, ["pencil", "--in", "{dir}"]),
    ("basis is a directory", _mono_text('"1"'), ["convert", "--basis", "{dir}"]),
    ("out in a missing directory", _mono_text('"1"'),
     ["pencil", "--out", "{dir}/missing/x.json"]),
    ("out is a directory", _mono_text('"1"'), ["pencil", "--out", "{dir}"]),
    # usage errors
    ("unknown option", None, ["sweep", "--smith-checks"]),
    ("sweep count not an integer", None, ["sweep", "--count", "two"]),
    ("missing --in", None, ["pencil"]),
]


@pytest.mark.parametrize("text, argv", [c[1:] for c in EXIT2_CASES],
                         ids=[c[0] for c in EXIT2_CASES])
def test_input_contract_exit2(text, argv, tmp_path, capsys):
    argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
    if text is not None:
        infile = tmp_path / "in.json"
        infile.write_text(text)
        argv = argv + ["--in", str(infile)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("input error: ")
    assert len(captured.err) < 250, "the message quotes at most 40 characters of a bad value"


_BERNSTEIN_1 = _basis_text('{"kind": "bernstein", "grade": 1}', 1)
_RECURRENCE_1 = _basis_text('{"kind": "recurrence", "grade": 1, "alpha": ["1"], '
                            '"beta": ["0"], "gamma": ["0"]}', 1)
_NON_SQUARE = '{"entries": [[["1"], ["2"]]]}'

# (id, input text, argv, the error class stderr names); each exits 3
EXIT3_CASES = [
    ("monomial grade 0", _basis_text('{"kind": "monomial", "grade": 0}', 0), ["pencil"],
     "GradeTooSmall"),
    ("convert to bernstein grade 0", _mono_text('"1"'),
     ["convert", "--basis", '{"kind": "bernstein", "grade": 0}'], "GradeTooSmall"),
    ("pencil bernstein grade 1", _BERNSTEIN_1, ["pencil"], "GradeTooSmall"),
    ("pencil recurrence grade 1", _RECURRENCE_1, ["pencil"], "GradeTooSmall"),
    ("cofactors bernstein grade 1", _BERNSTEIN_1, ["equiv", "--mode", "cofactors"],
     "GradeTooSmall"),
    ("cofactors recurrence grade 1", _RECURRENCE_1, ["equiv", "--mode", "cofactors"],
     "GradeTooSmall"),
    ("strict grade 1", _BERNSTEIN_1, ["equiv", "--mode", "strict"], "GradeTooSmall"),
    ("reversal grade 1", _BERNSTEIN_1, ["equiv", "--mode", "reversal"], "GradeTooSmall"),
    ("hermite non-square", _NON_SQUARE, ["nf", "--kind", "hermite"], "DimensionMismatch"),
    ("smith non-square", _NON_SQUARE, ["nf", "--kind", "smith"], "DimensionMismatch"),
    ("strict on monomial", _mono_text('"1"'), ["equiv", "--mode", "strict"],
     "PreconditionError"),
    ("strict on recurrence", _recurrence_text('["1", "1"]'), ["equiv", "--mode", "strict"],
     "PreconditionError"),
    ("reversal on lagrange", _lagrange_text('["0", "1"]'), ["equiv", "--mode", "reversal"],
     "PreconditionError"),
]


@pytest.mark.parametrize("text, argv, error", [c[1:] for c in EXIT3_CASES],
                         ids=[c[0] for c in EXIT3_CASES])
def test_precondition_exit3(text, argv, error, tmp_path, capsys):
    infile = tmp_path / "in.json"
    infile.write_text(text)
    assert main(argv + ["--in", str(infile)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"{error}: ")


@pytest.mark.parametrize("kind", ["hermite", "smith"])
def test_result_over_the_digit_limit_writes_no_file(kind, tmp_path, capsys):
    infile, out = tmp_path / "in.json", tmp_path / "out.json"
    infile.write_text(BIG_NF_TEXT)
    assert main(["nf", "--in", str(infile), "--kind", kind, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("input error: cannot write the result: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: polylin")


def parse_entry(coeffs):
    """A coefficient list read as the one entry of a 1x1 polynomial matrix."""
    return serialize.parse_polymatrix({"entries": [[coeffs]]}).get(0, 0)


class TestJsonRoundTrips:
    def test_fraction_strings(self):
        from fractions import Fraction

        assert serialize.frac_str(Fraction(-3, 4)) == "-3/4"
        assert serialize.frac_str(Fraction(5)) == "5"
        assert serialize.parse_frac("-3/4") == Fraction(-3, 4)
        with pytest.raises(Exception):
            serialize.parse_frac("0.5x")

    # rationals as JSON gives them: reduced or not, signed, zero over a
    # denominator, JSON ints, and 4300 digits (the limit) in either place
    GOOD = ["2/4", "-0", "+7", "0/5", "-4/6", "10/4", "1", 0, -12, 3 ** 500,
            "9" * 4300, "-" + "9" * 4300, "1/" + "9" * 4300, "6/" + "3" * 4300]
    BAD = ["1/0", "-0/0", "+7/0", True, False, 1.5, None, [], {}, ["1"],
           "9" * 4301, "1/" + "9" * 4301, "0.5", " 1", "1e3", "", "+-1", "1/-2"]

    def test_integer_parsers_match_the_fraction_parse(self):
        rows = [self.GOOD, self.GOOD[::-1], ["0", "0/5", "-0"], ["2/4", "0", "0"],
                ["-4/6", "10/4"], [7]]
        for row in rows:
            new, old = serialize.parse_const_matrix([row]), fraction_parse_const_matrix([row])
            assert new._form == old._form and new == old
            new, old = parse_entry(row), fraction_parse_polyq(row)
            assert (new.ints, new.den, new.grade) == (old.ints, old.den, old.grade)
        new = serialize.parse_const_matrix([self.GOOD[:4], self.GOOD[4:8]])
        assert new._form == fraction_parse_const_matrix([self.GOOD[:4], self.GOOD[4:8]])._form

    def test_integer_parsers_refuse_as_the_fraction_parse(self):
        for bad in self.BAD:
            for parse, oracle in [(serialize.parse_const_matrix, fraction_parse_const_matrix),
                                  (parse_entry, fraction_parse_polyq)]:
                arg = [["1", bad]] if oracle is fraction_parse_const_matrix else ["1", bad]
                with pytest.raises(InputError) as new:
                    parse(arg)
                with pytest.raises(InputError) as old:
                    oracle(arg)
                assert str(new.value) == str(old.value)
            assert str(pytest.raises(InputError, serialize.parse_frac, bad).value) == \
                str(old.value)

    def test_dumps_refuses_a_number_over_the_digit_limit(self):
        big = 10 ** 4300
        for x in [big, F(1, big), PolyQ([F(big, 3)]), ConstMatrix(1, 2, [0, big]),
                  PolyMatrix(1, 1, [PolyQ([0, big])]), {"a": [big]}]:
            with pytest.raises(InputError, match="^cannot write the result: "):
                serialize.dumps(x)
        assert serialize.dumps(10 ** 4299) == "1" + "0" * 4299

    def test_matrix_polynomial_roundtrip(self):
        p = MatrixPolynomial.scalar(Lagrange(2, (0, 1, 2)), [1, 3, 7])
        obj = serialize.matrix_polynomial_obj(p)
        q = serialize.parse_matrix_polynomial(json.loads(json.dumps(obj)))
        assert q == p

    def test_pencil_roundtrip(self):
        from polylin.pencils import build_monomial_pencil

        p = MatrixPolynomial.scalar(Monomial(2), [2, -3, 1])
        pen = build_monomial_pencil(p)
        obj = serialize.pencil_obj(pen)
        back = parse_pencil(json.loads(json.dumps(obj)))
        assert back.c1 == pen.c1 and back.c0 == pen.c0


# -- golden bytes -------------------------------------------------------------
# sha256 of "<exit code>\n<stdout><stderr>" for fixed inputs.  They pin the
# CLI's output contract: change a digest only when the output is meant to
# change.

def _poly2(basis, blocks):
    return MatrixPolynomial(2, basis, tuple(ConstMatrix.from_rows(b) for b in blocks))


def _golden_instances():
    return {
        "monomial": _poly2(Monomial(2), [[[1, 2], [0, 1]], [[0, -1], [3, 2]],
                                         [[2, 1], [1, 1]]]),
        "recurrence": _poly2(Recurrence.chebyshev(3),
                             [[[1, 0], [2, 1]], [[1, -1], [0, 2]],
                              [[0, 3], [1, 1]], [[2, 1], [-1, 1]]]),
        "bernstein": _poly2(Bernstein(3), [[[1, 2], [0, 1]], [[0, -1], [3, 2]],
                                           [[1, 0], [1, 2]], [[2, 1], [1, 1]]]),
        "lagrange": _poly2(Lagrange(2, (F(0), F(1), F(-1, 2))),
                           [[[1, 2], [0, 1]], [[0, -1], [3, 2]], [[2, 1], [1, 1]]]),
        "bernstein-singular-at-one": MatrixPolynomial.scalar(Bernstein(3), [5, -1, 7, 0]),
        "bernstein-grade-1": MatrixPolynomial.scalar(Bernstein(1), [0, 1]),
    }


GOLDEN = [
    (["equiv", "monomial", "cofactors"],
     "3711e6bcf19bb5d115ea3c7096b5572137258ee161c3fbff723414501baed993"),
    (["equiv", "monomial", "strict"],
     "b91457bf8039c43ddbfedf9229ff278320612743ac4f00860afe87ff8c771a4a"),
    (["equiv", "monomial", "reversal"],
     "592ed0dd95c98db1a7d671988e9cd21b491dc519d5dda82cf26a0d48bf09ed94"),
    (["equiv", "recurrence", "cofactors"],
     "44b8f3ca6f108797f90a7970e67fa34f0cf02139b0b56b3776ccd30616a32738"),
    (["equiv", "bernstein", "cofactors"],
     "fde0e3ff4470d3caaa28d31fcc3a3efc670ea23f6451b91624bde0ccf09a4c7f"),
    (["equiv", "bernstein", "strict"],
     "2778453d22dbf99ddd0a5be867fe6292f4f81a00b626c4c476f4caf0c5dfa0a1"),
    (["equiv", "bernstein", "reversal"],
     "edb9faf8d645f2637ee37bc37fa5ef7fb16282a61e565a07e9e6c439d78acdac"),
    (["equiv", "lagrange", "cofactors"],
     "61aa8e394c94b4d6f40771fa35754ea1cb3e86302b4380ce016de539c254d837"),
    (["equiv", "lagrange", "strict"],
     "59ecb61d4c6052cb58f7f70f13a4bbd93da27a717e6ab771c7b186c4fc214363"),
    (["equiv", "lagrange", "reversal"],
     "592ed0dd95c98db1a7d671988e9cd21b491dc519d5dda82cf26a0d48bf09ed94"),
    (["equiv", "bernstein-singular-at-one", "cofactors"],
     "4737540132bbdeab255c7ec997da3da5c9a84ad796f0375ce4478eb13b65639a"),
    (["equiv", "bernstein-grade-1", "strict"],
     "450a165988fa53c865da9079c9af2f0f9cd1df33482f5776cf0be6679db84aac"),
    (["nf", "monomial", "L", "hermite"],
     "1be7e4adf64bc69254528c61b72bf71733bd7bc86861bd50e028a890caa26a17"),
    (["nf", "monomial", "L", "smith"],
     "0464aed1ad7a49dccb5d312d626fadd2d0c1d55c8da6ecc2d49bcdc8c9f93e3a"),
    (["nf", "monomial", "P", "hermite"],
     "1d5ab208363a2554f5b35cde4eccdaec974476f5f7f30b9233714da7a66da518"),
    (["nf", "monomial", "P", "smith"],
     "efee4ed576db1410654c35ee74d495ba080dd5f1e85d8ed821c32375da564155"),
    (["nf", "recurrence", "L", "hermite"],
     "6441f3bdbbd5d473726ee63036c3d70055ffffd16f9f20fdae1082f59968ff27"),
    (["nf", "recurrence", "L", "smith"],
     "be8336ddf6fce7f48bb6670589a12743fe1b071717db838f972fb19c1bde2cc4"),
    (["nf", "recurrence", "P", "hermite"],
     "34dae67f8463219621acee97410dbdbc1ac2321983e28b9ec0076d43ba413684"),
    (["nf", "recurrence", "P", "smith"],
     "dc8905dc1427f670d019a3a3808bd7530494f9dcc76131f48480db8de56e1710"),
    (["nf", "bernstein", "L", "hermite"],
     "45409756b48b1d5f4e8ae98664a1cdc5eb63a42ba088074b2b9b40616a461555"),
    (["nf", "bernstein", "L", "smith"],
     "df1e6da6da897b1cc2f649d112bcddee69b6c3a1b74f6699ae2dfd56ad5e79b0"),
    (["nf", "bernstein", "P", "hermite"],
     "c13f18969d25a1ffda3f82b2fc8ac57cd1d76e4f571e136fdf1f0755ca1ed302"),
    (["nf", "bernstein", "P", "smith"],
     "68af7020f2613388746e475bd9223dd11033475210209759399e8b70158a2864"),
    (["nf", "lagrange", "L", "hermite"],
     "55768cf301c97eda39c5cf8af34cb4815e6b9bbad75394140570c393fee42815"),
    (["nf", "lagrange", "L", "smith"],
     "a385ed2d8bb481f504e5834719c144940d7924e3197785d1f8914fb658a66cfd"),
    (["nf", "lagrange", "P", "hermite"],
     "9578eee6ee0b0be065800a3c7daf24842788f2222ba14a9cbc111322e9828874"),
    (["nf", "lagrange", "P", "smith"],
     "30c89c496b9f6ee55f365aca8fb0efb348283398df0bd8984ea75fa6f8ef98b1"),
    # rank deficient: two equal rows, grades above the degree, a zero of grade 2
    (["nf", "equal-rows", "-", "hermite"],
     "90e6af7be1a951b983ff5e7866427ba2ec9f503320d5da396faee0684584d65b"),
    (["nf", "equal-rows", "-", "smith"],
     "2a3b3351a9dc7697f78565c6faacb9a5e8f1b0b31ae3f9670c344928c027ea74"),
    # convert to each kind at the instance's grade, then back to monomial (_golden_convert)
    (["convert", "monomial", "monomial"],
     "d4c7545d402757a9cb6b7eec1bad7c2c5bb630dd719d44cc5cbb2ded9d7848b1"),
    (["convert", "monomial", "recurrence"],
     "fdc7d4d466dba362993b8141027538f33e8128de69246ec0e64d4ae92d150893"),
    (["convert", "monomial", "bernstein"],
     "34ad3059b7e194e650091d95200ec0b42d6fbd7cebf84884ff5a78405f16e83c"),
    (["convert", "monomial", "lagrange"],
     "c1cede3bf58e92edcc40d5fd23bd75f23755a8c001573a74e355fa7ef754c41a"),
    (["convert", "recurrence", "monomial"],
     "188d9bddd2894858757c2d3ecbd9e1d6c89d583c393dc8e9736655c6eae78157"),
    (["convert", "recurrence", "recurrence"],
     "09dedd2e2d3adc8d46b0515557dbde2b338ae75b80445e3b4b0d5830e45013b3"),
    (["convert", "recurrence", "bernstein"],
     "df266730376c369998cf07994b51ce0a76078308c192824aa2847c225a27571c"),
    (["convert", "recurrence", "lagrange"],
     "fff485289c86d946232da53b668740fb54bd29d83488f89e053b103f68ea669f"),
    (["convert", "bernstein", "monomial"],
     "49622f790deb1185bea44c6775624d85d7b20d955f74e17452c379bebbdfb924"),
    (["convert", "bernstein", "recurrence"],
     "61601d2f0f9f62d807b07f2283612f006d60184ca2252ee7667b7554b18850f0"),
    (["convert", "bernstein", "bernstein"],
     "a2074a01e1e8b3870592f8c084a93dae2a2cf222d763eec2202067349d9c4466"),
    (["convert", "bernstein", "lagrange"],
     "2654f8a2dc311016aed3434115c8f85ddce3017d4062ceb4740309bd8b0b8418"),
    (["convert", "lagrange", "monomial"],
     "5897df16ebeb9c53b843fca5c2565ddf141514ac2ec91ebb00ce6c1b31f60fd8"),
    (["convert", "lagrange", "recurrence"],
     "e12453127a028d4f5f9c5f350adf558e37454f6390368393d5ce8a835c7580fd"),
    (["convert", "lagrange", "bernstein"],
     "0b1128e83f389c8f115d08fadd16800fd793f81addf9a80d7b8efbb27cc56efa"),
    (["convert", "lagrange", "lagrange"],
     "e8dcb7de5a180f0917056adb0d394cae17299c7cacb78e0af4cc69560978b45f"),
    (["convert", "bernstein-singular-at-one", "monomial"],
     "df2801ec25b60d55535c09260ee72f18ad1c0bb7a9b05f144f51f3be9a99815e"),
    (["convert", "bernstein-singular-at-one", "recurrence"],
     "c1bdb2df2c35e9d214bc9cf8c0e3af98e80c844631f13a864687dc23f179e665"),
    (["convert", "bernstein-singular-at-one", "bernstein"],
     "faa1804451303b43db8b772ead4fe8085bbf3d7cab146ab0f1419b10f3f075d5"),
    (["convert", "bernstein-singular-at-one", "lagrange"],
     "bff3d59d05b7c11ff658689937cf6eeba841997ca9a11afa43a418081dc0d7fa"),
    (["convert", "bernstein-grade-1", "monomial"],
     "f0b211b1c5e0de625c172e5fd52def02845b2fcb70d3d176d2232b50208d56dc"),
    (["convert", "bernstein-grade-1", "recurrence"],
     "33df9f6fa2732594d681956dc260e6262caaafc248ed57c7aaace440ca7eabd1"),
    (["convert", "bernstein-grade-1", "bernstein"],
     "efc2ea249a964ad3dbe61f34b0ffa202968ef71a72c4446b9a209a8b4594cabf"),
    (["convert", "bernstein-grade-1", "lagrange"],
     "dfdce1563f78e7b0d635714430872e43da8b54ce89af6ec939da3a2437016014"),
    (["sweep", "--count", "3", "--seed", "0"],
     "aaaf65a022cf3b638b7f34f524987975401c1b37913ae555642184a6776bab08"),
    # "--inject-fault" marks a run whose first pencil is corrupted (_inject_fault)
    (["sweep", "--count", "3", "--seed", "0", "--inject-fault"],
     "65f58e755d3cd374095131390ca52e208957e48aae2bad7482f242c116b01055"),
    # a falsified sweep prints the instance it drew, which pins the draws
    (["sweep", "--count", "3", "--seed", "0", "--inject-fault", "--bases", "recurrence"],
     "ff89e2ff4d4226fa297a225cb8fa574248bcf2dd674e051484908ee9e1f9d95d"),
    (["sweep", "--count", "3", "--seed", "0", "--inject-fault", "--bases", "bernstein"],
     "74923ae4b56d62deb4ce8ae9fb47c174878b59c7a42a218b60c8e03bd642e5c7"),
    (["sweep", "--count", "3", "--seed", "0", "--inject-fault", "--bases", "lagrange"],
     "4be3676f821615565cb4a6550f531cd650e36415d4cbe4f55871fba4885143d0"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_golden_output_bytes(argv, digest, tmp_path, capsys, monkeypatch):
    if argv[0] == "equiv":
        _, name, mode = argv
        infile = tmp_path / "p.json"
        write_json(infile, serialize.matrix_polynomial_obj(_golden_instances()[name]))
        argv = ["equiv", "--in", str(infile), "--mode", mode]
    elif argv[0] == "nf":
        _, name, on, kind = argv
        infile = tmp_path / "m.json"
        write_json(infile, _golden_nf_input(name, on))
        argv = ["nf", "--in", str(infile), "--kind", kind]
    elif argv[0] == "convert":
        assert _golden_convert(argv[1], argv[2], tmp_path, capsys) == digest
        return
    elif "--inject-fault" in argv:  # not a CLI option: corrupt the first pencil built
        argv = [a for a in argv if a != "--inject-fault"]
        _inject_fault(monkeypatch)
    assert _digest(main(argv), capsys) == digest


def _golden_nf_input(name, on):
    """L(z) or P(z) of a golden instance as polynomial-matrix JSON."""
    if name == "equal-rows":
        row = [["1/2", "1", "0"], ["3", "0"], ["0", "0", "0"]]
        return {"entries": [row, row, [["0", "0", "2/3"], ["-1", "1"], ["5", "0"]]]}
    p = _golden_instances()[name]
    m = pencils.build_pencil(p).as_polymatrix() if on == "L" \
        else bases.matrix_poly_as_polymatrix(p)
    return serialize.polymatrix_obj(m)


def _golden_target(kind, grade):
    """A target basis of each kind at the given grade (up to 3); the
    recurrence has alpha, beta and gamma all nontrivial."""
    if kind == "recurrence":
        return Recurrence(grade, (2, F(1, 2), -3)[:grade], (1, F(-1, 3), 2)[:grade],
                          (0, F(3, 4), -1)[:grade])
    if kind == "lagrange":
        return Lagrange(grade, (2, -1, F(1, 3), 0)[:grade + 1])
    return {"monomial": Monomial, "bernstein": Bernstein}[kind](grade)


def _golden_convert(name, kind, tmp_path, capsys) -> str:
    """sha256 of the "<exit code>\n<stdout><stderr>" texts of two convert
    runs: a golden instance to `kind` at its grade, then that output back to
    the monomial basis."""
    p = _golden_instances()[name]
    src, mid = tmp_path / "p.json", tmp_path / "q.json"
    write_json(src, serialize.matrix_polynomial_obj(p))
    text = ""
    for infile, target in ((src, _golden_target(kind, p.grade)), (mid, Monomial(p.grade))):
        code = main(["convert", "--in", str(infile),
                     "--basis", json.dumps(serialize.basis_obj(target))])
        captured = capsys.readouterr()
        mid.write_text(captured.out)
        text += f"{code}\n{captured.out}{captured.err}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digest(code, capsys) -> str:
    captured = capsys.readouterr()
    text = f"{code}\n{captured.out}{captured.err}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


GOLDEN_FALSIFIED = [
    ("monomial", "cofactors", "monomial_cofactors",
     "aa1885393f3eb2db0358a364eb25930b3427926ff8d20605e3fa01239cfedb29"),
    ("bernstein", "strict", "bernstein_strict_equivalence",
     "14ad9cdda938b36be0b5571cfcf3e4ee1765cd201c59818d9d569f533ce51653"),
    ("lagrange", "strict", "lagrange_strict_equivalence",
     "14ad9cdda938b36be0b5571cfcf3e4ee1765cd201c59818d9d569f533ce51653"),
    ("bernstein", "reversal", "bernstein_reversal_equivalence",
     "9460fc82d801b2f4d89b53cdd38cbf8b00a1f9272d24600a569cd93f3444d979"),
]


def _swap_factors(monkeypatch, constructor):
    """Make equivalence.<constructor> return its two factors swapped; any
    further field (a cofactor pair's E^-1) is kept as it was."""
    original = getattr(equivalence, constructor)

    def swapped(*args):
        cert = original(*args)
        first, second = (f.name for f in dataclasses.fields(cert)[:2])
        return dataclasses.replace(cert, **{first: getattr(cert, second),
                                            second: getattr(cert, first)})

    monkeypatch.setattr(equivalence, constructor, swapped)


@pytest.mark.parametrize("name, mode, constructor, digest", GOLDEN_FALSIFIED,
                         ids=[f"{n} {m}" for n, m, _, _ in GOLDEN_FALSIFIED])
def test_golden_falsified_bytes(name, mode, constructor, digest, tmp_path,
                                capsys, monkeypatch):
    """A constructor that swaps its two factors must be caught, exit 1."""
    _swap_factors(monkeypatch, constructor)
    infile = tmp_path / "p.json"
    write_json(infile, serialize.matrix_polynomial_obj(_golden_instances()[name]))
    code = main(["equiv", "--in", str(infile), "--mode", mode])
    assert code == 1
    assert _digest(code, capsys) == digest


@pytest.mark.parametrize("kind, constructor, check", [
    ("monomial", "monomial_cofactors", "linearization"),
    ("bernstein", "bernstein_strict_equivalence", "strict"),
    ("lagrange", "lagrange_strict_equivalence", "strict"),
    ("bernstein", "bernstein_reversal_equivalence", "reversal"),
])
def test_sweep_names_the_verifier_that_refused(kind, constructor, check, tmp_path,
                                               monkeypatch):
    """sweep checks each certificate only through `verify`: a constructor
    that swaps its two factors is refused there, under that check's name."""
    _swap_factors(monkeypatch, constructor)
    out = tmp_path / "r.json"
    assert main(["sweep", "--count", "2", "--nmax", "2", "--lmax", "3", "--seed", "1",
                 "--bases", kind, "--out", str(out)]) == 1
    assert json.loads(out.read_text())["counterexample"]["check"] == check
