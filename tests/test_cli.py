"""CLI round trips, exit codes, and determinism."""

import dataclasses
import hashlib
import json
from fractions import Fraction as F

import pytest

from polylin.cli import main
from polylin import bases, equivalence, pencils, serialize, verify
from polylin.bases import Bernstein, Lagrange, MatrixPolynomial, Monomial, Recurrence
from polylin.exact import ConstMatrix, PolyMatrix


def write_json(path, obj):
    path.write_text(json.dumps(obj))


def mono_p_obj():
    p = MatrixPolynomial.scalar(Monomial(2), [2, -3, 1])
    return serialize.matrix_polynomial_obj(p)


class TestPencilCommand:
    def test_roundtrip(self, tmp_path):
        infile = tmp_path / "p.json"
        outfile = tmp_path / "L.json"
        write_json(infile, mono_p_obj())
        assert main(["pencil", "--in", str(infile), "--out", str(outfile)]) == 0
        pen = serialize.parse_pencil(json.loads(outfile.read_text()))
        assert pen.n == 1 and pen.block_count == 2
        assert pen.basis_tag == "monomial"

    def test_bernstein_grade5_structure(self, tmp_path):
        p = MatrixPolynomial.scalar(Bernstein(5), [1, 2, 3, 4, 5, 6])
        infile = tmp_path / "p.json"
        outfile = tmp_path / "L.json"
        write_json(infile, serialize.matrix_polynomial_obj(p))
        assert main(["pencil", "--in", str(infile), "--out", str(outfile)]) == 0
        pen = serialize.parse_pencil(json.loads(outfile.read_text()))
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
        factors = [serialize.parse_polyq(f) for f in res["invariantFactors"]]
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

    def test_injected_fault_exit1(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["sweep", "--count", "1", "--nmax", "1", "--lmax", "2",
                     "--seed", "3", "--bases", "monomial", "--inject-fault",
                     "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["ok"] is False
        assert report["counterexample"]["check"] == "companion"

    def test_smith_checks_opt_in(self, tmp_path):
        args = ["sweep", "--count", "2", "--nmax", "2", "--lmax", "3", "--seed", "7"]
        plain, checked = tmp_path / "plain.json", tmp_path / "checked.json"
        assert main(args + ["--out", str(plain)]) == 0
        assert main(args + ["--smith-checks", "--out", str(checked)]) == 0
        report = json.loads(checked.read_text())
        assert report.pop("smith_checks") is True
        assert report == json.loads(plain.read_text())

    @pytest.mark.parametrize("function, check", [
        ("verify_strong", "strong"),
        ("smith_equivalence_check", "smith-equivalence"),
    ])
    def test_falsified_smith_check_named(self, function, check, tmp_path, monkeypatch):
        monkeypatch.setattr(verify, function, lambda pen, p: verify.Verdict(check, False))
        out = tmp_path / "r.json"
        code = main(["sweep", "--count", "1", "--nmax", "1", "--lmax", "2", "--seed", "3",
                     "--bases", "monomial", "--smith-checks", "--out", str(out)])
        assert code == 1
        assert json.loads(out.read_text())["counterexample"]["check"] == check

    def test_smith_checks_take_each_determinant_once(self, tmp_path, monkeypatch):
        # smith_equivalence_check reuses the det L and det P that
        # verify_companion took, so --smith-checks adds only verify_strong's two
        real = verify.polymatrix_det
        calls = []
        monkeypatch.setattr(verify, "polymatrix_det", lambda m: calls.append(m) or real(m))
        args = ["sweep", "--count", "3", "--nmax", "2", "--lmax", "3", "--seed", "1",
                "--out", str(tmp_path / "r.json")]
        draws = 3 * 4
        assert main(args) == 0
        assert len(calls) == 2 * draws
        calls.clear()
        assert main(args + ["--smith-checks"]) == 0
        assert len(calls) == 4 * draws

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
    ("sweep count -1", None, ["sweep", "--count", "-1"]),
    ("sweep unknown basis", None, ["sweep", "--bases", "monomial,chebyshev"]),
    ("lagrange one node", _lagrange_text('["0"]'), ["pencil"]),
    ("recurrence alpha short", _recurrence_text('["1"]'), ["pencil"]),
    ("lagrange nodes number", _lagrange_text("5"), ["pencil"]),
    ("lagrange nodes string", _lagrange_text('"01"'), ["pencil"]),
    ("recurrence alpha string", _recurrence_text('"12"'), ["pencil"]),
    ("nf rows true", '{"rows": true, "entries": [[["1", "2"]]]}', ["nf", "--kind", "mask"]),
    ("nf cols float", '{"cols": 1.0, "entries": [[["1", "2"]]]}', ["nf", "--kind", "mask"]),
    ("nested json", "[" * 200000 + "]" * 200000, ["nf", "--kind", "mask"]),
    ("deep list for a rational", '{"entries": %s}' % ("[" * 900 + "]" * 900),
     ["nf", "--kind", "hermite"]),
    ("nested inline basis", _mono_text('"1"'),
     ["convert", "--basis", '{"kind": %s}' % ("[" * 5000 + "]" * 5000)]),
    ("sweep bases comma", None, ["sweep", "--bases", ","]),
    ("sweep bases empty", None, ["sweep", "--bases", ""]),
]


@pytest.mark.parametrize("text, argv", [c[1:] for c in EXIT2_CASES],
                         ids=[c[0] for c in EXIT2_CASES])
def test_input_contract_exit2(text, argv, tmp_path, capsys):
    if text is not None:
        infile = tmp_path / "in.json"
        infile.write_text(text)
        argv = argv + ["--in", str(infile)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("input error: ")
    assert len(captured.err) < 250, "the message quotes at most 40 characters of a bad value"


class TestJsonRoundTrips:
    def test_fraction_strings(self):
        from fractions import Fraction

        assert serialize.frac_str(Fraction(-3, 4)) == "-3/4"
        assert serialize.frac_str(Fraction(5)) == "5"
        assert serialize.parse_frac("-3/4") == Fraction(-3, 4)
        with pytest.raises(Exception):
            serialize.parse_frac("0.5x")

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
        back = serialize.parse_pencil(json.loads(json.dumps(obj)))
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
    (["sweep", "--count", "3", "--seed", "0"],
     "aaaf65a022cf3b638b7f34f524987975401c1b37913ae555642184a6776bab08"),
    (["sweep", "--count", "3", "--seed", "0", "--inject-fault"],
     "5f5c0871a8c9818606ae7c96abbe481fa58c71c21172d689c905bf6009820264"),
    # a falsified sweep prints the instance it drew, which pins the draws
    (["sweep", "--count", "3", "--seed", "0", "--inject-fault", "--bases", "recurrence"],
     "3e4694228c8b0e48a24b56d5e1e4269cef962c22f2bb589490a37abf32c2fabb"),
    (["sweep", "--count", "3", "--seed", "0", "--inject-fault", "--bases", "bernstein"],
     "ed7c0c10cb0c3b352b54db0ca602dd17b74cd1e970c40eb492491f71e7d8fa5f"),
    (["sweep", "--count", "3", "--seed", "0", "--inject-fault", "--bases", "lagrange"],
     "b5e505d0e9b32ac5f84906acb9817f57b395ecf775216180c408560703f81dc2"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_golden_output_bytes(argv, digest, tmp_path, capsys):
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
    """Make equivalence.<constructor> return its two factors swapped."""
    original = getattr(equivalence, constructor)

    def swapped(*args):
        cert = original(*args)
        first, second = (getattr(cert, f.name) for f in dataclasses.fields(cert))
        return type(cert)(second, first)

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
