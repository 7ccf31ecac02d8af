import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from spqs.cli import SUITES, build_parser, main
from spqs.harness import fit_main_theorem
from spqs.matrixio import MatrixParseError, read_matrix, write_matrix
from spqs.maslov import METHODS, MaslovLimitConfig, maslov_evaluate
from spqs.quasistates import linear_combination, maslov_qs
from spqs.symplectic import (
    SpElement,
    SymplecticSpace,
    omega_adjoint,
    project_skew_symplectic,
    random_symplectic_group_element,
)
from spqs.williamson import ClassificationError, random_semisimple
from test_classification_oracle import near_band


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def rotation_file(tmp_path):
    p = tmp_path / "rot.txt"
    p.write_text("dim 2\n0 -1\n1 0\n")
    return str(p)


class TestMatrixIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(0))
        M = rng.standard_normal((6, 6)) * np.pi
        path = str(tmp_path / "m.txt")
        write_matrix(path, M)
        back = read_matrix(path)
        assert np.array_equal(back, M)
        # writer output re-written from the parse is byte-identical
        path2 = str(tmp_path / "m2.txt")
        write_matrix(path2, back)
        assert Path(path).read_text() == Path(path2).read_text()

    def test_header_required(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2\n0 1\n-1 0\n")
        with pytest.raises(MatrixParseError):
            read_matrix(str(p))
        p.write_text("dim 2 7\n0 1\n-1 0\n")
        with pytest.raises(MatrixParseError, match="malformed dimension header"):
            read_matrix(str(p))

    def test_row_count_checked(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("dim 2\n0 1\n")
        with pytest.raises(MatrixParseError):
            read_matrix(str(p))

    @pytest.mark.parametrize("text, line", [
        ("dim 3\n0 1 0\n0 0 0\n0 0 0", "dimension must be a positive even integer, got 3"),
        ("dim 2\n0 x\n-1 0", "non-numeric entry in row: '0 x'"),
        ("dim 2\n0 1 2\n-1 0", "row has 3 entries, expected 2"),
    ])
    def test_malformed_files_exit_2(self, text, line, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text(text + "\n")
        assert run_cli(["eval", str(p)], capsys) == (2, "", f"error: {line}\n")

    def test_non_utf8_is_a_parse_error(self, tmp_path, capsys):
        p = tmp_path / "latin.txt"
        p.write_bytes(b"dim 2\n0 \xff\n1 0\n")
        with pytest.raises(MatrixParseError, match="cannot read"):
            read_matrix(str(p))
        code, _, err = run_cli(["eval", str(p)], capsys)
        assert code == 2
        assert err.startswith("error:")


class TestEval:
    def test_dim2_rotation(self, rotation_file, capsys):
        code, out, _ = run_cli(["eval", rotation_file, "--method", "dim2"], capsys)
        assert code == 0
        assert "value: 1.0" in out
        assert "method: dim2" in out

    def test_zero_matrix_any_method(self, tmp_path, capsys):
        p = tmp_path / "zero.txt"
        p.write_text("dim 2\n0 0\n0 0\n")
        for method in ("dim2", "spectral", "auto"):
            code, out, _ = run_cli(["eval", str(p), "--method", method], capsys)
            assert code == 0
            assert "value: 0.0" in out
        code, out, _ = run_cli(
            ["eval", str(p), "--method", "limit", "--t-max", "10"], capsys
        )
        assert code == 0
        assert "value: 0.0" in out

    def test_limit_and_spectral_agree(self, tmp_path, capsys):
        B, _ = random_semisimple(SymplecticSpace(3), 5)
        p = str(tmp_path / "b.txt")
        write_matrix(p, B.mat)
        code, out_s, _ = run_cli(["eval", p, "--method", "spectral"], capsys)
        assert code == 0
        code, out_l, _ = run_cli(
            ["eval", p, "--method", "limit", "--t-max", "400"], capsys
        )
        assert code == 0
        vs = float(out_s.splitlines()[0].split(": ")[1])
        vl = float(out_l.splitlines()[0].split(": ")[1])
        bar = float(out_l.splitlines()[1].split(": ")[1])
        assert abs(vs - vl) <= bar + 1e-2

    def test_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("nonsense\n")
        assert run_cli(["eval", str(bad)], capsys)[0] == 2

        notsp = tmp_path / "notsp.txt"
        notsp.write_text("dim 2\n1 2\n3 4\n")
        assert run_cli(["eval", str(notsp)], capsys)[0] == 3

        fourdim = tmp_path / "four.txt"
        fourdim.write_text(
            "dim 4\n0 0 1 0\n0 0 0 1\n-1 0 0 0\n0 -1 0 0\n"
        )
        code, _, err = run_cli(["eval", str(fourdim), "--method", "dim2"], capsys)
        assert code == 4
        # the CLI reports the library dispatch's own precondition error
        with pytest.raises(ValueError) as exc:
            maslov_evaluate([SpElement(SymplecticSpace(2), read_matrix(str(fourdim)))],
                            MaslovLimitConfig(), "dim2")
        assert err == f"error: {exc.value}\n" == "error: dim2 closed form needs a 2x2 input\n"

        nil = tmp_path / "nil.txt"
        nil.write_text("dim 2\n0 1\n0 0\n")
        assert run_cli(["eval", str(nil), "--method", "spectral"], capsys)[0] == 4

        # a horizon whose step cap overflows (inf, 1e308), whose half step
        # underflows (5e-324) or whose grid exceeds MAX_STEPS (1e12, 1e7) is
        # an option error, not an uncaught traceback or a sweep of minutes
        horizons = ("inf", "1e308", "5e-324", "1e12", "1e7")
        for argv in (
            *(
                ["eval", str(nil), "--method", method, "--t-max", t_max]
                for t_max in horizons
                for method in ("limit", "auto")
            ),
            *(
                ["trace", str(nil), "--t-max", t_max, "--out", str(tmp_path / "t.csv")]
                for t_max in horizons
            ),
        ):
            code, out, err = run_cli(argv, capsys)
            assert code == 4, argv
            assert err.startswith("error:"), argv
        # the step is worked out from the input: --dt is no option
        with pytest.raises(SystemExit) as exc:
            main(["eval", str(nil), "--method", "limit", "--dt", "nan"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dt nan" in capsys.readouterr().err

        allnan = tmp_path / "allnan.txt"
        allnan.write_text("dim 2\nnan nan\nnan nan\n")
        withinf = tmp_path / "withinf.txt"
        withinf.write_text("dim 2\n0 inf\n-1 0\n")
        for path in (allnan, withinf):
            for method in ("auto", "limit"):
                code, _, err = run_cli(["eval", str(path), "--method", method], capsys)
                assert code == 3
                assert err.startswith("error:")

        # 1e200 norm: the limit route overflows (see test_large_norms_have_finite_bars)
        huge = tmp_path / "huge.txt"
        huge.write_text("dim 2\n0 1e200\n-1e200 0\n")
        for argv in (
            ["eval", str(huge), "--method", "limit"],
            ["trace", str(huge), "--out", str(tmp_path / "huge.csv")],
        ):
            code, out, err = run_cli(argv, capsys)
            assert code == 4, argv
            assert err.startswith("error:"), argv
            assert "value:" not in out

        # a stiff input (hyperbolic 800 plus a rotation, conjugated) whose path
        # step is numerically singular: a limit-route error, not numpy's
        D = np.zeros((4, 4))
        D[0, 0], D[2, 2], D[1, 3], D[3, 1] = -800.0, 800.0, 1.0, -1.0
        g = random_symplectic_group_element(SymplecticSpace(2), 0.5, 0)
        stiff = str(tmp_path / "stiff.txt")
        write_matrix(stiff, g @ D @ omega_adjoint(g))
        code, _, err = run_cli(["eval", stiff, "--method", "limit", "--t-max", "200"], capsys)
        assert code == 4
        assert err.startswith("error: singular path step at ||dt*B||_2 = ")

    @pytest.mark.parametrize("text, truth", [
        ("0 1e160\n-1e160 0", -1e160), ("0 1e200\n-1e200 0", -1e200), ("1e300 0\n0 -1e300", 0.0),
    ])
    def test_large_norms_have_finite_bars(self, text, truth, tmp_path, capsys):
        # the norm in the spectral bar and the dim2 discriminant square entries
        # past 1e154: both are taken on the input scaled by a power of two
        p = tmp_path / "big.txt"
        p.write_text(f"dim 2\n{text}\n")
        for method in ("auto", "spectral", "dim2", "limit"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a numpy overflow warning would reach stderr
                code, out, err = run_cli(["eval", str(p), "--method", method], capsys)
            if method == "limit":  # expm(dt*B) overflows: the error line is all of stderr
                assert (code, err) == (4, "error: expm(dt*B) overflowed; rescale the input\n")
                assert "value:" not in out
                continue
            assert (code, err) == (0, ""), method
            value, bar = (float(ln.split(": ")[1]) for ln in out.splitlines()[:2])
            assert np.isfinite(bar) and abs(value - truth) <= bar, method

    def test_unwritable_output_exits_4(self, rotation_file, tmp_path, capsys):
        missing = tmp_path / "missing"
        for argv in (
            ["decompose", rotation_file, "--out", str(missing)],
            ["verify", "--suite", "isotropic", "--trials", "2",
             "--out", str(missing / "r.txt")],
            ["trace", rotation_file, "--t-max", "1", "--out", str(missing / "t.csv")],
        ):
            code, _, err = run_cli(argv, capsys)
            assert code == 4, argv
            assert err.startswith("error: cannot write"), argv
        assert not missing.exists()

    def test_out_naming_a_directory_exits_4(self, rotation_file, tmp_path, capsys):
        target = tmp_path / "outdir"
        target.mkdir()
        for argv in (
            ["verify", "--suite", "isotropic", "--trials", "2", "--out", str(target)],
            ["trace", rotation_file, "--t-max", "1", "--out", str(target)],
        ):
            code, _, err = run_cli(argv, capsys)
            assert code == 4, argv
            assert err == f"error: cannot write {target}: Is a directory\n", argv
        assert sorted(os.listdir(tmp_path)) == ["outdir", "rot.txt"]
        assert os.listdir(target) == []


# input files of the failure table, written under {tmp}
FAILURE_INPUTS = {
    "header": "dim 2 7\n0 1\n-1 0\n",
    "notsp": "dim 2\n1 2\n3 4\n",
    "nil": "dim 2\n0 1\n0 0\n",
    "four": "dim 4\n0 0 1 0\n0 0 0 1\n-1 0 0 0\n0 -1 0 0\n",
    "rot": "dim 2\n0 -1\n1 0\n",
    "big": "dim 2\n1e300 0\n0 -1e300\n",
}
NIL_CONDITION = "error: eigenvector condition 9.979e+291 exceeds 1.0e+08\n"
EXPM_OVERFLOW = "error: expm(dt*B) overflowed; rescale the input\n"
# argv, exit code, stderr; {tmp} stands for the test's directory.  Every
# failure prints nothing on stdout and exactly this one line on stderr.
FAILURES = [
    (["eval", "{tmp}/header.txt"], 2, "error: malformed dimension header\n"),
    (["eval", "{tmp}/absent.txt"], 2,
     "error: cannot read {tmp}/absent.txt: [Errno 2] No such file or directory: "
     "'{tmp}/absent.txt'\n"),
    (["eval", "{tmp}/notsp.txt"], 3, "error: matrix is not skew-symplectic (defect 1.000e+00)\n"),
    (["eval", "{tmp}/nil.txt", "--method", "spectral"], 4, NIL_CONDITION),
    (["eval", "{tmp}/four.txt", "--method", "dim2"], 4,
     "error: dim2 closed form needs a 2x2 input\n"),
    (["eval", "{tmp}/rot.txt", "--method", "limit", "--t-max", "-1"], 4,
     "error: need 4.450147717014403e-308 <= t_max <= 8.988465674311579e+306\n"),
    (["eval", "{tmp}/nil.txt", "--method", "limit", "--t-max", "1e12"], 4,
     "error: t_max = 1000000000000.0 needs 1000000000000 path steps, more than 1000000\n"),
    (["eval", "{tmp}/big.txt", "--method", "limit"], 4, EXPM_OVERFLOW),
    (["verify", "--suite", "gleason", "--n", "2", "--out", "{tmp}/g.txt"], 4,
     "error: hypothesis n >= 3 not met for the requested suite\n"),
    (["verify", "--suite", "isotropic", "--n", "0", "--out", "{tmp}/i.txt"], 4,
     "error: need --n >= 1, --trials >= 1, --seed >= 0 and 0 < --tol < inf\n"),
    (["verify", "--suite", "isotropic", "--trials", "2", "--out", "{tmp}/missing/r.txt"], 4,
     "error: cannot write {tmp}/missing/r.txt: No such file or directory\n"),
    (["decompose", "{tmp}/nil.txt", "--out", "{tmp}"], 5, NIL_CONDITION),
    (["decompose", "{tmp}/rot.txt", "--out", "{tmp}/missing"], 4,
     "error: cannot write {tmp}/missing/rot_frame.txt: No such file or directory\n"),
    (["trace", "{tmp}/big.txt", "--out", "{tmp}/t.csv"], 4, EXPM_OVERFLOW),
    # the sampler is patched to draw diag(1e4, 1e-4): symplectic, but at
    # condition number 1e8 embed_gl refuses it
    (["verify", "--suite", "rank-one", "--seed", "5", "--out", "{tmp}/r.txt"], 4,
     "error: sampling failed at --seed 5: transversality failure; re-draw with another seed\n"),
]


@pytest.mark.parametrize("argv, code, err", FAILURES,
                         ids=[" ".join(argv).replace("{tmp}/", "") for argv, _, _ in FAILURES])
def test_failure_paths_byte_for_byte(argv, code, err, tmp_path, monkeypatch, capsys):
    import spqs.harness

    for stem, text in FAILURE_INPUTS.items():
        (tmp_path / f"{stem}.txt").write_text(text)
    monkeypatch.setattr(
        spqs.harness, "random_symplectic_group_element",
        lambda space, scale, rng: np.diag([1e4] * space.n + [1e-4] * space.n),
    )
    before = sorted(os.listdir(tmp_path))
    tmp = str(tmp_path)
    got = run_cli([a.replace("{tmp}", tmp) for a in argv], capsys)
    assert got == (code, "", err.replace("{tmp}", tmp))
    assert sorted(os.listdir(tmp_path)) == before  # a failed command writes no file


def _count_classifications(monkeypatch, replacement=None):
    """Rebind classify_eigenstructure in every spqs module that binds it;
    returns the list that records one entry per call."""
    import spqs.williamson

    original = spqs.williamson.classify_eigenstructure
    calls = []

    def counting(B):
        calls.append(B)
        return (replacement or original)(B)

    for name, mod in list(sys.modules.items()):
        if name.startswith("spqs") and getattr(mod, "classify_eigenstructure", None) is original:
            monkeypatch.setattr(mod, "classify_eigenstructure", counting)
    return calls


class TestSubcommandOptions:
    def test_method_choices_are_the_dispatch_methods(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        (method,) = [a for a in sub.choices["eval"]._actions if "--method" in a.option_strings]
        assert tuple(method.choices) == METHODS

    # every option of the CLI; a value a reader would reject (inf, 0, nan)
    # must still be a usage error where the option is foreign.  None marks a flag
    OPTIONS = {
        "--method": "auto", "--n": "0", "--seed": "0", "--t-max": "inf",
        "--dt": "0.05", "--tol": "nan", "--trials": "5", "--out": "o",
        "--format": "comma-separated", "--negative-control": None,
    }
    READS = {
        "eval": {"--method", "--t-max"},
        "decompose": {"--out"},
        "verify": set(OPTIONS) - {"--method", "--dt"},
        "trace": {"--t-max", "--out"},
    }

    def test_only_read_options_are_accepted(self, rotation_file, capsys):
        parser = build_parser()
        for command, reads in self.READS.items():
            head = [command, rotation_file]
            if command == "verify":
                head = [command, "--suite", "isotropic"]
            for option, value in self.OPTIONS.items():
                argv = head + [option] + ([] if value is None else [value])
                if option in reads:
                    parser.parse_args(argv)
                    continue
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                assert exc.value.code == 2, argv
                assert "unrecognized arguments" in capsys.readouterr().err
        # where --t-max is read, its help names the accepted range and the
        # sweep's cost
        for command in (c for c, reads in self.READS.items() if "--t-max" in reads):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            text = " ".join(capsys.readouterr().out.split())
            assert "--t-max T_MAX limit-route horizon T > 0 (default 2000.0)" in text
            assert "T to T/0.05 steps" in text and "within 1000000 steps" in text
            assert "the run time grows with the step count" in text


class TestAutoDispatch:
    def test_one_classification_per_auto_evaluation(self, tmp_path, monkeypatch, capsys):
        B, _ = random_semisimple(SymplecticSpace(2), 3)
        p = str(tmp_path / "b.txt")
        write_matrix(p, B.mat)
        calls = _count_classifications(monkeypatch)
        maslov_qs().evaluate_with_error(B)
        assert len(calls) == 1
        code, out, _ = run_cli(["eval", p, "--method", "auto"], capsys)
        assert code == 0
        assert "method: spectral" in out
        assert len(calls) == 2

    def test_classification_error_exit_codes(self, rotation_file, monkeypatch, capsys):
        def ambiguous(B):
            raise ClassificationError("eigenvalue in both bands")

        _count_classifications(monkeypatch, ambiguous)
        assert run_cli(["eval", rotation_file, "--method", "auto"], capsys)[0] == 5
        assert run_cli(["eval", rotation_file, "--method", "spectral"], capsys)[0] == 4

    def test_one_classification_per_stage3_element(self, tmp_path, monkeypatch, capsys):
        # stage 3 hands one stack to both the decompositions and the spectral
        # values, so no element is classified alone
        calls = _count_classifications(monkeypatch)
        fit_main_theorem([maslov_qs()], SymplecticSpace(3), 1e-2, 0)
        assert calls and all(len(Bs) > 1 for Bs in calls)
        calls.clear()
        argv = ["verify", "--suite", "all", "--n", "3", "--seed", "0", "--out", str(tmp_path / "r")]
        assert run_cli(argv, capsys)[0] == 0
        assert len(calls) == 11

    def test_membership_checks_per_verify_run(self, tmp_path, monkeypatch, capsys):
        # the samplers check their elements as stacks: one membership check per
        # stack, not one per element (2,288 single checks before stacking)
        import spqs.symplectic

        original = spqs.symplectic._check_members
        sizes = []

        def counting(space, A):
            sizes.append(len(A))
            return original(space, A)

        monkeypatch.setattr(spqs.symplectic, "_check_members", counting)
        argv = ["verify", "--suite", "all", "--n", "3", "--seed", "0", "--out", str(tmp_path / "r")]
        assert run_cli(argv, capsys)[0] == 0
        assert len(sizes) <= 600
        assert max(sizes) >= 220  # stage 1's Y elements form one stack

    @pytest.mark.parametrize("n", [2, 3])
    def test_non_semisimple_inputs_take_the_limit_route(self, n, tmp_path, capsys):
        # a conjugated real Jordan block: its eigenvector condition is above
        # EIGVEC_COND_MAX, and its eigenvalue clusters do not pair up
        space = SymplecticSpace(n)
        M = np.eye(n) + np.eye(n, k=1)
        D = np.block([[M, np.zeros((n, n))], [np.zeros((n, n)), -M.T]])
        g = random_symplectic_group_element(space, 0.5, 1)
        B = project_skew_symplectic(space, g @ D @ omega_adjoint(g))
        value, bar = maslov_qs(MaslovLimitConfig(t_max=200.0)).evaluate_with_error(B)
        assert abs(value) <= bar + 1e-2
        p = str(tmp_path / "jordan.txt")
        write_matrix(p, B.mat)
        code, out, _ = run_cli(["eval", p, "--t-max", "200"], capsys)
        assert code == 0
        assert "method: limit" in out
        assert run_cli(["decompose", p, "--out", str(tmp_path)], capsys)[0] == 5


class TestDecompose:
    def test_semi_simple_output(self, tmp_path, capsys):
        B, blocks = random_semisimple(SymplecticSpace(2), 9)
        p = str(tmp_path / "b.txt")
        write_matrix(p, B.mat)
        code, out, _ = run_cli(["decompose", p, "--out", str(tmp_path)], capsys)
        assert code == 0
        assert "roundtrip_residual" in out
        frame = [ln for ln in out.splitlines() if ln.startswith("frame_file: ")]
        S = read_matrix(frame[0].split(": ")[1])
        assert S.shape == (4, 4)

    def test_non_semisimple_exit_code(self, tmp_path, capsys):
        nil = tmp_path / "nil.txt"
        nil.write_text("dim 2\n0 1\n0 0\n")
        assert run_cli(["decompose", str(nil)], capsys)[0] == 5

    def test_real_pair_inside_the_zero_band(self, tmp_path, capsys):
        # eigenvalues +-a at half the axis band classify as kernel, and the
        # decomposition reads its plane from that classification
        p = str(tmp_path / "b.txt")
        write_matrix(p, near_band(SymplecticSpace(1), 1, 0.5).mat)
        code, out, err = run_cli(["decompose", p, "--out", str(tmp_path)], capsys)
        assert (code, err) == (0, "")
        assert "block: real_pair a=0.0 planes=[0]" in out.splitlines()


class TestVerify:
    def test_suite_passes_and_writes_report(self, tmp_path, capsys):
        out = str(tmp_path / "r.txt")
        code, stdout, _ = run_cli(
            ["verify", "--suite", "isotropic", "--n", "3", "--trials", "10",
             "--seed", "1", "--out", out],
            capsys,
        )
        assert code == 0
        assert "PASS 2/2" in stdout
        assert os.path.exists(out)

    def test_negative_control_fails_with_exit_1(self, tmp_path, capsys):
        out = str(tmp_path / "r.txt")
        code, stdout, _ = run_cli(
            ["verify", "--suite", "isotropic", "--n", "3", "--trials", "10",
             "--seed", "1", "--negative-control", "--out", out],
            capsys,
        )
        assert code == 1
        assert "FAIL" in stdout

    def test_reports_byte_identical_for_same_seed(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        for out in (a, b):
            code, _, _ = run_cli(
                ["verify", "--suite", "quasi-linearity", "--n", "2",
                 "--trials", "5", "--seed", "3", "--out", out],
                capsys,
            )
            assert code == 0
        assert Path(a).read_text() == Path(b).read_text()

    def test_batched_evaluation_leaves_the_reports_unchanged(self, tmp_path, monkeypatch, capsys):
        # the suite's Maslov state evaluates each check's samples as one
        # stack; the same state without its batch call evaluates them one by one
        import spqs.cli

        def reports(tag):
            paths = []
            for fmt, ext in (("structured-text", "txt"), ("comma-separated", "csv")):
                paths.append(str(tmp_path / f"{tag}.{ext}"))
                code, _, _ = run_cli(
                    ["verify", "--suite", "all", "--n", "3", "--seed", "0",
                     "--format", fmt, "--out", paths[-1]],
                    capsys,
                )
                assert code == 0
            return [Path(p).read_bytes() for p in paths]

        stacked = reports("stacked")
        monkeypatch.setattr(
            spqs.cli, "maslov_qs",
            lambda cfg: dataclasses.replace(maslov_qs(cfg), evaluate_batch=None),
        )
        assert reports("one-by-one") == stacked
        # the main-theorem composite reads its parts' values from the fit's
        # memo; copies of the parts miss it and evaluate every list again
        monkeypatch.undo()
        monkeypatch.setattr(
            spqs.cli, "linear_combination",
            lambda parts: linear_combination([(c, dataclasses.replace(q)) for c, q in parts]),
        )
        assert reports("fresh-parts") == stacked

    def test_reports_match_the_recorded_hashes(self, tmp_path, capsys):
        """The seed-0 `--suite all` reports at n = 3 in both formats, the
        structured-text one at n = 4, and the structured-text seed-156 one at
        n = 3 (the one recorded seed whose report goes through a limit-route
        sweep) hash as recorded in BENCH_one_classification.json.  The hashes
        hold with numpy 2.4.6 on scipy-openblas (the ROADMAP baseline); another
        BLAS or numpy may round the eigensolves differently."""
        bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "BENCH_one_classification.json")
        with open(bench) as fh:
            recorded = json.load(fh)["report_sha256"]
        for fmt, n, seed, key in (
            ("structured-text", "3", "0", "structured-text seed 0"),
            ("comma-separated", "3", "0", "comma-separated seed 0"),
            ("structured-text", "4", "0", "structured-text n4 seed 0"),
            ("structured-text", "3", "156", "structured-text seed 156"),
        ):
            out = str(tmp_path / f"r{n}.{seed}.{fmt}")
            code, _, _ = run_cli(["verify", "--suite", "all", "--n", n, "--seed", seed,
                                  "--format", fmt, "--out", out], capsys)
            assert code == 0
            with open(out, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            assert digest == recorded[key]["change"], key

    def test_more_seeds_match_the_recorded_hashes(self, tmp_path, capsys):
        """The structured-text `--suite all --n 3` reports of seeds 1-3, and the
        seed-0 report with `--negative-control` (which exits 1), hash as the
        parent of the stacked commuting pairs wrote them, recorded in
        BENCH_stacked_pairs.json.  They pin the order of the random draws past
        seed 0, on the same numpy and BLAS as the test above."""
        bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "BENCH_stacked_pairs.json")
        with open(bench) as fh:
            recorded = json.load(fh)["report_sha256"]
        for key, extra, exit_code in (("structured-text seed 1", ["--seed", "1"], 0),
                                      ("structured-text seed 2", ["--seed", "2"], 0),
                                      ("structured-text seed 3", ["--seed", "3"], 0),
                                      ("structured-text negctl seed 0",
                                       ["--seed", "0", "--negative-control"], 1)):
            out = str(tmp_path / "r.txt")
            code, _, _ = run_cli(["verify", "--suite", "all", "--n", "3", "--out", out, *extra],
                                 capsys)
            assert code == exit_code, key
            with open(out, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            assert digest == recorded[key]["parent"], key

    @pytest.mark.parametrize("extra, count", [([], 15), (["--negative-control"], 18)])
    def test_the_suites_one_by_one_write_the_all_report(self, extra, count, tmp_path, capsys):
        # each single suite's reports, in SUITES order, are the `--suite all` report
        def text(suite):
            out = str(tmp_path / f"{suite}.txt")
            run_cli(["verify", "--suite", suite, "--n", "3", "--seed", "0", "--out", out, *extra],
                    capsys)
            with open(out) as fh:
                return fh.read()

        singles = "\n---\n".join(text(suite) for suite in SUITES[:-1])
        assert singles == text("all")
        assert singles.count("\n---\n") == count - 1

    def test_csv_format(self, tmp_path, capsys):
        out = str(tmp_path / "r.csv")
        code, _, _ = run_cli(
            ["verify", "--suite", "isotropic", "--n", "3", "--trials", "5",
             "--seed", "1", "--format", "comma-separated", "--out", out],
            capsys,
        )
        assert code == 0
        assert Path(out).read_text().startswith("check_name,record,field,value")

    def test_non_finite_tol_rejected(self, tmp_path, capsys):
        # tol inf would pass every check, including the negative control
        out = str(tmp_path / "r.txt")
        for argv in (
            ["verify", "--suite", "isotropic", "--tol", "nan", "--out", out],
            ["verify", "--suite", "quasi-linearity", "--negative-control",
             "--tol", "inf", "--out", out],
            ["verify", "--suite", "isotropic", "--seed", "-1", "--out", out],
        ):
            code, _, err = run_cli(argv, capsys)
            assert code == 4, argv
            assert err.startswith("error:"), argv
        assert "--seed >= 0" in err  # named, not numpy's bare seed message
        assert not os.path.exists(out)


class TestTrace:
    def test_header_and_final_row(self, rotation_file, tmp_path, capsys):
        out = str(tmp_path / "tr.csv")
        code, stdout, _ = run_cli(
            ["trace", rotation_file, "--t-max", "50", "--out", out], capsys
        )
        assert code == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "t,theta,theta_over_t"
        ts = [float(ln.split(",")[0]) for ln in lines[1:]]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        final_ratio = float(lines[-1].split(",")[2])
        # matches the eval limit value for the same configuration
        code, out_eval, _ = run_cli(
            ["eval", rotation_file, "--method", "limit", "--t-max", "50"], capsys
        )
        value = float(out_eval.splitlines()[0].split(": ")[1])
        assert final_ratio == value

    def test_rotation_ratio_converges_to_one(self, rotation_file, tmp_path, capsys):
        out = str(tmp_path / "tr.csv")
        run_cli(["trace", rotation_file, "--t-max", "30", "--out", out], capsys)
        lines = Path(out).read_text().splitlines()
        rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
        tail = [ratio for t, _, ratio in rows if t >= 25.0]
        assert len(tail) >= 5
        assert max(abs(v - 1.0) for v in tail) < 1e-6


class TestEnvVarOutDir:
    def test_default_output_directory(self, rotation_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SPQS_OUT_DIR", str(tmp_path))
        code, stdout, _ = run_cli(["trace", rotation_file, "--t-max", "10"], capsys)
        assert code == 0
        assert os.path.exists(os.path.join(str(tmp_path), "rot_trace.csv"))


class TestOutputMode:
    def test_outputs_get_the_mode_of_a_plain_open(self, rotation_file, tmp_path, capsys):
        # under the process umask, the verify report (over an existing 0600 one),
        # the trace CSV and the decompose frame get the mode open(path, "w") gives
        B, _ = random_semisimple(SymplecticSpace(2), 9)
        matrix, report = str(tmp_path / "b.txt"), tmp_path / "r.txt"
        write_matrix(matrix, B.mat)
        report.write_text("old\n")
        report.chmod(0o600)
        old = os.umask(0o027)
        try:
            with open(tmp_path / "plain.txt", "w"):
                pass
            outputs = [str(report), str(tmp_path / "tr.csv")]
            for argv in (["verify", "--suite", "isotropic", "--n", "3", "--trials", "5",
                          "--seed", "1", "--out", outputs[0]],
                         ["trace", rotation_file, "--t-max", "10", "--out", outputs[1]],
                         ["decompose", matrix, "--out", str(tmp_path)]):
                code, out, _ = run_cli(argv, capsys)
                assert code == 0
            outputs += [ln.split(": ")[1] for ln in out.splitlines()
                        if ln.startswith("frame_file: ")]
        finally:
            os.umask(old)
        plain = os.stat(tmp_path / "plain.txt").st_mode
        assert plain & 0o777 == 0o640
        assert [os.stat(p).st_mode for p in outputs] == [plain] * 3


class TestInProcessCalls:
    """`main` reuses one parser per process; consecutive calls stay independent."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_calls_construct_no_parser(self, rotation_file, monkeypatch, capsys):
        argv = ["eval", rotation_file, "--method", "dim2"]
        assert run_cli(argv, capsys)[0] == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for _ in range(3):
            assert run_cli(argv, capsys)[0] == 0
        assert built == []

    def test_method_does_not_carry_over(self, tmp_path, capsys):
        B, _ = random_semisimple(SymplecticSpace(2), 4)
        p = str(tmp_path / "b.txt")
        write_matrix(p, B.mat)
        code, out, _ = run_cli(["eval", p, "--method", "limit"], capsys)
        assert code == 0
        assert "method: limit" in out
        code, out, _ = run_cli(["eval", p], capsys)
        assert code == 0
        assert "method: spectral" in out

    def test_flag_does_not_carry_over(self, tmp_path, capsys):
        argv = ["verify", "--suite", "isotropic", "--n", "3", "--trials", "10",
                "--seed", "1", "--out", str(tmp_path / "r.txt")]
        assert run_cli(argv + ["--negative-control"], capsys)[0] == 1
        assert run_cli(argv, capsys)[0] == 0

    def test_usage_error_then_valid_call(self, rotation_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", rotation_file, "--method", "nonsense"])
        assert exc.value.code == 2
        assert run_cli(["eval", rotation_file, "--method", "dim2"], capsys)[0] == 0

    def test_help_twice(self, capsys):
        outs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["eval", "--help"])
            assert exc.value.code == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert outs[0].startswith("usage: spqs eval")

    def test_decompose_out_is_a_directory(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--help"])
        assert exc.value.code == 0
        assert "directory" in capsys.readouterr().out


class TestConsoleScript:
    def test_spectral_eval_leaves_scipy_linalg_unloaded(self, rotation_file):
        # only the limit route and kernels.expm import scipy.linalg, so a
        # spectral request does not pay its import time
        code = (
            "import sys, spqs.cli\n"
            f"assert spqs.cli.main(['eval', {rotation_file!r}]) == 0\n"
            "print('scipy.linalg' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-2:] == ["method: spectral", "False"]

    def test_a_module_loads_only_what_it_imports(self):
        # the package root re-exports nothing, so `import spqs.maslov` loads
        # neither the harness nor the quasi-state zoo
        code = "import sys, spqs.maslov\nprint(sorted(m for m in sys.modules if 'spqs' in m))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == str(["spqs", "spqs.kernels", "spqs.maslov", "spqs.symplectic",
                                   "spqs.williamson"]) + "\n"

    def test_installed_entry_point(self, rotation_file):
        proc = subprocess.run(
            [sys.executable, "-m", "spqs.cli", "eval", rotation_file, "--method", "dim2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "value: 1.0" in proc.stdout
