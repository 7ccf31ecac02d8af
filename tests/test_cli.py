import os
import subprocess
import sys

import numpy as np
import pytest

from spqs.cli import main
from spqs.matrixio import MatrixParseError, read_matrix, write_matrix
from spqs.quasistates import maslov_qs
from spqs.symplectic import SymplecticSpace
from spqs.williamson import ClassificationError, random_semisimple


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
        assert open(path).read() == open(path2).read()

    def test_header_required(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2\n0 1\n-1 0\n")
        with pytest.raises(MatrixParseError):
            read_matrix(str(p))

    def test_row_count_checked(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("dim 2\n0 1\n")
        with pytest.raises(MatrixParseError):
            read_matrix(str(p))


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

    @pytest.mark.filterwarnings("ignore:overflow encountered")
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
        assert run_cli(["eval", str(fourdim), "--method", "dim2"], capsys)[0] == 4

        nil = tmp_path / "nil.txt"
        nil.write_text("dim 2\n0 1\n0 0\n")
        assert run_cli(["eval", str(nil), "--method", "spectral"], capsys)[0] == 4

        allnan = tmp_path / "allnan.txt"
        allnan.write_text("dim 2\nnan nan\nnan nan\n")
        withinf = tmp_path / "withinf.txt"
        withinf.write_text("dim 2\n0 inf\n-1 0\n")
        for path in (allnan, withinf):
            for method in ("auto", "limit"):
                code, _, err = run_cli(["eval", str(path), "--method", method], capsys)
                assert code == 3
                assert err.startswith("error:")

        # 1e200 norm: the limit route overflows, the spectral bar is infinite
        huge = tmp_path / "huge.txt"
        huge.write_text("dim 2\n0 1e200\n-1e200 0\n")
        for argv in (
            ["eval", str(huge), "--method", "limit"],
            ["eval", str(huge), "--method", "auto"],
            ["eval", str(huge), "--method", "spectral"],
            ["trace", str(huge), "--out", str(tmp_path / "huge.csv")],
        ):
            code, out, err = run_cli(argv, capsys)
            assert code == 4, argv
            assert err.startswith("error:"), argv
            assert "value:" not in out


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


class TestAutoDispatch:
    def test_one_classification_per_auto_evaluation(self, tmp_path, monkeypatch, capsys):
        B, _ = random_semisimple(SymplecticSpace(2), 3)
        p = str(tmp_path / "b.txt")
        write_matrix(p, B.mat)
        calls = _count_classifications(monkeypatch)
        maslov_qs().with_error(B)
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
        assert open(a).read() == open(b).read()

    def test_csv_format(self, tmp_path, capsys):
        out = str(tmp_path / "r.csv")
        code, _, _ = run_cli(
            ["verify", "--suite", "isotropic", "--n", "3", "--trials", "5",
             "--seed", "1", "--format", "comma-separated", "--out", out],
            capsys,
        )
        assert code == 0
        assert open(out).read().startswith("check_name,record,field,value")

    def test_small_n_precondition(self, capsys):
        code, _, err = run_cli(
            ["verify", "--suite", "gleason", "--n", "2", "--trials", "5"], capsys
        )
        assert code == 4


class TestTrace:
    def test_header_and_final_row(self, rotation_file, tmp_path, capsys):
        out = str(tmp_path / "tr.csv")
        code, stdout, _ = run_cli(
            ["trace", rotation_file, "--t-max", "50", "--out", out], capsys
        )
        assert code == 0
        lines = open(out).read().splitlines()
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
        lines = open(out).read().splitlines()
        tail = [float(ln.split(",")[2]) for ln in lines[-100:]]
        assert max(abs(v - 1.0) for v in tail) < 1e-6


class TestEnvVarOutDir:
    def test_default_output_directory(self, rotation_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SPQS_OUT_DIR", str(tmp_path))
        code, stdout, _ = run_cli(["trace", rotation_file, "--t-max", "10"], capsys)
        assert code == 0
        assert os.path.exists(os.path.join(str(tmp_path), "rot_trace.csv"))


class TestConsoleScript:
    def test_installed_entry_point(self, rotation_file):
        proc = subprocess.run(
            [sys.executable, "-m", "spqs.cli", "eval", rotation_file, "--method", "dim2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "value: 1.0" in proc.stdout
