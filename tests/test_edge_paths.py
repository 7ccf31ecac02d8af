import dataclasses
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from spqs import kernels, williamson
from spqs.cli import main
from spqs.harness import embed_gl, fit_gleason_on_unitary, fit_rank_one_trace, maslov_imtrace
from spqs.maslov import MaslovLimitConfig, MaslovLimitError, maslov_evaluate, maslov_limit
from spqs.quasistates import (discontinuous_qs, linear_combination, linear_qs, maslov_qs,
                              nilpotent_jordan_sp)
from spqs.symplectic import (
    SpElement,
    SymplecticSpace,
    omega_adjoint,
    random_sp_element,
    random_symplectic_group_element,
)
from spqs.williamson import (
    NormalizationError,
    WilliamsonBlock,
    WilliamsonDecomposition,
    classify_eigenstructure,
    williamson_decompose,
)
from test_classification_oracle import outcome, pairs, rows_of

sp1 = SymplecticSpace(1)
sp2 = SymplecticSpace(2)
sp3 = SymplecticSpace(3)


class TestLimitConfig:
    def test_validation(self):
        assert [f.name for f in dataclasses.fields(MaslovLimitConfig)] == ["t_max"]
        with pytest.raises(ValueError):
            MaslovLimitConfig(t_max=-1.0)
        for bad in (0.0, 5e-324, 1e308, np.inf, np.nan):
            with pytest.raises(ValueError):
                MaslovLimitConfig(t_max=bad)


def rotation(rate):
    return SpElement(sp1, np.array([[0.0, rate], [-rate, 0.0]]))


class TestLimitErrorPaths:
    def test_overflow_reported(self):
        B = SpElement(sp1, np.diag([1e5, -1e5]))
        with pytest.raises(MaslovLimitError, match="overflow"):
            maslov_limit(B, MaslovLimitConfig(t_max=10.0))

    def test_fast_rotation_triggers_refinement(self):
        # 2 rad per 0.05 step: over the pi/2 gap at which the step-halving
        # sweep this evaluator replaced refined
        est = maslov_limit(rotation(40.0), MaslovLimitConfig(t_max=100.0))
        assert abs(est.value - (-40.0)) <= est.error_bar + 1e-3

    def test_refinement_budget_exhausted(self):
        # r * 0.05 / 2^k is 2 pi / 3 mod 2 pi for k = 0..6, which exhausted
        # the step-halving sweep this evaluator replaced
        rate = (2.0 * np.pi / 3.0) * 2.0**6 / 0.05
        est = maslov_limit(rotation(rate), MaslovLimitConfig(t_max=10.0))
        assert abs(est.value - (-rate)) <= est.error_bar + 1e-6

    def test_step_aliasing_near_pi_refines(self):
        # rate pi / 0.05 puts a per-step phase of a 0.05 grid onto +-pi
        rate = np.pi / 0.05
        est = maslov_limit(rotation(rate), MaslovLimitConfig(t_max=50.0))
        assert abs(est.value - (-rate)) <= est.error_bar + 1e-2

    def test_whole_turn_per_step_aliases(self):
        # rate 2 pi / 0.05 makes exp(0.05 B) the identity, whose mod-2 pi
        # phase increment reads 0
        rate = 2.0 * np.pi / 0.05
        est = maslov_limit(rotation(rate), MaslovLimitConfig(t_max=50.0))
        assert abs(est.value - (-rate)) <= est.error_bar + 1e-2

    def test_step_is_derived_from_the_input(self):
        # the base grid has dt = 1 up to ||B||_2 = 20, then ||dt B||_2 = 20,
        # and never more steps than t_max / 0.05; a semi-simple input then
        # doubles the step while the step count stays a multiple of 4 and
        # ||exp(dt B)||_2 <= e^16
        cfg = MaslovLimitConfig(t_max=100.0)
        for rate, samples in ((0.5, 51), (40.0, 51), (1e4, 251)):
            est = maslov_limit(rotation(rate), cfg)
            assert est.samples_used == samples
            assert abs(est.value - (-rate)) <= est.error_bar + 1e-6 * rate
        # a Jordan chain keeps the base grid
        for n in (1, 2, 3):
            est = maslov_limit(nilpotent_jordan_sp(SymplecticSpace(n)), cfg)
            assert est.samples_used == 101
            assert abs(est.value) <= est.error_bar + 1e-2
        # at ||dt B||_2 = 20, ||exp(2 dt B)||_2 would pass e^16
        B = self.stiff(150.0, 1)
        est = maslov_limit(B, MaslovLimitConfig(t_max=200.0))
        dt = 200.0 / (est.samples_used - 1)
        assert dt * np.linalg.norm(B.mat, 2) == pytest.approx(20.0, rel=1e-2)
        assert np.linalg.norm(scipy.linalg.expm(2 * dt * B.mat), 2) > np.exp(16.0)

    @staticmethod
    def stiff(h, seed):
        # g (hyperbolic h on plane 0, rotation 1 on plane 1) g^-1; value -1
        D = np.zeros((4, 4))
        D[0, 0], D[2, 2], D[1, 3], D[3, 1] = -h, h, 1.0, -1.0
        g = random_symplectic_group_element(sp2, 0.5, seed)
        return SpElement(sp2, g @ D @ omega_adjoint(g))

    def test_stiff_input_at_the_largest_derived_step(self):
        # ||B||_2 = 355, so the derived step sits at ||dt B||_2 = 20
        est = maslov_limit(self.stiff(150.0, 1), MaslovLimitConfig(t_max=200.0))
        assert abs(est.value - (-1.0)) <= est.error_bar + 1e-2

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_singular_step_reported(self, seed):
        with pytest.raises(MaslovLimitError, match=r"singular path step at \|\|dt\*B\|\|_2"):
            maslov_limit(self.stiff(800.0, seed), MaslovLimitConfig(t_max=200.0))


class TestClassificationBands:
    def test_tiny_eigenvalues_count_as_zero(self):
        # eigenvalues inside the on-axis band of both axes are always inside
        # the zero threshold too, so they classify as kernel rather than
        # tripping the ambiguity guard
        eps = 0.9e-8
        blocks = (WilliamsonBlock("quad", eps, eps, (0, 1)),)
        D = WilliamsonDecomposition(sp2, np.eye(4), blocks).assemble()
        (rep,) = rows_of(classify_eigenstructure([SpElement(sp2, D)]))
        assert rep.zero_multiplicity == 4
        assert not pairs(rep, "quad")

    def test_small_but_resolved_quadruple_is_typed(self):
        blocks = (WilliamsonBlock("quad", 1.0, 5e-7, (0, 1)),)
        D = WilliamsonDecomposition(sp2, np.eye(4), blocks).assemble()
        (rep,) = rows_of(classify_eigenstructure([SpElement(sp2, D)]))
        assert len(pairs(rep, "quad")) == 1


class TestRunOptions:
    def test_validation(self, tmp_path, capsys):
        rot = tmp_path / "rot.txt"
        rot.write_text("dim 2\n0 -1\n1 0\n")
        commands = (
            ["eval", str(rot)],
            ["verify", "--suite", "isotropic", "--out", str(tmp_path / "r.txt")],
            ["trace", str(rot), "--out", str(tmp_path / "t.csv")],
        )
        for command in commands:
            for bad in (["--n", "0"], ["--tol", "-1"], ["--trials", "0"]):
                if command[0] == "verify":
                    assert main(command + bad) == 4, command + bad
                    assert capsys.readouterr().err.startswith("error:")
                else:  # eval and trace do not take the suite options
                    with pytest.raises(SystemExit) as exc:
                        main(command + bad)
                    assert exc.value.code == 2, command + bad
            with pytest.raises(SystemExit) as exc:
                main(command + ["--format", "yaml"])
            assert exc.value.code == 2
            capsys.readouterr()


class TestVerifyAllSuite:
    def test_full_suite_passes(self, tmp_path, capsys):
        out = str(tmp_path / "all.txt")
        code = main(
            ["verify", "--suite", "all", "--n", "3", "--trials", "8",
             "--seed", "2", "--out", out]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "PASS" in captured
        text = Path(out).read_text()
        assert "main-theorem" in text and "gleason" in text


def _discontinuous():
    return discontinuous_qs(nilpotent_jordan_sp(sp3), 1.0)


def _two_block_nilpotent():
    """q_1 -> p_1 on sp(4, R): nilpotent, with A^3 = 0 of rank 0, not 1."""
    A = np.zeros((4, 4))
    A[0, 2] = 1.0
    return SpElement(sp2, A)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # expm of the overflowing input
@pytest.mark.parametrize("call, error, match", [
    (lambda: maslov_evaluate([], MaslovLimitConfig(), "exact"), ValueError, "unknown method"),
    (lambda: kernels.expm(np.diag([1e3, -1e3])), OverflowError, "overflowed"),
    (lambda: kernels.polar_decompose(np.zeros((2, 3))), ValueError, "square matrix"),
    (lambda: kernels.complexify_orthosymplectic(np.eye(3)), ValueError, "even-dimensional"),
    (lambda: kernels.complexify_orthosymplectic(2.0 * np.eye(2)), ValueError, "not orthogonal"),
    (lambda: kernels.det_complex(2.0 * np.eye(1)), ValueError, "is not 1"),
    (lambda: kernels.lift_argument(np.array([])), ValueError, "non-empty 1-d"),
    (lambda: kernels.sample_polar_path(np.zeros((2, 2)), [0.0, 0.0]), ValueError, "increasing"),
    (lambda: fit_gleason_on_unitary(_discontinuous(), sp3, 1e-2), ValueError, "continuous"),
    (lambda: fit_rank_one_trace(maslov_qs(), embed_gl(sp2, 0), 1e-2), ValueError, "n >= 3"),
    (lambda: fit_rank_one_trace(_discontinuous(), embed_gl(sp3, 0), 1e-2), ValueError,
     "continuous"),
    (lambda: embed_gl(sp3, 0).inject(np.eye(3)), ValueError, "a stack of 3 x 3 matrices"),
    (lambda: maslov_imtrace(SpElement(sp1, np.diag([1.0, -1.0]))), ValueError,
     "does not commute"),
    (lambda: linear_qs(np.zeros((2, 3))), ValueError, "square"),
    (lambda: discontinuous_qs(_two_block_nilpotent(), 1.0), ValueError, "not rank one"),
    (lambda: linear_combination([]), ValueError, "at least one component"),
    (lambda: SymplecticSpace(0), ValueError, "half-dimension must be positive"),
    (lambda: omega_adjoint(np.zeros((3, 3))), ValueError, "even-dimensional"),
    (lambda: random_sp_element(sp1, -1.0, 0), ValueError, "non-negative"),
])
def test_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_a_failing_plane_check_raises_what_its_element_raises_alone(monkeypatch):
    imag = williamson._PLANE_BUILDERS["imag"]

    def builder(space, W, Wq=None):  # one more check, failing on each group of two planes
        planes, sign, checks = imag(space, W, Wq)
        size = np.full(len(W), W.shape[-1])
        return planes, sign, [*checks, (size == 2, "patched check on {} planes", size)]

    monkeypatch.setitem(williamson._PLANE_BUILDERS, "imag", builder)
    one, two = (SpElement(sp2, WilliamsonDecomposition(sp2, np.eye(4), tuple(
        WilliamsonBlock("imag", 0.0, b, (p,)) for p, b in enumerate(bs))).assemble())
        for bs in ((1.0, 2.0), (1.0, 1.0)))
    assert len(williamson_decompose(classify_eigenstructure([one]))) == 1
    alone = outcome(lambda: williamson_decompose(classify_eigenstructure([two])))
    assert alone == (NormalizationError, "patched check on 2 planes")
    assert outcome(lambda: williamson_decompose(classify_eigenstructure([one, two, one]))) == alone
