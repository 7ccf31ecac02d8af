import dataclasses

import numpy as np
import pytest
import scipy.linalg

from spqs.cli import main
from spqs.maslov import MaslovLimitConfig, MaslovLimitError, maslov_limit
from spqs.quasistates import nilpotent_jordan_sp
from spqs.symplectic import (
    SpElement,
    SymplecticSpace,
    omega_adjoint,
    random_symplectic_group_element,
)
from spqs.williamson import (
    WilliamsonBlock,
    WilliamsonDecomposition,
    classify_eigenstructure,
)
from test_classification_oracle import pairs, rows_of

sp1 = SymplecticSpace(1)
sp2 = SymplecticSpace(2)


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
        text = open(out).read()
        assert "main-theorem" in text and "gleason" in text
