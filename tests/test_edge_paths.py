import numpy as np
import pytest

from spqs.cli import main
from spqs.maslov import (
    MaslovLimitConfig,
    MaslovLimitError,
    maslov_limit,
)
from spqs.symplectic import SpElement, SymplecticSpace
from spqs.williamson import (
    WilliamsonBlock,
    WilliamsonDecomposition,
    classify_eigenstructure,
)

sp1 = SymplecticSpace(1)
sp2 = SymplecticSpace(2)


class TestLimitConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MaslovLimitConfig(t_max=-1.0)
        with pytest.raises(ValueError):
            MaslovLimitConfig(dt=0.0)
        with pytest.raises(ValueError):
            MaslovLimitConfig(t_max=1.0, dt=2.0)
        with pytest.raises(ValueError):
            MaslovLimitConfig(max_refinements=-1)


class TestLimitErrorPaths:
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflow_reported(self):
        B = SpElement(sp1, np.diag([1e5, -1e5]))
        with pytest.raises(MaslovLimitError, match="overflow"):
            maslov_limit(B, MaslovLimitConfig(t_max=10.0, dt=0.05))

    def test_fast_rotation_triggers_refinement(self):
        # per-step phase gap 40 * 0.05 = 2 rad exceeds pi/2; the step is
        # halved automatically and the value still converges
        B = SpElement(sp1, np.array([[0.0, 40.0], [-40.0, 0.0]]))
        est = maslov_limit(B, MaslovLimitConfig(t_max=100.0, dt=0.05))
        assert abs(est.value - (-40.0)) <= est.error_bar + 1e-3

    def test_refinement_budget_exhausted(self):
        B = SpElement(sp1, np.array([[0.0, 40.0], [-40.0, 0.0]]))
        with pytest.raises(MaslovLimitError, match="refinement"):
            maslov_limit(B, MaslovLimitConfig(t_max=100.0, dt=0.05, max_refinements=0))

    def test_step_aliasing_near_pi_refines(self):
        # rotation rate pi/dt aliases the per-step increment onto +-pi, which
        # must be treated as undersampling, not an error
        rate = np.pi / 0.05
        B = SpElement(sp1, np.array([[0.0, rate], [-rate, 0.0]]))
        est = maslov_limit(B, MaslovLimitConfig(t_max=50.0, dt=0.05))
        assert abs(est.value - (-rate)) <= est.error_bar + 1e-2


class TestClassificationBands:
    def test_tiny_eigenvalues_count_as_zero(self):
        # eigenvalues inside the on-axis band of both axes are always inside
        # the zero threshold too, so they classify as kernel rather than
        # tripping the ambiguity guard
        eps = 0.9e-8
        blocks = (WilliamsonBlock("quad", eps, eps, (0, 1)),)
        D = WilliamsonDecomposition(sp2, np.eye(4), blocks).assemble()
        rep = classify_eigenstructure(SpElement(sp2, D))
        assert rep.zero_multiplicity == 4
        assert not rep.quadruples

    def test_small_but_resolved_quadruple_is_typed(self):
        blocks = (WilliamsonBlock("quad", 1.0, 5e-7, (0, 1)),)
        D = WilliamsonDecomposition(sp2, np.eye(4), blocks).assemble()
        rep = classify_eigenstructure(SpElement(sp2, D))
        assert len(rep.quadruples) == 1


class TestRunConfig:
    def test_validation(self):
        from spqs.cli import RunConfig

        with pytest.raises(ValueError):
            RunConfig(n=0)
        with pytest.raises(ValueError):
            RunConfig(tol=-1.0)
        with pytest.raises(ValueError):
            RunConfig(trials=0)
        with pytest.raises(ValueError):
            RunConfig(format="yaml")


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
