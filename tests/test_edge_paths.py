import dataclasses

import numpy as np
import pytest

from spqs.cli import main
from spqs.maslov import (
    MAX_REFINEMENTS,
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
        assert [f.name for f in dataclasses.fields(MaslovLimitConfig)] == ["t_max", "dt"]
        with pytest.raises(ValueError):
            MaslovLimitConfig(t_max=-1.0)
        with pytest.raises(ValueError):
            MaslovLimitConfig(dt=0.0)
        with pytest.raises(ValueError):
            MaslovLimitConfig(t_max=1.0, dt=2.0)
        for bad in ({"t_max": np.inf}, {"t_max": np.nan}, {"dt": np.nan}):
            with pytest.raises(ValueError):
                MaslovLimitConfig(**bad)


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
        # r * dt_k = (2 pi / 3) 2^(6-k) is 2 pi / 3 mod 2 pi at every halving
        # k = 0..MAX_REFINEMENTS, so no refinement brings the gap under pi/2
        assert MAX_REFINEMENTS == 6
        rate = (2.0 * np.pi / 3.0) * 2.0**6 / 0.05
        B = SpElement(sp1, np.array([[0.0, rate], [-rate, 0.0]]))
        with pytest.raises(MaslovLimitError, match="still 2.094 after 6 refinements"):
            maslov_limit(B, MaslovLimitConfig(t_max=10.0, dt=0.05))

    def test_step_aliasing_near_pi_refines(self):
        # rotation rate pi/dt aliases the per-step increment onto +-pi, which
        # must be treated as undersampling, not an error
        rate = np.pi / 0.05
        B = SpElement(sp1, np.array([[0.0, rate], [-rate, 0.0]]))
        est = maslov_limit(B, MaslovLimitConfig(t_max=50.0, dt=0.05))
        assert abs(est.value - (-rate)) <= est.error_bar + 1e-2

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: a whole turn per step aliases to a zero phase gap, "
        "which the a posteriori gap check cannot see",
    )
    def test_whole_turn_per_step_aliases(self):
        # rate 2 pi / dt turns exp(dt B) into the identity: every per-step
        # increment reads 0, so the sweep returns ~0 +- 0 instead of -rate
        rate = 2.0 * np.pi / 0.05
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
