import numpy as np
import pytest

from spqs.kernels import sample_polar_path
from spqs.maslov import (
    MaslovLimitConfig,
    maslov_dim2,
    maslov_limit,
    maslov_limit_batch,
    maslov_on_descriptor,
    maslov_spectral,
    phase_trace,
)
from spqs.quasistates import nilpotent_jordan_sp
from spqs.symplectic import (
    RankOneDescriptor,
    RankOneKind,
    SpElement,
    SymplecticSpace,
    omega,
    random_sp_element,
    y_element,
    z_element,
)
from spqs.williamson import NonSemisimpleError, random_semisimple

sp1 = SymplecticSpace(1)
sp2 = SymplecticSpace(2)
sp3 = SymplecticSpace(3)

SHORT = MaslovLimitConfig(t_max=400.0)


def sp2_element(a, b, c):
    return SpElement(sp1, np.array([[a, b], [c, -a]], dtype=float))


class TestClosedForm:
    def test_branch_values(self):
        assert maslov_dim2(0, -1, 1) == pytest.approx(1.0)
        assert maslov_dim2(0, 1, -1) == pytest.approx(-1.0)
        assert maslov_dim2(3, 1, 2) == 0.0

    def test_homogeneity(self):
        rng = np.random.Generator(np.random.Philox(1))
        for _ in range(30):
            a, b, c = rng.uniform(-2, 2, 3)
            for s in (2.0, 3.0, -1.0):
                assert maslov_dim2(s * a, s * b, s * c) == pytest.approx(
                    s * maslov_dim2(a, b, c), abs=1e-12
                )


class TestLimit:
    def test_zero_element(self):
        est = maslov_limit(SpElement(sp1, np.zeros((2, 2))), SHORT)
        assert est.value == 0.0
        assert est.error_bar == 0.0

    def test_rotation_anchor(self):
        est = maslov_limit(sp2_element(0.0, -1.0, 1.0), SHORT)
        assert abs(est.value - 1.0) <= est.error_bar + 1e-6

    def test_hyperbolic_anchor(self):
        est = maslov_limit(SpElement(sp1, np.diag([1.0, -1.0])), SHORT)
        assert abs(est.value) <= est.error_bar + 1e-6

    def test_estimate_fields(self):
        B = sp2_element(0.3, -1.2, 0.8)
        est = maslov_limit(B, SHORT)
        assert est.error_bar >= 0
        assert est.samples_used == len(phase_trace(B, SHORT)[0])

    def test_against_closed_form_random(self):
        rng = np.random.Generator(np.random.Philox(2))
        els, truths = [], []
        for _ in range(30):
            a, b, c = rng.uniform(-2, 2, 3)
            els.append(sp2_element(a, b, c))
            truths.append(maslov_dim2(a, b, c))
        ests = maslov_limit_batch(els, MaslovLimitConfig(t_max=2000.0))
        for est, truth in zip(ests, truths):
            assert abs(est.value - truth) <= est.error_bar + 1e-3

    def test_agrees_with_direct_polar_route(self):
        # the bounded path recursion must reproduce the literal construction:
        # polar factors of exp(tB), complexified, det phases lifted; the
        # literal lift needs phase gaps under pi, so it samples a grid 20
        # times finer than the sweep's and is compared at the sweep's times
        fine = 20
        for n, seed in ((1, 3), (2, 4)):
            space = SymplecticSpace(n)
            B = random_sp_element(space, 0.6, seed)
            t, theta = phase_trace(B, MaslovLimitConfig(t_max=12.0))
            grid = np.linspace(0.0, t[-1], fine * (len(t) - 1) + 1)
            direct = sample_polar_path(space, B.mat, grid[1:])[fine - 1 :: fine]
            np.testing.assert_allclose([s.t for s in direct], t[1:], rtol=1e-12)
            np.testing.assert_allclose(
                theta[1:], [s.theta for s in direct], atol=1e-7
            )

    def test_homogeneity_within_bars(self):
        B = sp2_element(0.2, -1.5, 1.1)
        base = maslov_limit(B, SHORT)
        for s in (2.0, 3.0, -1.0):
            scaled = maslov_limit(s * B, SHORT)
            tol = abs(s) * base.error_bar + scaled.error_bar + 1e-3
            assert abs(scaled.value - s * base.value) <= tol

    def test_homogeneity_n2_against_spectral(self):
        B, _ = random_semisimple(sp2, 21)
        ref = maslov_spectral(B)
        for s in (2.0, 3.0, -1.0):
            est = maslov_limit(s * B, SHORT)
            assert abs(est.value - s * ref) <= est.error_bar + 1e-2


class TestDescriptorValues:
    def test_y_value(self):
        d = RankOneDescriptor(sp1, RankOneKind.Y, sp1.basis_e(0), sp1.basis_f(0))
        assert maslov_on_descriptor(d) == pytest.approx(-1.0)

    def test_z_value(self):
        rng = np.random.Generator(np.random.Philox(5))
        d = RankOneDescriptor(
            sp2, RankOneKind.Z, rng.standard_normal(4), rng.standard_normal(4)
        )
        assert maslov_on_descriptor(d) == 0.0

    def test_isotropic_pair_gives_zero(self):
        d = RankOneDescriptor(sp2, RankOneKind.Y, sp2.basis_e(0), sp2.basis_e(1))
        assert maslov_on_descriptor(d) == 0.0

    def test_t_descriptor(self):
        xi = sp2.basis_e(0)
        assert maslov_on_descriptor(RankOneDescriptor(sp2, RankOneKind.T, xi, xi)) == 0.0
        with pytest.raises(ValueError):
            maslov_on_descriptor(
                RankOneDescriptor(sp2, RankOneKind.T, xi, sp2.basis_f(0))
            )


class TestSpectral:
    def test_z_generator(self):
        Z = z_element(sp2, sp2.basis_e(0), sp2.basis_f(0))
        assert maslov_spectral(Z) == pytest.approx(0.0, abs=1e-9)

    def test_y_generator(self):
        Y = y_element(sp1, sp1.basis_e(0), sp1.basis_f(0))
        assert maslov_spectral(Y) == pytest.approx(-1.0, abs=1e-9)

    def test_random_y_z_match_descriptor_values(self):
        rng = np.random.Generator(np.random.Philox(6))
        for _ in range(15):
            xi, eta = rng.standard_normal((2, 6))
            w = omega(sp3, xi, eta)
            assert maslov_spectral(y_element(sp3, xi, eta)) == pytest.approx(
                -abs(w), abs=1e-8
            )
            assert maslov_spectral(z_element(sp3, xi, eta)) == pytest.approx(
                0.0, abs=1e-8
            )

    def test_limit_is_the_oracle(self):
        rng = np.random.Generator(np.random.Philox(7))
        els = []
        for _ in range(12):
            B, _ = random_semisimple(sp2, rng)
            els.append(B)
        ests = maslov_limit_batch(els, MaslovLimitConfig(t_max=2000.0))
        for B, est in zip(els, ests):
            assert abs(maslov_spectral(B) - est.value) <= est.error_bar + 1e-2

    def test_krein_orientation_distinguished(self):
        plus = SpElement(sp1, np.array([[0.0, 2.0], [-2.0, 0.0]]))
        minus = SpElement(sp1, np.array([[0.0, -2.0], [2.0, 0.0]]))
        assert maslov_spectral(plus) == pytest.approx(-2.0, abs=1e-9)
        assert maslov_spectral(minus) == pytest.approx(2.0, abs=1e-9)
        for el, want in ((plus, -2.0), (minus, 2.0)):
            est = maslov_limit(el, SHORT)
            assert abs(est.value - want) <= est.error_bar + 1e-3

    def test_nilpotent_rejected(self):
        with pytest.raises(NonSemisimpleError):
            maslov_spectral(nilpotent_jordan_sp(sp2))


class TestTrace:
    def test_final_ratio_matches_limit_value(self):
        B = sp2_element(0.1, -0.9, 1.3)
        cfg = MaslovLimitConfig(t_max=100.0)
        t, theta = phase_trace(B, cfg)
        est = maslov_limit(B, cfg)
        assert theta[-1] / t[-1] == pytest.approx(est.value, abs=1e-12)
        assert np.all(np.diff(t) > 0)
