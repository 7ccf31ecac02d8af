import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from spqs.kernels import sample_polar_path
from spqs.maslov import (
    MaslovLimitConfig,
    MaslovLimitError,
    _increment,
    _step_blocks,
    _step_count,
    _step_phase,
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
    omega_adjoint,
    project_skew_symplectic,
    random_sp_element,
    random_symplectic_group_element,
    rng_from,
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


def base_grid_limit(els, t_max):
    """(values, bars, samples) of the sweep on the `_step_count` grid, with
    no step doubling: the reference for the coarsened sweep."""
    Bs = np.stack([b.mat for b in els])
    m, d, _ = Bs.shape
    norm = float(np.linalg.norm(Bs, 2, axis=(1, 2)).max())
    steps = _step_count(t_max, norm)
    dt = t_max / steps
    step, theta_E = _step_blocks(scipy.linalg.expm(dt * Bs)), _step_phase(Bs, dt, norm)
    N = np.zeros((m, d // 2, d // 2), dtype=complex)
    theta = np.zeros((m, steps + 1))
    for k in range(steps):
        theta[:, k + 1], N = _increment(step, theta_E, N)
    theta = np.cumsum(theta, axis=1)
    full, half = theta[:, -1] / t_max, theta[:, steps // 2] / (0.5 * t_max)
    return full, np.abs(full - half), steps + 1


def criteria_populations():
    """The criteria 01-03 populations (n = 1..4), by name."""
    rng = rng_from(0)
    closed = [sp2_element(*rng.uniform(-2.0, 2.0, 3)) for _ in range(200)]
    yield "closed form n=1", closed
    for n in (1, 2, 3):
        space, rng = SymplecticSpace(n), rng_from(100 + n)
        gens = []
        for _ in range(100):
            xi, eta = rng.standard_normal(2 * n), rng.standard_normal(2 * n)
            gens += [y_element(space, xi, eta), z_element(space, xi, eta)]
        yield f"Y/Z n={n}", gens
    for n in (2, 3, 4):
        rng = rng_from(200 + n)
        space = SymplecticSpace(n)
        yield f"semi-simple n={n}", [random_semisimple(space, rng)[0] for _ in range(100)]


def conjugated_jordan(n):
    """A real Jordan block with eigenvalue 1 and its mirror, in a random
    symplectic frame: not semi-simple."""
    space = SymplecticSpace(n)
    M = np.eye(n) + np.eye(n, k=1)
    D = np.block([[M, np.zeros((n, n))], [np.zeros((n, n)), -M.T]])
    g = random_symplectic_group_element(space, 0.5, 1)
    return project_skew_symplectic(space, g @ D @ omega_adjoint(g))


class TestCoarseGrid:
    FULL = MaslovLimitConfig(t_max=2000.0)

    def test_matches_the_base_grid_on_the_criteria_populations(self):
        pick = rng_from(11)
        coarsened = 0
        for name, population in criteria_populations():
            els = [population[i] for i in pick.choice(len(population), 8, replace=False)]
            values, bars, samples = base_grid_limit(els, self.FULL.t_max)
            ests = maslov_limit_batch(els, self.FULL)
            got = [e.value for e in ests], [e.error_bar for e in ests]
            np.testing.assert_allclose(got, (values, bars), rtol=0, atol=1e-10, err_msg=name)
            assert ests[0].samples_used <= samples, name
            coarsened += ests[0].samples_used < samples
        assert coarsened >= 5

    @pytest.mark.parametrize(
        "B",
        [nilpotent_jordan_sp(SymplecticSpace(n)) for n in (2, 3, 4)]
        + [conjugated_jordan(n) for n in (2, 3)],
        ids=["nilpotent n=2", "nilpotent n=3", "nilpotent n=4", "jordan n=2", "jordan n=3"],
    )
    def test_non_semisimple_inputs_keep_the_base_grid(self, B):
        cfg = MaslovLimitConfig(t_max=200.0)
        values, bars, samples = base_grid_limit([B], cfg.t_max)
        est = maslov_limit(B, cfg)
        assert (est.value, est.error_bar, est.samples_used) == (values[0], bars[0], samples)


class TestRobustness:
    @given(
        n=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-3.0, 3.0),
        log_eps=st.one_of(st.none(), st.floats(-12.0, -1.0)),
    )
    @settings(max_examples=100, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_finite_value_or_limit_error(self, n, seed, log_scale, log_eps):
        # a random semi-simple element (log_eps None) or a Jordan chain plus
        # a random perturbation of size 10^log_eps, scaled by 10^log_scale
        space = SymplecticSpace(n)
        if log_eps is None:
            M = random_semisimple(space, seed)[0].mat
        else:
            eps = 10.0**log_eps * random_sp_element(space, 1.0, seed).mat
            M = nilpotent_jordan_sp(space).mat + eps
        B = SpElement(space, 10.0**log_scale * M)
        try:
            est = maslov_limit(B, MaslovLimitConfig(t_max=50.0))
        except MaslovLimitError:
            return
        assert np.isfinite(est.value) and np.isfinite(est.error_bar)
