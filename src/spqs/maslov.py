"""The Maslov quasi-state on the skew-symplectic algebra, computed three ways:
the defining asymptotic limit along t -> exp(tB), a spectral formula through
the block normal form, and the closed form on sp(2, R).  `maslov_evaluate` is
the one `auto` dispatch between the first two, for the library and the CLI."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .kernels import LiftGapError, complex_blocks, lift_argument
from .symplectic import RankOneDescriptor, RankOneKind, SpElement, omega
from .williamson import SpectrumReport, classify_eigenstructure, krein_parameters

GAP_REFINE = 0.5 * np.pi  # halve the step when a per-step phase gap exceeds this
METHODS = ("auto", "limit", "spectral")


class MaslovLimitError(RuntimeError):
    """The path evaluation failed (undersampled after refinement, or overflow)."""


class SemisimplicityError(RuntimeError):
    """Spectral evaluation refused: eigenstructure too ill-conditioned."""


@dataclass(frozen=True)
class MaslovLimitConfig:
    """Path horizon and sampling for the asymptotic evaluator.

    The estimate converges like O(1/t) (bounded defect), so accuracy is set by
    t_max; dt only needs to keep per-step phase gaps under pi/2.
    """

    t_max: float = 2000.0
    dt: float = 0.05
    max_refinements: int = 6

    def __post_init__(self):
        if self.t_max <= 0 or self.dt <= 0 or self.dt > self.t_max:
            raise ValueError("need 0 < dt <= t_max")
        if self.max_refinements < 0:
            raise ValueError("max_refinements must be >= 0")


@dataclass(frozen=True)
class MaslovEstimate:
    value: float            # theta(t_max) / t_max
    error_bar: float        # |theta(T)/T - theta(T/2)/(T/2)|
    samples_used: int
    value_refined: float    # Richardson extrapolation of the two estimates

    def __post_init__(self):
        if self.error_bar < 0:
            raise ValueError("error_bar must be non-negative")


def _phase_path(Bs: np.ndarray, t_max: float, dt: float):
    """Lifted phase theta(t_k) of det of the complexified unitary polar factor
    of exp(t_k B), for a stack Bs of shape (m, 2n, 2n).

    The path advances by repeated multiplication with expm(dt*B), carried in
    the complex-linear / anti-linear block representation: the ratio
    N = conj(Za) Zc^{-1} of the accumulated product stays in the unit ball for
    symplectic paths, and one step multiplies det Zc by det(Ec + Ea N).  The
    complex-linear part factors as (positive Hermitian) x (unitary), so these
    determinant phases are exactly the phases of the unitary polar factor; no
    entry of the state ever grows with t.

    Returns (theta array (m, steps+1), max per-step gap).
    """
    m, d, _ = Bs.shape
    n = d // 2
    steps = max(2, int(round(t_max / dt)))
    steps += steps % 2  # keep the half-horizon on the grid
    E = scipy.linalg.expm(dt * Bs)
    if not np.all(np.isfinite(E)):
        raise MaslovLimitError("expm(dt*B) overflowed; rescale the input")
    Ec, Ea = complex_blocks(E)
    Ecc, Eac = Ec.conj(), Ea.conj()
    N = np.zeros((m, n, n), dtype=complex)
    increments = np.empty((m, steps))
    for k in range(steps):
        T = Ec + Ea @ N
        increments[:, k] = np.angle(np.linalg.det(T))
        N = (Ecc @ N + Eac) @ np.linalg.inv(T)
    # Phase sequence on the unit circle, then the continuous lift; the lift's
    # gap check is the undersampling guard.
    theta = np.empty((m, steps + 1))
    for i in range(m):
        phasors = np.empty(steps + 1, dtype=complex)
        phasors[0] = 1.0
        np.exp(1j * np.cumsum(increments[i]), out=phasors[1:])
        theta[i] = lift_argument(phasors)
    return theta, float(np.abs(increments).max(initial=0.0))


def _estimate_from_path(theta: np.ndarray, dt: float) -> MaslovEstimate:
    steps = theta.shape[0] - 1
    horizon = steps * dt
    est_full = theta[-1] / horizon
    est_half = theta[steps // 2] / (0.5 * horizon)
    return MaslovEstimate(
        value=float(est_full),
        error_bar=float(abs(est_full - est_half)),
        samples_used=steps + 1,
        value_refined=float(2.0 * est_full - est_half),
    )


def _refined_path(Bs: np.ndarray, cfg: MaslovLimitConfig) -> tuple[np.ndarray, float]:
    """Sweep the stack Bs, halving dt until every per-step phase gap is under
    GAP_REFINE; returns (theta array (m, steps+1), the dt that succeeded)."""
    dt = cfg.dt
    for _ in range(cfg.max_refinements + 1):
        try:
            theta, gap = _phase_path(Bs, cfg.t_max, dt)
        except LiftGapError:
            gap = np.pi  # aliased step: same remedy as a large gap
        if gap < GAP_REFINE:
            return theta, dt
        dt *= 0.5
    raise MaslovLimitError(
        f"phase gaps still {gap:.3f} after {cfg.max_refinements} refinements"
    )


def maslov_limit_batch(
    elements: list[SpElement], cfg: MaslovLimitConfig | None = None
) -> list[MaslovEstimate]:
    """Asymptotic evaluation of a batch sharing one config (one path sweep)."""
    if not elements:
        return []
    theta, dt = _refined_path(
        np.stack([b.mat for b in elements]), cfg or MaslovLimitConfig()
    )
    return [_estimate_from_path(theta[i], dt) for i in range(len(elements))]


def maslov_limit(B: SpElement, cfg: MaslovLimitConfig | None = None) -> MaslovEstimate:
    """Average winding of the unitary polar factor of exp(tB) up to cfg.t_max."""
    return maslov_limit_batch([B], cfg)[0]


def phase_trace(
    B: SpElement, cfg: MaslovLimitConfig | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(t_k, theta(t_k)) along the path: the convergence data behind the
    limit.  theta(t_k)/t_k tends to the quasi-state value."""
    theta, dt = _refined_path(B.mat[None], cfg or MaslovLimitConfig())
    return dt * np.arange(theta.shape[1]), theta[0]


def maslov_dim2(a: float, b: float, c: float) -> float:
    """Closed form on sp(2, R) in the coordinates [[a, b], [c, -a]].

    sqrt|a^2+bc| when a^2+bc < 0 with b < 0 < c; the opposite sign when
    b > 0 > c; zero whenever a^2 + bc >= 0.  (For a^2+bc < 0 one of the two
    sign patterns always holds, since then bc < -a^2 <= 0.)
    """
    disc = a * a + b * c
    if disc < 0.0:
        r = float(np.sqrt(-disc))
        return r if b < 0.0 else -r
    return 0.0


def maslov_on_descriptor(desc: RankOneDescriptor) -> float:
    """Closed-form values on the generators: Y -> -|omega(xi, eta)|, Z -> 0."""
    if desc.kind is RankOneKind.T:
        if np.array_equal(desc.xi, desc.eta):
            return 0.0  # T_{xi,xi} = Z_{xi,xi}/2
        raise ValueError("T descriptor with xi != eta is not in the algebra")
    if desc.kind is RankOneKind.Y:
        return -abs(omega(desc.space, desc.xi, desc.eta))
    return 0.0


def maslov_spectral(B: SpElement, report: SpectrumReport | None = None) -> float:
    """Spectral evaluation: each purely imaginary eigenvalue pair contributes
    minus its oriented block parameter; real pairs, quadruples and the kernel
    contribute nothing.

    Requires a numerically semi-simple input (eigenvector condition number at
    most 1e8); otherwise SemisimplicityError is raised and only the path
    evaluator applies.  `report` is B's classification when the caller
    already has it.
    """
    report = report or classify_eigenstructure(B)
    if not report.semi_simple:
        raise SemisimplicityError(
            f"eigenvector condition {report.eigvec_cond:.3e} exceeds 1e8; "
            "use the asymptotic evaluator"
        )
    return -float(sum(krein_parameters(B, report))) + 0.0


def spectral_error_estimate(B: SpElement) -> float:
    """Crude bound on the spectral evaluation error (eigensolve roundoff)."""
    return 1e-8 * (1.0 + B.norm())


def maslov_evaluate(
    B: SpElement, cfg: MaslovLimitConfig, method: str = "auto"
) -> tuple[float, float, str]:
    """(value, error bar, route taken) by one of 'limit', 'spectral' or
    'auto'.  'auto' classifies B once: semi-simple inputs go the spectral
    route with that classification, the rest go the limit route."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    report = None
    if method == "auto":
        report = classify_eigenstructure(B)
        method = "spectral" if report.semi_simple else "limit"
    if method == "spectral":
        return maslov_spectral(B, report), spectral_error_estimate(B), method
    est = maslov_limit(B, cfg)
    return est.value, est.error_bar, method
