"""The Maslov quasi-state on the skew-symplectic algebra, computed three ways:
the defining asymptotic limit along t -> exp(tB), a spectral formula through
the block normal form, and the closed form on sp(2, R).  `maslov_evaluate` is
the one dispatch between them, for the library and the CLI."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .kernels import complex_blocks
from .symplectic import SpElement, rescaled
from .williamson import SpectrumStack, classify_eigenstructure, eigvec_condition, krein_parameters

DT_FLOOR = 0.05  # the derived step never goes below this
STEP_NORM = 20.0  # above the floor, the derived step keeps ||dt*B||_2 <= this
GROWTH_MAX = 16.0  # a doubled step keeps ||expm(dt*B)||_2 <= e^this
MAX_STEPS = 10**6  # largest base grid a sweep takes on (the default horizon needs <= 40000)
CHUNK = 32  # sweep steps whose phase increments one stacked eigvals takes
METHODS = ("limit", "spectral", "dim2", "auto")


class MaslovLimitError(RuntimeError):
    """The path evaluation failed: the horizon needs more than MAX_STEPS
    steps, expm(dt*B) overflowed, or a step was numerically singular (a stiff
    input with a large ||dt*B||_2)."""


@dataclass(frozen=True)
class MaslovLimitConfig:
    """Path horizon of the asymptotic evaluator.

    The estimate converges like O(1/t) (bounded defect), so accuracy is set by
    t_max alone: every per-step phase increment is exact, and each element's
    step is worked out from that element alone (`_step_count`, then doubled by
    `_coarsen` if it is semi-simple), in a batch as in a single evaluation.
    """

    t_max: float = 2000.0

    def __post_init__(self):
        # t_max / 2 stays a normal float (a subnormal step loses the phase:
        # t_max = 1e-323 read 0 on a unit rotation), and the step cap
        # t_max / DT_FLOOR of `_step_count` stays finite
        lo, hi = 2 * sys.float_info.min, sys.float_info.max * DT_FLOOR
        if not lo <= self.t_max <= hi:
            raise ValueError(f"need {lo!r} <= t_max <= {hi!r}")


@dataclass(frozen=True)
class MaslovEstimate:
    value: float            # theta(t_max) / t_max
    error_bar: float        # |theta(T)/T - theta(T/2)/(T/2)|
    samples_used: int

    def __post_init__(self):
        if not self.error_bar >= 0:  # a NaN bar fails too
            raise ValueError("error_bar must be non-negative")


def _step_count(t_max: float, norm: float) -> int:
    """Even number of steps of the base grid over [0, t_max] for inputs of
    spectral norm up to `norm`: dt = t_max / steps is at most 1 and keeps
    ||dt*B||_2 <= STEP_NORM, but is never below DT_FLOOR.  `_coarsen` may
    then double dt on a semi-simple element."""
    cap = max(2, round(t_max / DT_FLOOR))
    cap += cap % 2
    want = t_max * max(1.0, norm / STEP_NORM)
    return cap if want >= cap else 2 * math.ceil(want / 2)


def _step_blocks(E: np.ndarray):
    """(M = [L; conj Ec; Ea], C = [conj Ea; Ec]) of a stack of steps E, L = Ec^-1 Ea."""
    Ec, Ea = complex_blocks(E)
    return (np.concatenate([np.linalg.solve(Ec, Ea), Ec.conj(), Ea], axis=1),
            np.concatenate([Ea.conj(), Ec], axis=1))


def _advance(step, N: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Next ratio (conj Ec N + conj Ea) (Ec + Ea N)^-1 of states with ratio N
    under the step E (`_step_blocks`); writes M N, whose top rows are L N, into out."""
    h = N.shape[-1]
    Q = np.matmul(step[0], N, out=out)[:, h:] + step[1]
    return Q[:, :h] @ np.linalg.inv(Q[:, h:])


def _increments(theta_E: np.ndarray, LN: np.ndarray) -> np.ndarray:
    """Exact phase increments of the steps of a stack LN (any depth) of L N.

    One step multiplies det Zc by det(Ec + Ea N) = det Ec det(I + L N).  Along
    the step both L and N stay in the open unit ball, so every eigenvalue of
    I + L N keeps a positive real part and the principal arguments sum to the
    continuous change of the second factor; theta_E is that of the first.
    """
    return theta_E + np.angle(np.linalg.eigvals(LN + np.eye(LN.shape[-1]))).sum(axis=-1)


def _doubled_phase(E: np.ndarray, theta_E: np.ndarray) -> np.ndarray:
    """theta_E of E @ E from the step E and its theta_E: the second half adds
    the increment from conj(Ea) Ec^-1, the ratio of E."""
    M, C = step = _step_blocks(E)
    h, P = C.shape[-1], np.empty_like(M)
    _advance(step, C[:, :h] @ np.linalg.inv(C[:, h:]), P)
    return theta_E + _increments(theta_E, P[:, :h])


def _step_phase(Bs: np.ndarray, dt: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """theta_E of each element: the continuous change of arg det Ec(s) over
    s in [0, dt], for its own dt and ||B||_2.

    At s = dt / 2^k with s ||B||_2 <= 1/2, ||Ec(s) - I|| <= e^(1/2) - 1 < 1 on
    the whole interval, so the principal arguments of eig(Ec(s)) are the lift;
    k doublings take it to dt, each on the elements still doubling (an index set).
    """
    import scipy.linalg  # deferred: the spectral route never needs it

    k = np.array([math.ceil(math.log2(max(1.0, x))) for x in (2.0 * dt * norm).tolist()])
    with np.errstate(over="ignore"):  # a shorter step than the expm(dt*B) that _phase_path checks
        E = scipy.linalg.expm(Bs * (dt / 2.0**k)[:, None, None])
    theta = np.angle(np.linalg.eigvals(complex_blocks(E)[0])).sum(axis=-1)
    for j in range(k.max()):
        go = np.flatnonzero(k > j)
        theta[go], E[go] = _doubled_phase(E[go], theta[go]), E[go] @ E[go]
    return theta


def _coarsen(Bs: np.ndarray, steps: np.ndarray, E: np.ndarray, theta_E: np.ndarray):
    """Double the step E = expm(dt*B) of each element's `steps` grid while its
    steps % 4 == 0 (t_max / 2 stays a grid point), its E @ E is finite with
    ||E @ E||_2 <= e^GROWTH_MAX, and it is semi-simple; returns (steps,
    `_step_blocks` of the steps, theta_E), each per element.

    The increments are exact, so theta at the grid points does not depend on
    the grid; their roundoff grows like ||E||_2 per step, which the growth
    bound keeps near 1e-11 in theta(t_max)/t_max (e^20 let it reach 5e-10).
    On semi-simple inputs ||exp(tB)||_2 <= cond(V) e^(t max Re lambda), so the
    bound stops the doubling at hyperbolic parts.  Along Jordan chains the
    sweep loses digits at any step, so those keep the base grid.
    """
    steps, E, theta_E = steps.copy(), E.copy(), theta_E.copy()
    go = np.flatnonzero(eigvec_condition(np.linalg.eig(Bs)[1])[1] & (steps % 4 == 0))
    while go.size:
        with np.errstate(over="ignore", invalid="ignore"):  # `ok` drops a non-finite E2
            E2 = E[go] @ E[go]
        ok = np.isfinite(E2).all(axis=(1, 2))
        ok[ok] = np.linalg.norm(E2[ok], 2, axis=(1, 2)) <= math.exp(GROWTH_MAX)
        go = go[ok]
        theta_E[go], E[go] = _doubled_phase(E[go], theta_E[go]), E2[ok]
        steps[go] //= 2
        go = go[steps[go] % 4 == 0]
    return steps, _step_blocks(E), theta_E


def _phase_path(Bs: np.ndarray, t_max: float) -> list[np.ndarray]:
    """Lifted phase theta(t_k) of det of the complexified unitary polar factor
    of exp(t_k B) on an even grid of [0, t_max], for each element of a stack Bs
    of shape (m, 2n, 2n); returns each element's theta on its own grid, of
    steps + 1 entries.

    The path advances by repeated multiplication with expm(dt*B), carried in
    the complex-linear / anti-linear block representation: the ratio
    N = conj(Za) Zc^{-1} of the accumulated product stays in the unit ball, so
    no entry of the state grows with t.  The complex-linear part factors as
    (positive Hermitian) x (unitary), so the phases of det Zc are those of the
    unitary polar factor.  `_increments` gives their exact change over each
    step (the universal-cover cocycle of Sp(2n, R)), so dt does not set the
    value: each element's grid starts at its own `_step_count` steps and
    `_coarsen` doubles its step where the element allows, so an element's
    theta is the one it gets swept alone.  Only the ratio N_k is advanced step
    by step (`_advance`: one stacked product M N).  The stack is ordered by
    step count, so the elements still sweeping are a prefix of it, which
    shrinks where a grid ends.  Step k's increment depends only on N_k, so one
    stacked eigvals of the L N rows, read in place, phases a chunk.
    """
    import scipy.linalg  # deferred: the spectral route never needs it

    m, d, _ = Bs.shape
    h = d // 2
    norm = np.linalg.norm(Bs, 2, axis=(1, 2))
    steps = np.array([_step_count(t_max, x) for x in norm.tolist()])
    if steps.max() > MAX_STEPS:
        raise MaslovLimitError(f"t_max = {t_max!r} needs {steps.max()} path steps, more than {MAX_STEPS}")
    dt = t_max / steps
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports an overflow
        E = scipy.linalg.expm(dt[:, None, None] * Bs)
    if not np.all(np.isfinite(E)):
        raise MaslovLimitError("expm(dt*B) overflowed; rescale the input")
    try:
        steps, step, theta_E = _coarsen(Bs, steps, E, _step_phase(Bs, dt, norm))
        order = np.argsort(-steps, kind="stable")
        ends, M, C, theta_E = steps[order], step[0][order], step[1][order], theta_E[order]
        theta = np.zeros((m, ends[0] + 1))
        P = np.empty((min(CHUNK, ends[0]), *M.shape), dtype=complex)
        N = np.zeros((m, h, h), dtype=complex)
        start, live = 0, m
        while live:  # sweep the first `live` elements up to the end of the shortest grid
            stop, step, Pl, N = ends[live - 1], (M[:live], C[:live]), P[:, :live], N[:live]
            for k in range(start, stop, CHUNK):
                for j in range(min(CHUNK, stop - k)):
                    N = _advance(step, N, Pl[j])
                theta[:live, k + 1:k + j + 2] = _increments(theta_E[:live], Pl[:j + 1, :, :h]).T
            start, live = stop, np.count_nonzero(ends > stop)
    except np.linalg.LinAlgError:
        raise MaslovLimitError(
            f"singular path step at ||dt*B||_2 = {(t_max / steps * norm).max():.3g}; "
            "rescale the input"
        ) from None
    theta = np.cumsum(theta, axis=1)
    return [theta[r, :s + 1] for r, s in zip(np.argsort(order).tolist(), steps.tolist())]


def maslov_limit_batch(
    elements: list[SpElement], cfg: MaslovLimitConfig = MaslovLimitConfig()
) -> list[MaslovEstimate]:
    """Asymptotic evaluation of a batch sharing one config: one stacked path
    sweep in which each element takes its own grid, so each estimate is the
    one `maslov_limit` gives that element alone."""
    if not elements:
        return []
    T = cfg.t_max
    ests = []
    for theta in _phase_path(np.stack([b.mat for b in elements]), T):
        full, half = theta[-1] / T, theta[len(theta) // 2] / (0.5 * T)
        ests.append(MaslovEstimate(float(full), float(abs(full - half)), len(theta)))
    return ests


def maslov_limit(B: SpElement, cfg: MaslovLimitConfig = MaslovLimitConfig()) -> MaslovEstimate:
    """Average winding of the unitary polar factor of exp(tB) up to cfg.t_max."""
    return maslov_limit_batch([B], cfg)[0]


def phase_trace(
    B: SpElement, cfg: MaslovLimitConfig = MaslovLimitConfig()
) -> tuple[np.ndarray, np.ndarray]:
    """(t_k, theta(t_k)) along the path: the convergence data behind the
    limit.  theta(t_k)/t_k tends to the quasi-state value."""
    theta = _phase_path(B.mat[None], cfg.t_max)[0]
    return np.linspace(0.0, cfg.t_max, len(theta)), theta


def maslov_dim2(a: float, b: float, c: float) -> float:
    """Closed form on sp(2, R) in the coordinates [[a, b], [c, -a]].

    sqrt|a^2+bc| when a^2+bc < 0 with b < 0 < c; the opposite sign when
    b > 0 > c; zero whenever a^2 + bc >= 0.  (For a^2+bc < 0 one of the two
    sign patterns always holds, since then bc < -a^2 <= 0.)  Taken exactly at the
    scale of bc, of a / 2^h, b / 2^(2h - j) and c / 2^j: 2^i, 2^j lie just above
    |b|, |c| and 2h is i + j rounded up to even, so neither b nor c is flushed.
    """
    i, j = np.frexp([b, c])[1].tolist()
    h = (i + j + 1) // 2
    with np.errstate(over="ignore"):  # a / 2^h overflows only where a^2 outweighs bc
        x, y, z = np.ldexp([a, b, c], [-h, j - 2 * h, -j]).tolist()
    disc = x * x + y * z
    return math.ldexp(math.copysign(math.sqrt(-disc), -y), h) if disc < 0.0 else 0.0


def maslov_spectral(spectra: SpectrumStack) -> list[float]:
    """Spectral evaluation of each classified element: each purely imaginary
    eigenvalue pair contributes minus its oriented block parameter (summed by
    ascending |b|); real pairs, quadruples and the kernel contribute nothing.

    Requires numerically semi-simple inputs; otherwise `krein_parameters`
    raises NonSemisimpleError and only the path evaluator applies."""
    values = []
    for b in krein_parameters(spectra):
        total = sum(b)
        if not math.isfinite(total) and np.isfinite(b).all():  # overflowed: sum it `rescaled`
            total = rescaled(lambda y: sum(y.tolist()), b)
        values.append(-total + 0.0)
    return values


def _spectral_bar(B: SpElement) -> float:
    """1e-8 (1 + |B|_F), a crude bound on the eigensolve roundoff; where that
    overflows, 1e-8 |B|_F taken `rescaled` (there the 1 is below its last bit)."""
    bar = 1e-8 * (1.0 + B.norm())
    return bar if bar != math.inf else rescaled(lambda y: 1e-8 * np.linalg.norm(y), B.mat)


def maslov_evaluate(
    Bs: list[SpElement], cfg: MaslovLimitConfig, method: str = "auto"
) -> list[tuple[float, float, str]]:
    """(value, error bar, route taken) of each element by one of METHODS.
    'dim2' is the closed form on 2x2 inputs, with a zero bar.  'auto'
    classifies each element once: semi-simple inputs go the spectral route,
    which takes the elements of each dimension as one stack, and each of the
    rest its own limit-route sweep.  A failing element makes the batch raise
    the exception it raises alone."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "dim2":
        if any(B.space.n != 1 for B in Bs):
            raise ValueError("dim2 closed form needs a 2x2 input")
        return [(maslov_dim2(B.mat[0, 0], B.mat[0, 1], B.mat[1, 0]), 0.0, method) for B in Bs]
    spectral = {}  # position in Bs -> value
    for dim in dict.fromkeys(B.space.dim for B in Bs) if method != "limit" else ():
        idx = [k for k, B in enumerate(Bs) if B.space.dim == dim]
        spectra = classify_eigenstructure([Bs[k] for k in idx])
        if method == "auto" and not spectra.semi_simple.all():
            rows = spectra.semi_simple.nonzero()[0]
            idx, spectra = [idx[j] for j in rows.tolist()], spectra.take(rows)
        spectral.update(zip(idx, maslov_spectral(spectra) if idx else ()))
    limit = {k: maslov_limit(B, cfg) for k, B in enumerate(Bs) if k not in spectral}
    return [
        (spectral[k], _spectral_bar(B), "spectral") if k in spectral
        else (limit[k].value, limit[k].error_bar, "limit")
        for k, B in enumerate(Bs)
    ]
