"""Numerical kernels: matrix exponential, polar decomposition, complexification
of orthogonal-symplectic matrices, complex determinants and continuous argument
lifting along a path."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symplectic import SymplecticSpace

POLAR_COND_MAX = 1e12     # refuse polar factorization beyond this condition number
ORTHO_TOL = 1e-8
EXPM_TOL = 1e-10          # relative residual allowed between exp(A) and exp(A/2)^2
LIFT_MARGIN = 1e-6        # consecutive lifted angles must differ by < pi - margin


class LiftGapError(RuntimeError):
    """Consecutive phases are too far apart for a unique continuous lift."""


class IllConditionedError(RuntimeError):
    """Input too close to singular for the requested factorization."""


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring, fixed-order rational kernel),
    with the result cross-checked against a step-halved recomputation.

    The halving residual is a cheap a-posteriori accuracy certificate; its
    failure signals an overflow-grade norm rather than being clamped silently.
    """
    import scipy.linalg  # deferred: `import spqs` does not need it

    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got {A.shape}")
    E = scipy.linalg.expm(A)
    H = scipy.linalg.expm(0.5 * A)
    if not np.all(np.isfinite(E)) or not np.all(np.isfinite(H)):
        raise OverflowError("matrix exponential overflowed; rescale the input")
    resid = np.linalg.norm(H @ H - E) / max(1.0, np.linalg.norm(E))
    if resid > EXPM_TOL:
        raise ArithmeticError(
            f"exponential residual {resid:.3e} exceeds tol={EXPM_TOL:.1e} "
            f"(norm {np.linalg.norm(A):.3e} too extreme)"
        )
    return E


def polar_decompose(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left polar decomposition M = P U.

    P = (M M^T)^{1/2} from the eigendecomposition of the symmetric factor,
    obtained through the singular value decomposition of M (same
    eigenvectors and root eigenvalues, but without explicitly squaring M,
    which would halve the usable condition range).  No iterative refinement.
    For symplectic M both factors are symplectic and U is additionally
    complex-linear.
    """
    M = np.asarray(M, dtype=float)
    d = M.shape[0]
    if M.shape != (d, d):
        raise ValueError("polar decomposition needs a square matrix")
    A, s, Vt = np.linalg.svd(M)
    if s[-1] <= 0 or s[0] / s[-1] > POLAR_COND_MAX:
        raise IllConditionedError(
            f"condition number {s[0] / max(s[-1], 1e-300):.3e} exceeds "
            f"{POLAR_COND_MAX:.1e}; polar factor unreliable"
        )
    P = (A * s) @ A.T
    U = A @ Vt
    return P, U


def complex_blocks(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a stacked real (..., 2n, 2n) matrix into its complex-linear and
    anti-linear parts, each as an n x n complex matrix.

    With coordinates (p, q) and z = p + iq, a matrix commuting with the
    standard complex structure acts as z -> Zc z and one anti-commuting with it
    as z -> Za conj(z).
    """
    d = M.shape[-1]
    n = d // 2
    M11 = M[..., :n, :n]
    M12 = M[..., :n, n:]
    M21 = M[..., n:, :n]
    M22 = M[..., n:, n:]
    Zc = 0.5 * ((M11 + M22) + 1j * (M21 - M12))
    Za = 0.5 * ((M11 - M22) + 1j * (M21 + M12))
    return Zc, Za


def complexify_orthosymplectic(U: np.ndarray) -> np.ndarray:
    """Identify an orthogonal symplectic matrix with a unitary n x n matrix.

    U must commute with the standard complex structure (equivalently: be
    orthogonal and symplectic), i.e. have the block form [[X, -Y], [Y, X]];
    the result is X + iY, unitary within tolerance.
    """
    U = np.asarray(U, dtype=float)
    d = U.shape[0]
    if U.shape != (d, d) or d % 2:
        raise ValueError("expected a square even-dimensional matrix")
    scale = max(1.0, np.abs(U).max())
    if np.abs(U.T @ U - np.eye(d)).max() > ORTHO_TOL * scale:
        raise ValueError("input is not orthogonal within tolerance")
    Zc, Za = complex_blocks(U)
    if np.abs(Za).max() > ORTHO_TOL * scale:
        raise ValueError(
            "input does not commute with the standard complex structure "
            f"(anti-linear defect {np.abs(Za).max():.3e})"
        )
    return Zc


def det_complex(Uc: np.ndarray) -> complex:
    """Determinant of a (near-)unitary complex matrix; |det| is checked to be
    within tolerance of 1."""
    Uc = np.asarray(Uc, dtype=complex)
    det = complex(np.linalg.det(Uc))
    if abs(abs(det) - 1.0) > ORTHO_TOL * 10:
        raise ValueError(f"|det| = {abs(det):.6f} is not 1; input not unitary")
    return det


def lift_argument(phases: np.ndarray) -> np.ndarray:
    """Continuous argument along a sequence of unit complex numbers.

    Returns theta_k with e^{i theta_k} = phases_k, theta_0 in (-pi, pi] and
    |theta_{k+1} - theta_k| < pi.  Raises LiftGapError when a consecutive gap
    reaches pi - LIFT_MARGIN: the caller sampled too coarsely and must shrink
    the step.
    """
    phases = np.asarray(phases, dtype=complex)
    ang = np.angle(phases)
    if ang.ndim != 1 or len(ang) == 0:
        raise ValueError("need a non-empty 1-d sequence of phases")
    gaps = np.angle(np.exp(1j * np.diff(ang)))
    if len(gaps) and np.abs(gaps).max() >= np.pi - LIFT_MARGIN:
        raise LiftGapError(
            f"phase gap {np.abs(gaps).max():.4f} too close to pi; undersampled"
        )
    out = np.empty_like(ang)
    out[0] = ang[0]
    np.cumsum(gaps, out=out[1:])
    out[1:] += ang[0]
    return out


@dataclass(frozen=True)
class PolarSample:
    """Polar factors of exp(tB) at one path parameter, with the continuously
    lifted phase of det of the complexified unitary factor up to that t."""

    t: float
    P: np.ndarray
    U: np.ndarray
    theta: float


def sample_polar_path(
    space: SymplecticSpace, B: np.ndarray, times: np.ndarray
) -> list[PolarSample]:
    """Polar samples of t -> exp(tB) at the given times (monotone, starting
    near 0).  Intended for moderate t where exp(tB) is representable; the
    asymptotic evaluator uses a bounded reformulation instead."""
    B = np.asarray(B, dtype=float)
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    phases = []
    factors = []
    for t in times:
        P, U = polar_decompose(expm(t * B))
        factors.append((P, U))
        phases.append(det_complex(complexify_orthosymplectic(U)))
    theta = lift_argument(np.asarray(phases))
    return [
        PolarSample(float(t), P, U, float(th))
        for t, (P, U), th in zip(times, factors, theta)
    ]
