"""Standard symplectic vector space, skew-symplectic matrices and rank-one generators.

Coordinates are ordered (p_1..p_n, q_1..q_n) throughout, so the form matrix is
Omega = [[0, I], [-I, 0]] and the Darboux basis is e_i = p-unit vectors,
f_i = q-unit vectors.  Every downstream block convention derives from this
ordering.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from typing import Union

import numpy as np

SKEW_TOL = 1e-10          # relative skew-symplecticity tolerance at construction
GROUP_DEFECT_TOL = 1e-8   # |g^T Omega g - Omega| for generated group elements
COMMUTATOR_TOL = 1e-9     # certificate bound for commuting pairs

SeedLike = Union[int, np.random.Generator]


class SkewSymplecticityError(ValueError):
    """Matrix fails the A = -A^omega membership check."""


class SymplecticDefectError(RuntimeError):
    """A generated group element failed the g^T Omega g = Omega check."""


class SamplingError(RuntimeError):
    """A seeded draw failed its certificate; another seed may succeed."""


def rng_from(seed: SeedLike) -> np.random.Generator:
    """Counter-based generator; a fixed integer seed gives the same stream on
    every platform."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(seed))


@functools.cache
def _omega_matrix(n: int) -> np.ndarray:
    """Omega of R^{2n}, built once per n and shared read-only."""
    O = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    O.flags.writeable = False
    return O


@dataclass(frozen=True)
class SymplecticSpace:
    """(R^{2n}, omega) with the standard form in (p, q) ordering."""

    n: int
    omega_matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"half-dimension must be positive, got {self.n}")
        object.__setattr__(self, "omega_matrix", _omega_matrix(self.n))

    @property
    def dim(self) -> int:
        return 2 * self.n

    def basis_e(self, i: int) -> np.ndarray:
        """Darboux vector e_i (0-based plane index)."""
        v = np.zeros(self.dim)
        v[i] = 1.0
        return v

    def basis_f(self, i: int) -> np.ndarray:
        """Darboux vector f_i (0-based plane index)."""
        v = np.zeros(self.dim)
        v[self.n + i] = 1.0
        return v


def omega(space: SymplecticSpace, x: np.ndarray, y: np.ndarray) -> float:
    """Evaluate omega(x, y) = x^T Omega y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (space.dim,) or y.shape != (space.dim,):
        raise ValueError(
            f"expected vectors of length {space.dim}, got {x.shape} and {y.shape}"
        )
    n = space.n
    return float(x[:n] @ y[n:] - x[n:] @ y[:n])


def omega_adjoint(A: np.ndarray) -> np.ndarray:
    """The unique A^omega with omega(Ax, y) = omega(x, A^omega y).

    Equals Omega^{-1} A^T Omega; with the standard form this is an involution,
    and membership in the skew-symplectic algebra reads A = -A^omega.
    """
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    if A.shape != (d, d) or d % 2:
        raise ValueError(f"expected a square even-dimensional matrix, got {A.shape}")
    # Omega^{-1} A^T Omega: A^T, halves swapped on both axes, off-diagonal blocks negated
    perm, sign = _block_swap(d)
    return A.T[perm[:, None], perm] * sign


@functools.cache
def _block_swap(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The index that swaps the halves of 0..d-1, and the +-1 block signs."""
    n = d // 2
    return np.r_[n:d, :n], np.kron([[1.0, -1.0], [-1.0, 1.0]], np.ones((n, n)))


def skew_defect(A: np.ndarray) -> float:
    """max-norm of A + A^omega, relative to 1 + max|A|."""
    A = np.asarray(A, dtype=float)
    return float(np.abs(A + omega_adjoint(A)).max() / (1.0 + np.abs(A).max()))


@dataclass(frozen=True)
class SpElement:
    """A 2n x 2n real matrix with A = -A^omega.

    Immutable; checked at construction against SKEW_TOL.  Supports the linear
    operations that keep it inside the algebra.
    """

    space: SymplecticSpace
    mat: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.mat, dtype=float)
        if M.shape != (self.space.dim, self.space.dim):
            raise ValueError(
                f"matrix shape {M.shape} does not match space dimension {self.space.dim}"
            )
        if not np.all(np.isfinite(M)):
            raise SkewSymplecticityError("matrix has non-finite entries")
        if skew_defect(M) > SKEW_TOL:
            raise SkewSymplecticityError(
                f"matrix is not skew-symplectic (defect {skew_defect(M):.3e})"
            )
        M = M.copy()
        M.flags.writeable = False
        object.__setattr__(self, "mat", M)

    def __add__(self, other: "SpElement") -> "SpElement":
        return SpElement(self.space, self.mat + other.mat)

    def __sub__(self, other: "SpElement") -> "SpElement":
        return SpElement(self.space, self.mat - other.mat)

    def __neg__(self) -> "SpElement":
        return SpElement(self.space, -self.mat)

    def __rmul__(self, c: float) -> "SpElement":
        return SpElement(self.space, float(c) * self.mat)

    @np.errstate(over="ignore")
    def norm(self) -> float:
        r = float(np.linalg.norm(self.mat))
        if r == np.inf:  # the squares overflowed: scale by 2^-e first, which is exact
            e = np.frexp(np.abs(self.mat).max())[1]
            r = float(np.ldexp(np.linalg.norm(np.ldexp(self.mat, -e)), e))
        return r

    def commutator_norm(self, other: "SpElement") -> float:
        M, N = self.mat, other.mat
        return float(np.abs(M @ N - N @ M).max())


def project_skew_symplectic(space: SymplecticSpace, A: np.ndarray) -> SpElement:
    """Orthogonal projection (A - A^omega)/2 onto the algebra."""
    A = np.asarray(A, dtype=float)
    return SpElement(space, 0.5 * (A - omega_adjoint(A)))


class RankOneKind(str, Enum):
    T = "T"
    Y = "Y"
    Z = "Z"


@dataclass(frozen=True)
class RankOneDescriptor:
    """Vectors (xi, eta) plus a tag naming one of the generators

        T_{xi,eta} x = omega(xi, x) eta
        Y_{xi,eta}   = T_{xi,xi} + T_{eta,eta}
        Z_{xi,eta}   = T_{eta,xi} + T_{xi,eta}
    """

    space: SymplecticSpace
    kind: RankOneKind
    xi: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        eta = np.asarray(self.eta, dtype=float)
        if xi.shape != (self.space.dim,) or eta.shape != (self.space.dim,):
            raise ValueError("descriptor vectors must match the space dimension")
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "kind", RankOneKind(self.kind))


def _t_matrix(space: SymplecticSpace, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    # T_{xi,eta} x = omega(xi, x) eta = eta (Omega^T xi . x)
    return np.outer(eta, space.omega_matrix.T @ xi)


def realize(desc: RankOneDescriptor):
    """Matrix of the descriptor's operator.

    Y and Z realizations are returned as SpElement; T is a plain matrix unless
    xi = eta (only then it lies in the algebra).
    """
    sp, xi, eta = desc.space, desc.xi, desc.eta
    if desc.kind is RankOneKind.T:
        M = _t_matrix(sp, xi, eta)
        if np.array_equal(xi, eta):
            return SpElement(sp, M)
        return M
    if desc.kind is RankOneKind.Y:
        M = _t_matrix(sp, xi, xi) + _t_matrix(sp, eta, eta)
    else:
        M = _t_matrix(sp, eta, xi) + _t_matrix(sp, xi, eta)
    return SpElement(sp, M)


def y_element(space: SymplecticSpace, xi, eta) -> SpElement:
    return realize(RankOneDescriptor(space, RankOneKind.Y, xi, eta))


def z_element(space: SymplecticSpace, xi, eta) -> SpElement:
    return realize(RankOneDescriptor(space, RankOneKind.Z, xi, eta))


@dataclass(frozen=True)
class CompatibleComplexStructure:
    """J with J^2 = -I such that omega(., J.) is an inner product."""

    space: SymplecticSpace
    mat: np.ndarray

    def __post_init__(self):
        J = np.asarray(self.mat, dtype=float)
        d = self.space.dim
        if J.shape != (d, d):
            raise ValueError("J shape does not match the space")
        if np.abs(J @ J + np.eye(d)).max() > 1e-8:
            raise ValueError("J^2 = -I fails")
        G = self.space.omega_matrix @ J
        if np.abs(G - G.T).max() > 1e-8:
            raise ValueError("omega(., J.) is not symmetric")
        if np.linalg.eigvalsh(0.5 * (G + G.T)).min() <= 0:
            raise ValueError("omega(., J.) is not positive-definite")
        J = J.copy()
        J.flags.writeable = False
        object.__setattr__(self, "mat", J)


def standard_complex_structure(space: SymplecticSpace) -> CompatibleComplexStructure:
    """J0 with J0 e_i = f_i, J0 f_i = -e_i; the sign makes omega(x, J0 x) > 0."""
    n = space.n
    J = np.zeros((2 * n, 2 * n))
    J[n:, :n] = np.eye(n)
    J[:n, n:] = -np.eye(n)
    return CompatibleComplexStructure(space, J)


def random_sp_element(space: SymplecticSpace, scale: float, seed: SeedLike) -> SpElement:
    """Gaussian matrix projected to the algebra; deterministic per seed."""
    if scale < 0:
        raise ValueError("scale must be non-negative")
    rng = rng_from(seed)
    A = scale * rng.standard_normal((space.dim, space.dim))
    return project_skew_symplectic(space, A)


def random_symplectic_group_element(
    space: SymplecticSpace, scale: float, seed: SeedLike
) -> np.ndarray:
    """exp(A) for a random algebra element A; checked against GROUP_DEFECT_TOL."""
    from scipy.linalg import expm

    A = random_sp_element(space, scale, seed)
    g = expm(A.mat)
    O = space.omega_matrix
    defect = np.abs(g.T @ O @ g - O).max()
    if defect > GROUP_DEFECT_TOL * max(1.0, np.abs(g).max() ** 2):
        raise SymplecticDefectError(
            f"symplectic defect {defect:.3e} exceeds tolerance; "
            "the exponential lost accuracy (reduce scale)"
        )
    return g


class CommutingStrategy(str, Enum):
    COMMON_FRAME = "common-frame"
    ODD_POLYNOMIAL = "odd-polynomial"


@dataclass(frozen=True)
class CommutingPair:
    """Two commuting algebra elements plus the numerical certificate."""

    a: SpElement
    b: SpElement
    strategy: CommutingStrategy
    commutator_norm: float


def _odd_polynomial_value(A: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] A^{2k+1}; odd powers stay inside the algebra."""
    A2 = A @ A
    out = coeffs[0] * A
    power = A
    for c in coeffs[1:]:
        power = power @ A2
        out = out + c * power
    return out


def commuting_pair(
    space: SymplecticSpace,
    strategy: CommutingStrategy | str,
    seed: SeedLike,
    base: "SpElement | None" = None,
) -> CommutingPair:
    """Draw a certified commuting pair.

    common-frame: two block-diagonal combinations in a shared random symplectic
    frame, one generator kind (Y or Z) per Darboux plane, so same-plane terms
    are proportional and cross-plane terms have disjoint support.

    odd-polynomial: p(A), q(A) for random odd polynomials of one element
    (`base` when given, a random draw otherwise); odd powers of a
    skew-symplectic matrix remain skew-symplectic.
    """
    strategy = CommutingStrategy(strategy)
    rng = rng_from(seed)
    n = space.n

    if strategy is CommutingStrategy.ODD_POLYNOMIAL:
        A = base if base is not None else random_sp_element(space, 0.5, rng)
        deg = max(1, min(n, 3))
        ca = rng.uniform(-1.0, 1.0, deg)
        cb = rng.uniform(-1.0, 1.0, deg)
        Ma = _odd_polynomial_value(A.mat, ca)
        Mb = _odd_polynomial_value(A.mat, cb)
        pa = project_skew_symplectic(space, Ma)  # exact in theory; scrubs roundoff
        pb = project_skew_symplectic(space, Mb)
    else:
        kinds = rng.integers(0, 2, size=n)  # 0 -> Z, 1 -> Y per plane
        ca = rng.uniform(-1.0, 1.0, n) * (rng.random(n) < 0.8)
        cb = rng.uniform(-1.0, 1.0, n) * (rng.random(n) < 0.8)
        Da = np.zeros((space.dim, space.dim))
        Db = np.zeros((space.dim, space.dim))
        for k in range(n):
            element = y_element if kinds[k] else z_element
            blk = element(space, space.basis_e(k), space.basis_f(k)).mat
            Da += ca[k] * blk
            Db += cb[k] * blk
        g = random_symplectic_group_element(space, 0.5, rng)
        ginv = omega_adjoint(g)
        pa = project_skew_symplectic(space, g @ Da @ ginv)
        pb = project_skew_symplectic(space, g @ Db @ ginv)

    cnorm = pa.commutator_norm(pb)
    bound = COMMUTATOR_TOL * (1.0 + pa.norm()) * (1.0 + pb.norm())
    if cnorm > bound:
        raise SamplingError(
            f"commutator defect {cnorm:.3e} exceeds certificate bound {bound:.3e}"
        )
    return CommutingPair(pa, pb, strategy, cnorm)
