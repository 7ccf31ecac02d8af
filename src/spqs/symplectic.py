"""Standard symplectic vector space, skew-symplectic matrices and rank-one generators.

Coordinates are ordered (p_1..p_n, q_1..q_n) throughout, so the form matrix is
Omega = [[0, I], [-I, 0]] and the Darboux basis is e_i = p-unit vectors,
f_i = q-unit vectors.  Every downstream block convention derives from this
ordering.
"""

from __future__ import annotations

import functools
import math
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


def _vectors(space: SymplecticSpace, x, y) -> tuple[np.ndarray, np.ndarray]:
    """x and y as float arrays; ValueError unless both are vectors of length 2n."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != (space.dim,) or y.shape != (space.dim,):
        raise ValueError(f"expected vectors of length {space.dim}, got {x.shape} and {y.shape}")
    return x, y


def omega(space: SymplecticSpace, x: np.ndarray, y: np.ndarray) -> float:
    """Evaluate omega(x, y) = x^T Omega y."""
    x, y = _vectors(space, x, y)
    n = space.n
    return float(x[:n] @ y[n:] - x[n:] @ y[:n])


def omega_adjoint(A: np.ndarray) -> np.ndarray:
    """The unique A^omega with omega(Ax, y) = omega(x, A^omega y).

    Equals Omega^{-1} A^T Omega; with the standard form this is an involution,
    and membership in the skew-symplectic algebra reads A = -A^omega.  Stacks
    (..., 2n, 2n) are taken matrix by matrix.
    """
    A = np.asarray(A, dtype=float)
    d = A.shape[-1] if A.ndim else 0
    if A.ndim < 2 or A.shape[-2] != d or d % 2:
        raise ValueError(f"expected a square even-dimensional matrix, got {A.shape}")
    index, sign = _block_swap(d)
    return (A.reshape(*A.shape[:-2], d * d).take(index, axis=-1) * sign).reshape(A.shape)


@functools.cache
def _block_swap(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Omega^{-1} A^T Omega on a flattened d x d matrix: the flat index of A^T with
    the halves swapped on both axes, and the +-1 signs of its blocks."""
    n = d // 2
    perm = np.r_[n:d, :n]
    sign = np.kron([[1.0, -1.0], [-1.0, 1.0]], np.ones((n, n)))
    return (perm * d + perm[:, None]).ravel(), sign.ravel()


@np.errstate(over="ignore", invalid="ignore")
def skew_defect(A: np.ndarray) -> float | np.ndarray:
    """max-norm of A + A^omega, relative to 1 + max|A|: a float for one matrix, and
    an array of one defect per matrix for a stack (m, 2n, 2n).  It is NaN exactly
    where the matrix has a non-finite entry, and inf where A + A^omega overflows."""
    A = np.asarray(A, dtype=float)
    d = A.shape[-1]
    flat = A.reshape(-1, d * d)
    index, sign = _block_swap(d)  # A + A^omega by one gather, as in omega_adjoint
    defect = np.abs(flat + flat.take(index, axis=1) * sign).max(axis=1) / (
        1.0 + np.abs(flat).max(axis=1))
    return float(defect[0]) if A.ndim == 2 else defect


@np.errstate(over="ignore")
def rescaled(f, x) -> float:
    """f(x) for f homogeneous of degree one, taken of x scaled by 2^-e (exact), 2^e just
    above max|x|, and scaled back: f's squares and sums stay finite where x's overflow."""
    e = np.frexp(np.abs(x).max())[1]
    return float(np.ldexp(f(np.ldexp(x, -e)), e))


@np.errstate(over="ignore")
def frobenius_norms(A) -> list[float]:
    """Frobenius norm of each matrix of the stack A, bit for bit that of np.linalg.norm on
    the matrix alone; where its squares overflow, it is `rescaled`."""
    A = np.asarray(A, dtype=float)
    F = A.reshape(len(A), math.prod(A.shape[1:]))
    r = np.sqrt((F[:, None, :] @ F[:, :, None])[:, 0, 0]).tolist()
    if math.inf in r:
        r = [rescaled(np.linalg.norm, f) if x == math.inf else x for x, f in zip(r, F)]
    return r


def _check_members(space: SymplecticSpace, A: np.ndarray) -> None:
    """Raise the error of the first matrix of the (m, 2n, 2n) stack A outside the
    algebra: a shape mismatch, non-finite entries, or a skew defect above SKEW_TOL."""
    d = space.dim
    if A.shape[1:] != (d, d):
        raise ValueError(f"matrix shape {A.shape[1:]} does not match space dimension {d}")
    defect = skew_defect(A)
    if not defect.max(initial=0.0) <= SKEW_TOL:  # the max propagates NaN
        worst = defect[np.argmax(~(defect <= SKEW_TOL))]  # the first failing matrix's defect
        if np.isnan(worst):
            raise SkewSymplecticityError("matrix has non-finite entries")
        raise SkewSymplecticityError(f"matrix is not skew-symplectic (defect {worst:.3e})")


@dataclass(frozen=True)
class SpElement:
    """A 2n x 2n real matrix with A = -A^omega.

    Immutable; checked at construction against SKEW_TOL, alone or in a `stack`.
    Supports the linear operations that keep it inside the algebra.
    """

    space: SymplecticSpace
    mat: np.ndarray

    def __post_init__(self):
        M = np.array(self.mat, dtype=float)
        _check_members(self.space, M[None])
        M.flags.writeable = False
        object.__setattr__(self, "mat", M)

    @classmethod
    def stack(cls, space: SymplecticSpace, mats) -> list["SpElement"]:
        """Elements of a sequence of matrices, checked as one stack that fails with
        its first failing matrix's error; each mat is a read-only row of one copy."""
        d = space.dim
        k = next((i for i, M in enumerate(mats) if np.shape(M) != (d, d)), len(mats))
        A = np.array(mats[:k], dtype=float).reshape(k, d, d)
        _check_members(space, A)
        if k < len(mats):
            _check_members(space, np.asarray(mats[k], dtype=float)[None])  # its shape error
        A.flags.writeable = False
        elements = [object.__new__(cls) for _ in A]
        for x, M in zip(elements, A):
            x.__dict__.update(space=space, mat=M)
        return elements

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
        r = float(np.linalg.norm(self.mat))  # bit for bit its row of frobenius_norms
        return r if r != np.inf else frobenius_norms(self.mat[None])[0]


def project_skew_symplectic(space: SymplecticSpace, A: np.ndarray) -> SpElement:
    """Orthogonal projection (A - A^omega)/2 onto the algebra."""
    return SpElement(space, skew_part(np.asarray(A, dtype=float)))


def skew_part(A: np.ndarray) -> np.ndarray:
    """(A - A^omega)/2 of a matrix or of each matrix of a stack."""
    return 0.5 * (A - omega_adjoint(A))


class RankOneKind(str, Enum):
    """The rank-one generators on vectors (xi, eta), from T_{xi,eta} x = omega(xi, x) eta:

        Y_{xi,eta} = T_{xi,xi} + T_{eta,eta}
        Z_{xi,eta} = T_{eta,xi} + T_{xi,eta}
    """

    Y = "Y"
    Z = "Z"


def rank_one_matrix(space: SymplecticSpace, kind: RankOneKind | str, xi, eta) -> np.ndarray:
    """Plain matrix of the Y or Z generator on (xi, eta); on stacked vectors
    (..., 2n), which broadcast against each other, the stack of the matrices."""
    kind = RankOneKind(kind)

    def t(x, e):  # T_{x,e} v = omega(x, v) e = e (Omega^T x . v)
        return e[..., :, None] * (x @ space.omega_matrix)[..., None, :]

    if kind is RankOneKind.Y:
        return t(xi, xi) + t(eta, eta)
    return t(eta, xi) + t(xi, eta)


def _rank_one_element(space: SymplecticSpace, kind: RankOneKind, xi, eta) -> SpElement:
    return SpElement(space, rank_one_matrix(space, kind, *_vectors(space, xi, eta)))


def y_element(space: SymplecticSpace, xi, eta) -> SpElement:
    return _rank_one_element(space, RankOneKind.Y, xi, eta)


def z_element(space: SymplecticSpace, xi, eta) -> SpElement:
    return _rank_one_element(space, RankOneKind.Z, xi, eta)


def standard_complex_structure(space: SymplecticSpace) -> np.ndarray:
    """J0 with J0 e_i = f_i, J0 f_i = -e_i; the sign makes omega(x, J0 x) > 0.
    Every compatible complex structure is Sp(2n, R)-conjugate to J0."""
    n = space.n
    J = np.zeros((2 * n, 2 * n))
    J[n:, :n] = np.eye(n)
    J[:n, n:] = -np.eye(n)
    return J


def random_sp_element(space: SymplecticSpace, scale: float, seed: SeedLike) -> SpElement:
    """Gaussian matrix projected to the algebra; deterministic per seed."""
    return project_skew_symplectic(space, _random_gaussian(space, scale, seed))


def _random_gaussian(space: SymplecticSpace, scale: float, seed: SeedLike) -> np.ndarray:
    if scale < 0:
        raise ValueError("scale must be non-negative")
    return scale * rng_from(seed).standard_normal((space.dim, space.dim))


def random_symplectic_group_element(
    space: SymplecticSpace, scale: float, seed: SeedLike
) -> np.ndarray:
    """exp(random_sp_element(space, scale, seed).mat), checked by `group_elements`."""
    (g,), (error,) = group_elements(space, _random_gaussian(space, scale, seed)[None])
    if error:
        raise error
    return g


def group_elements(space: SymplecticSpace, X: np.ndarray) -> tuple[np.ndarray, list]:
    """exp of the skew part of each matrix of the stack X, and for each the
    SymplecticDefectError of a group defect above GROUP_DEFECT_TOL, or None."""
    from scipy.linalg import expm

    g = expm(skew_part(X))
    O = space.omega_matrix
    defect = np.abs(g.swapaxes(1, 2) @ O @ g - O).max(axis=(1, 2))
    tol = GROUP_DEFECT_TOL * np.maximum(1.0, np.abs(g).max(axis=(1, 2)) ** 2)
    return g, [SymplecticDefectError(f"symplectic defect {e:.3e} exceeds tolerance; the "
                                     "exponential lost accuracy (reduce scale)") if e > t else None
               for e, t in zip(defect.tolist(), tol.tolist())]


@functools.cache
def _plane_blocks(n: int) -> np.ndarray:
    """Read-only (2, n, 2n, 2n) stack: Z_{e_k, f_k} and Y_{e_k, f_k} per plane k."""
    space, (E, F) = SymplecticSpace(n), np.eye(2 * n).reshape(2, n, 2 * n)
    blocks = np.stack([rank_one_matrix(space, k, E, F) for k in "ZY"])
    blocks.flags.writeable = False
    return blocks


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


def commuting_pair(space: SymplecticSpace, strategy: CommutingStrategy | str, seed: SeedLike,
                   base: SpElement | None = None) -> CommutingPair:
    """Draw a certified commuting pair: `commuting_pairs` of one `draw_commuting_pair`."""
    return commuting_pairs(space, [draw_commuting_pair(space, strategy, rng_from(seed), base)])[0]


def draw_commuting_pair(space: SymplecticSpace, strategy: CommutingStrategy | str,
                        rng: np.random.Generator, base: SpElement | None = None) -> tuple:
    """The random numbers of one commuting pair, read from rng: (strategy, X, ca, cb, kinds).

    common-frame: combinations ca and cb of one generator kind (Y or Z, by kinds) per
    Darboux plane in the random symplectic frame exp(X), so same-plane terms are
    proportional and cross-plane terms have disjoint support.  odd-polynomial: odd
    polynomials with coefficients ca and cb of X, which is `base` when given and a
    random draw otherwise.  Only the odd-polynomial strategy takes a base."""
    strategy = CommutingStrategy(strategy)
    n = space.n
    if strategy is CommutingStrategy.ODD_POLYNOMIAL:
        X = base.mat if base is not None else random_sp_element(space, 0.5, rng).mat
        ca = rng.uniform(-1.0, 1.0, max(1, min(n, 3)))
        return strategy, X, ca, rng.uniform(-1.0, 1.0, len(ca)), None
    if base is not None:
        raise ValueError("the common-frame strategy takes no base element")
    kinds = rng.integers(0, 2, size=n)  # 0 -> Z, 1 -> Y per plane
    ca = rng.uniform(-1.0, 1.0, n) * (rng.random(n) < 0.8)
    cb = rng.uniform(-1.0, 1.0, n) * (rng.random(n) < 0.8)
    return strategy, _random_gaussian(space, 0.5, rng), ca, cb, kinds


def commuting_pairs(space: SymplecticSpace, draws: list) -> list[CommutingPair]:
    """The certified pairs of draws of one strategy (`draw_commuting_pair`), built as
    one stack: one expm of the frames, one g D g^omega, one membership check and
    one commutator bound.  A failing draw raises the error that building the
    draws one at a time, in order, raises first."""
    if not draws:
        return []
    strategy, m, n = draws[0][0], len(draws), space.n
    X, ca, cb, kinds = (np.array(v) for v in list(zip(*draws))[1:])
    C = np.array([ca, cb]).transpose(2, 1, 0)[..., None, None]  # C[k]: the k-th coefficients
    if strategy is CommutingStrategy.ODD_POLYNOMIAL:
        X, errors = X[:, None], [None] * m  # odd powers stay in the algebra in theory
        mats, power, X2 = C[0] * X, X, X @ X  # sum_k C[k] X^(2k+1)
        for c in C[1:]:
            power = power @ X2
            mats = mats + c * power
    else:
        mats = np.zeros((m, 2, space.dim, space.dim))  # the two block-diagonal combinations
        for c, blk in zip(C, np.moveaxis(_plane_blocks(n)[kinds, range(n)], 1, 0)):
            mats += c * blk[:, None]
        g, errors = group_elements(space, X)
        mats = g[:, None] @ mats @ omega_adjoint(g)[:, None]
    mats = skew_part(mats)  # the projection scrubs roundoff
    norms = np.reshape(frobenius_norms(mats.reshape(2 * m, -1)), (m, 2))
    cnorm = np.abs(mats[:, 0] @ mats[:, 1] - mats[:, 1] @ mats[:, 0]).max(axis=(1, 2))
    bound = COMMUTATOR_TOL * (1.0 + norms[:, 0]) * (1.0 + norms[:, 1])
    k = next((t for t in range(m) if errors[t] or cnorm[t] > bound[t]), m)
    elements = SpElement.stack(space, mats[:k].reshape(-1, *mats.shape[2:]))  # the draws before k
    if k < m:
        if errors[k]:
            raise errors[k]
        SpElement.stack(space, mats[k])  # a draw's membership comes before its bound
        raise SamplingError(
            f"commutator defect {cnorm[k]:.3e} exceeds certificate bound {bound[k]:.3e}"
        )
    return [CommutingPair(a, b, strategy, c)
            for a, b, c in zip(elements[::2], elements[1::2], cnorm.tolist())]
