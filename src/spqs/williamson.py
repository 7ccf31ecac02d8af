"""Normal form of semi-simple skew-symplectic matrices: block classification
in a symplectic frame, oriented imaginary-pair parameters, and the pairwise
commuting Y/Z representation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .symplectic import (
    RankOneDescriptor,
    RankOneKind,
    SpElement,
    SymplecticSpace,
    omega,
    omega_adjoint,
    project_skew_symplectic,
    random_symplectic_group_element,
    realize,
    rng_from,
)

AXIS_BAND = 1e-8          # |Re| or |Im| below band*(1+|lambda|) counts as on-axis
EIGVEC_COND_MAX = 1e8     # semi-simplicity proxy
CLUSTER_TOL = 1e-7        # eigenvalues closer than this (relative) share a block
FRAME_SYMPLECTIC_TOL = 1e-8
ROUNDTRIP_TOL = 1e-6
COMMUTE_TOL = 1e-8


class NonSemisimpleError(RuntimeError):
    """Decomposition requested for an input without a clean eigenbasis."""


class ClassificationError(RuntimeError):
    """An eigenvalue sits inside the classification band of both axes."""


class NormalizationError(RuntimeError):
    """A candidate invariant plane could not be symplectically normalized."""


@dataclass(frozen=True)
class _EigGroup:
    kind: str               # "zero" | "real" | "imag" | "quad"
    indices: tuple          # eigenvalue indices with Im >= 0 representative(s)
    partner_indices: tuple  # paired indices (real: -a side; quad: +a+ib side)
    a: float
    b: float


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalue classification of a skew-symplectic matrix.

    real pairs carry a > 0; imaginary pairs the eigenvalue magnitude b > 0
    (orientation data lives in the decomposition, not here); quadruples carry
    a, b > 0; zeros are counted.  semi-simplicity is the eigenvector-condition
    proxy."""

    space: SymplecticSpace
    eigenvalues: np.ndarray
    real_pairs: tuple          # (a, multiplicity)
    imag_pairs: tuple          # (b, multiplicity)
    quadruples: tuple          # (a, b, multiplicity)
    zero_multiplicity: int
    semi_simple: bool
    eigvec_cond: float
    _groups: tuple = field(repr=False, default=())
    _vectors: np.ndarray = field(repr=False, default=None)


def _cluster(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Indices of `values` grouped by proximity (1-d single-linkage)."""
    if len(values) == 0:
        return []
    order = np.argsort(values)
    groups = [[order[0]]]
    for idx in order[1:]:
        if values[idx] - values[groups[-1][-1]] <= tol:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    return [np.asarray(g) for g in groups]


def classify_eigenstructure(B: SpElement) -> SpectrumReport:
    """Group the spectrum into real pairs, imaginary pairs, quadruples and
    zeros; flag semi-simplicity via the eigenvector condition number."""
    M = B.mat
    space = B.space
    lam, V = np.linalg.eig(M)
    scale = max(1.0, float(np.abs(lam).max()))
    ztol = AXIS_BAND * (1.0 + scale)
    ctol = CLUSTER_TOL * (1.0 + scale)

    sv = np.linalg.svd(V, compute_uv=False)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    semi_simple = bool(cond <= EIGVEC_COND_MAX)

    zero_idx, real_pos, real_neg, imag_pos, quad = [], [], [], [], []
    for i, z in enumerate(lam):
        band = AXIS_BAND * (1.0 + abs(z))
        on_real = abs(z.imag) <= band
        on_imag = abs(z.real) <= band
        if abs(z) <= ztol:
            zero_idx.append(i)
        elif on_real and on_imag:
            raise ClassificationError(
                f"eigenvalue {z:.3e} lies in the classification band of both axes"
            )
        elif on_real:
            (real_pos if z.real > 0 else real_neg).append(i)
        elif on_imag:
            if z.imag > 0:
                imag_pos.append(i)
        else:
            if z.real < 0 and z.imag > 0:
                quad.append(i)

    groups = []

    def _match_clusters(keys_a, idx_a, keys_b, idx_b, what):
        ca = _cluster(keys_a, ctol)
        cb = _cluster(keys_b, ctol)
        if len(ca) != len(cb) or any(len(x) != len(y) for x, y in zip(ca, cb)):
            raise ClassificationError(f"unmatched {what} eigenvalue clusters")
        return [
            (np.asarray(idx_a)[x], np.asarray(idx_b)[y]) for x, y in zip(ca, cb)
        ]

    if real_pos or real_neg:
        for pos, neg in _match_clusters(
            np.array([lam[i].real for i in real_pos]),
            real_pos,
            np.array([-lam[i].real for i in real_neg]),
            real_neg,
            "real-pair",
        ):
            a = float(np.mean(lam[pos].real))
            groups.append(_EigGroup("real", tuple(pos), tuple(neg), a, 0.0))

    for cl in _cluster(np.array([lam[i].imag for i in imag_pos]), ctol):
        idx = tuple(np.asarray(imag_pos)[cl])
        b = float(np.mean(lam[list(idx)].imag))
        groups.append(_EigGroup("imag", idx, (), 0.0, b))

    if quad:
        # pair lambda = -a+ib with +a+ib among the remaining eigenvalues
        partner_pool = [
            i
            for i, z in enumerate(lam)
            if z.real > AXIS_BAND * (1 + abs(z)) and z.imag > AXIS_BAND * (1 + abs(z))
        ]
        keys = np.array([complex(-lam[i].real, lam[i].imag) for i in quad])
        pkeys = np.array([lam[i] for i in partner_pool])
        order_q = np.lexsort((keys.imag, keys.real))
        order_p = np.lexsort((pkeys.imag, pkeys.real))
        if len(order_q) != len(order_p):
            raise ClassificationError("unmatched quadruple eigenvalues")
        qs = np.asarray(quad)[order_q]
        ps = np.asarray(partner_pool)[order_p]
        if np.abs(keys[order_q] - pkeys[order_p]).max(initial=0.0) > 10 * ctol:
            raise ClassificationError("quadruple eigenvalues do not pair up")
        i = 0
        while i < len(qs):
            j = i + 1
            while j < len(qs) and abs(keys[order_q][j] - keys[order_q][i]) <= ctol:
                j += 1
            grp = qs[i:j]
            par = ps[i:j]
            a = float(np.mean(-lam[grp].real))
            b = float(np.mean(lam[grp].imag))
            groups.append(_EigGroup("quad", tuple(grp), tuple(par), a, b))
            i = j

    return SpectrumReport(
        space=space,
        eigenvalues=lam,
        real_pairs=tuple((g.a, len(g.indices)) for g in groups if g.kind == "real"),
        imag_pairs=tuple((g.b, len(g.indices)) for g in groups if g.kind == "imag"),
        quadruples=tuple(
            (g.a, g.b, len(g.indices)) for g in groups if g.kind == "quad"
        ),
        zero_multiplicity=len(zero_idx),
        semi_simple=semi_simple,
        eigvec_cond=cond,
        _groups=tuple(groups) + (
            (_EigGroup("zero", tuple(zero_idx), (), 0.0, 0.0),) if zero_idx else ()
        ),
        _vectors=V,
    )


def _omega_form(space: SymplecticSpace, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Matrix of omega between two column families (complex-bilinear)."""
    return X.T @ (space.omega_matrix @ Y)


def krein_parameters(B: SpElement, report: SpectrumReport | None = None) -> list[float]:
    """Signed imaginary-pair parameters (one per invariant plane): +b when the
    normalized plane carries the positively oriented block, -b otherwise."""
    report = report or classify_eigenstructure(B)
    return [
        beta
        for g in report._groups
        if g.kind == "imag"
        for beta, _, _ in _planes_imag(B.space, report._vectors, g)
    ]


@dataclass(frozen=True)
class WilliamsonBlock:
    """One normal-form block: kind 'real' ([[ -a, 0], [0, a]] on a plane),
    'imag' ([[0, b], [-b, 0]], b signed by orientation) or 'quad' (the 4x4
    two-plane block with parameters a, b > 0).  Plane indices are 0-based."""

    kind: str
    a: float
    b: float
    planes: tuple


@dataclass(frozen=True)
class WilliamsonDecomposition:
    space: SymplecticSpace
    S: np.ndarray
    blocks: tuple

    def assemble(self) -> np.ndarray:
        """Block-diagonal matrix D with B = S D S^{-1}."""
        n = self.space.n
        D = np.zeros((2 * n, 2 * n))
        for blk in self.blocks:
            if blk.kind == "real":
                (k,) = blk.planes
                D[k, k] = -blk.a
                D[n + k, n + k] = blk.a
            elif blk.kind == "imag":
                (k,) = blk.planes
                D[k, n + k] = blk.b
                D[n + k, k] = -blk.b
            else:
                k, l = blk.planes
                a, b = blk.a, blk.b
                idx = [k, l, n + k, n + l]
                Q = np.array(
                    [[-a, b, 0, 0], [-b, -a, 0, 0], [0, 0, a, b], [0, 0, -b, a]]
                )
                for r, ri in enumerate(idx):
                    for c, ci in enumerate(idx):
                        D[ri, ci] += Q[r, c]
        return D

    def frame_vectors(self, plane: int) -> tuple[np.ndarray, np.ndarray]:
        """(e, f) columns of S for one plane."""
        return self.S[:, plane], self.S[:, self.space.n + plane]


def _realify_eigenspace(V: np.ndarray, m: int) -> np.ndarray:
    """Real orthonormal basis (2n x m) of the span of Re/Im of complex columns."""
    stacked = np.hstack([V.real, V.imag])
    Q, s, _ = np.linalg.svd(stacked, full_matrices=False)
    rank = int(np.sum(s > s[0] * 1e-10))
    if rank != m:
        raise NormalizationError(
            f"real eigenspace rank {rank} does not match multiplicity {m}"
        )
    return Q[:, :m]


def _planes_real(space, V, g) -> list[tuple[np.ndarray, np.ndarray]]:
    Vm = _realify_eigenspace(V[:, list(g.partner_indices)], len(g.partner_indices))
    Vp = _realify_eigenspace(V[:, list(g.indices)], len(g.indices))
    G = _omega_form(space, Vm, Vp).real
    if abs(np.linalg.det(G)) < 1e-12:
        raise NormalizationError("degenerate pairing on a real eigenvalue pair")
    F = Vp @ np.linalg.inv(G)
    return [(Vm[:, j], F[:, j]) for j in range(Vm.shape[1])]


def _planes_imag(space, V, g):
    """[(beta_signed, e, f)] for one imaginary group: the eigenvalue signs of
    the Hermitian pairing (i/2) omega(w_j, conj(w_k)) orient the planes."""
    W = V[:, list(g.indices)]
    mu, T = np.linalg.eigh(0.5j * _omega_form(space, W, W.conj()))
    if np.abs(mu).min() <= 1e-10 * max(1.0, np.abs(mu).max()):
        raise NormalizationError("degenerate orientation pairing")
    out = []
    for j in range(len(mu)):
        w = (W @ T[:, j]) / np.sqrt(abs(mu[j]))
        u, v = w.real, w.imag
        if mu[j] > 0:
            out.append((g.b, u, v))
        else:
            out.append((-g.b, v, u))
    return out


def _planes_quad(space, V, g):
    """[((e_k, f_k), (e_l, f_l))] two-plane frames for one quadruple group."""
    W1 = V[:, list(g.indices)]
    W2 = V[:, list(g.partner_indices)]
    P = _omega_form(space, W1, W2.conj())
    if abs(np.linalg.det(P)) < 1e-12:
        raise NormalizationError("degenerate pairing on a quadruple")
    W2 = W2 @ np.conj(2.0 * np.linalg.inv(P))
    out = []
    for j in range(W1.shape[1]):
        w1, w2 = W1[:, j], W2[:, j]
        out.append(((w1.real, w2.real), (w1.imag, w2.imag)))
    return out


def _planes_zero(space, B) -> list[tuple[np.ndarray, np.ndarray]]:
    M = B.mat
    _, s, Vt = np.linalg.svd(M)
    scale = max(1.0, s[0])
    kernel = [Vt[i] for i in range(len(s)) if s[i] <= AXIS_BAND * scale]
    planes = []
    vecs = list(kernel)
    while vecs:
        x = vecs.pop(0)
        if not vecs:
            raise NormalizationError("odd-dimensional kernel remainder")
        pair = np.array([omega(space, x, y) for y in vecs])
        j = int(np.argmax(np.abs(pair)))
        if abs(pair[j]) < 1e-10:
            raise NormalizationError("kernel plane with vanishing pairing")
        f = vecs.pop(j) / pair[j]
        planes.append((x, f))
        vecs = [
            v - omega(space, v, f) * x + omega(space, v, x) * f for v in vecs
        ]
    return planes


def williamson_decompose(B: SpElement) -> WilliamsonDecomposition:
    """Symplectic frame S and typed blocks with B = S D S^{-1}.

    Blocks are sorted by kind (real, imag, quad) then parameter magnitude,
    ties by smallest originating eigenvalue index; imaginary parameters carry
    the plane orientation in their sign, so b and -b blocks are distinct.
    """
    report = classify_eigenstructure(B)
    if not report.semi_simple:
        raise NonSemisimpleError(
            f"eigenvector condition {report.eigvec_cond:.3e} exceeds "
            f"{EIGVEC_COND_MAX:.1e}"
        )
    space = B.space
    V = report._vectors

    entries = []  # (sort_key, orig_index, kind, a, b, [(e, f), ...])
    for g in report._groups:
        orig = min(g.indices) if g.indices else 0
        if g.kind == "real":
            for e, f in _planes_real(space, V, g):
                entries.append(((0, abs(g.a), 0.0), orig, "real", g.a, 0.0, [(e, f)]))
        elif g.kind == "imag":
            for beta, e, f in _planes_imag(space, V, g):
                entries.append(((1, abs(beta), 0.0), orig, "imag", 0.0, beta, [(e, f)]))
        elif g.kind == "quad":
            for (ek, fk), (el, fl) in _planes_quad(space, V, g):
                entries.append(
                    ((2, g.a, g.b), orig, "quad", g.a, g.b, [(ek, fk), (el, fl)])
                )
        else:  # zero planes enter as real blocks with a = 0
            for e, f in _planes_zero(space, B):
                entries.append(((0, 0.0, 0.0), orig, "real", 0.0, 0.0, [(e, f)]))

    entries.sort(key=lambda t: (t[0], t[1]))

    n = space.n
    S = np.zeros((2 * n, 2 * n))
    blocks = []
    plane = 0
    for _, _, kind, a, b, frames in entries:
        planes = tuple(range(plane, plane + len(frames)))
        for p, (e, f) in zip(planes, frames):
            S[:, p] = e
            S[:, n + p] = f
        blocks.append(WilliamsonBlock(kind=kind, a=a, b=b, planes=planes))
        plane += len(frames)
    if plane != n:
        raise NormalizationError(f"planes cover {plane} of {n} slots")

    dec = WilliamsonDecomposition(space=space, S=S, blocks=tuple(blocks))
    O = space.omega_matrix
    sdef = float(np.abs(S.T @ O @ S - O).max())
    if sdef > FRAME_SYMPLECTIC_TOL:
        raise NormalizationError(f"frame symplectic defect {sdef:.3e}")
    resid = np.abs(S @ dec.assemble() @ omega_adjoint(S) - B.mat).max()
    if resid > ROUNDTRIP_TOL * max(1.0, np.abs(B.mat).max()):
        raise NormalizationError(f"round-trip residual {resid:.3e}")
    return dec


def yz_decomposition(
    B: SpElement, decomposition: WilliamsonDecomposition | None = None
) -> list[tuple[float, RankOneDescriptor]]:
    """Pairwise commuting rank-one terms summing to B.

    real block -> a * Z on its plane; imaginary block -> b * Y; a quadruple on
    planes (k, l) contributes a Z on each plane and two opposite-sign Y terms
    on the sqrt(2)-normalized mixed vectors.
    """
    dec = decomposition or williamson_decompose(B)
    space = dec.space
    terms: list[tuple[float, RankOneDescriptor]] = []
    block_of = []  # block index per term, for the commutation checks
    for bi, blk in enumerate(dec.blocks):
        if blk.kind == "real":
            e, f = dec.frame_vectors(blk.planes[0])
            terms.append((blk.a, RankOneDescriptor(space, RankOneKind.Z, e, f)))
            block_of.append(bi)
        elif blk.kind == "imag":
            e, f = dec.frame_vectors(blk.planes[0])
            terms.append((blk.b, RankOneDescriptor(space, RankOneKind.Y, e, f)))
            block_of.append(bi)
        else:
            k, l = blk.planes
            ek, fk = dec.frame_vectors(k)
            el, fl = dec.frame_vectors(l)
            r2 = np.sqrt(2.0)
            terms.append((blk.a, RankOneDescriptor(space, RankOneKind.Z, ek, fk)))
            terms.append((blk.a, RankOneDescriptor(space, RankOneKind.Z, el, fl)))
            terms.append(
                (-blk.b, RankOneDescriptor(space, RankOneKind.Y, (el - fk) / r2, (ek + fl) / r2))
            )
            terms.append(
                (blk.b, RankOneDescriptor(space, RankOneKind.Y, (ek - fl) / r2, (el + fk) / r2))
            )
            block_of.extend([bi] * 4)

    total = np.zeros_like(B.mat)
    mats = []
    for c, desc in terms:
        M = realize(desc).mat
        mats.append(M)
        total = total + c * M
    resid = np.abs(total - B.mat).max()
    if resid > ROUNDTRIP_TOL * max(1.0, np.abs(B.mat).max()):
        raise NormalizationError(f"term sum residual {resid:.3e}")

    def _comm(X, Y):
        return np.abs(X @ Y - Y @ X).max()

    def _tol(X, Y):
        return COMMUTE_TOL * max(1.0, np.abs(X).max() * np.abs(Y).max())

    # Terms of distinct blocks commute outright.  Inside a quadruple group the
    # four terms only satisfy the three relations: the Z-sum commutes with the
    # signed Y-combination, the two Z's commute, and the two Y's commute.
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if block_of[i] == block_of[j]:
                continue
            if _comm(mats[i], mats[j]) > _tol(mats[i], mats[j]):
                raise NormalizationError(f"terms {i}, {j} fail to commute")
    start = 0
    for bi, blk in enumerate(dec.blocks):
        count = 4 if blk.kind == "quad" else 1
        if blk.kind == "quad":
            z1, z2, y1, y2 = mats[start : start + 4]
            zsum = blk.a * (z1 + z2)
            ycomb = blk.b * (y2 - y1)
            for lhs, rhs in ((zsum, ycomb), (z1, z2), (y1, y2)):
                if _comm(lhs, rhs) > _tol(lhs, rhs):
                    raise NormalizationError(
                        f"quadruple relations fail on block {bi}"
                    )
        start += count
    return terms


def random_semisimple(
    space: SymplecticSpace,
    seed,
    scale: float = 0.4,
    param_range: tuple[float, float] = (0.3, 2.0),
    kinds: tuple = ("real", "imag", "quad"),
) -> tuple[SpElement, list[WilliamsonBlock]]:
    """Random semi-simple element with known block content: draw typed blocks
    with parameters in param_range, then conjugate by a random symplectic
    matrix.  Returns the element and its generating blocks (canonical truth
    for round-trip tests)."""
    rng = rng_from(seed)
    n = space.n
    lo, hi = param_range
    blocks = []
    plane = 0
    while plane < n:
        kind = rng.choice([k for k in kinds if k != "quad" or plane + 1 < n])
        if kind == "quad":
            a, b = rng.uniform(lo, hi, 2)
            blocks.append(WilliamsonBlock("quad", float(a), float(b), (plane, plane + 1)))
            plane += 2
        elif kind == "imag":
            b = rng.uniform(lo, hi) * rng.choice([-1.0, 1.0])
            blocks.append(WilliamsonBlock("imag", 0.0, float(b), (plane,)))
            plane += 1
        else:
            a = rng.uniform(lo, hi)
            blocks.append(WilliamsonBlock("real", float(a), 0.0, (plane,)))
            plane += 1
    D = WilliamsonDecomposition(space, np.eye(2 * n), tuple(blocks)).assemble()
    g = random_symplectic_group_element(space, scale, rng)
    M = g @ D @ omega_adjoint(g)
    return project_skew_symplectic(space, M), blocks
