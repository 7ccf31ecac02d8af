"""Normal form of semi-simple skew-symplectic matrices: block classification
in a symplectic frame, oriented imaginary-pair parameters, and the pairwise
commuting Y/Z representation."""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .symplectic import (
    RankOneKind,
    SpElement,
    SymplecticSpace,
    _random_gaussian,
    group_elements,
    omega_adjoint,
    rank_one_matrix,
    rng_from,
    skew_part,
)

AXIS_BAND = 1e-8          # |Re| or |Im| below band*(1+|lambda|) counts as on-axis
EIGVEC_COND_MAX = 1e8     # semi-simplicity proxy
CLUSTER_TOL = 1e-7        # eigenvalues closer than this (relative) share a block
FRAME_SYMPLECTIC_TOL = 1e-8
ROUNDTRIP_TOL = 1e-6
COMMUTE_TOL = 1e-8
SEMISIMPLE_PARAM_RANGE = (0.3, 2.0)  # block parameters drawn by random_semisimple
SEMISIMPLE_FRAME_SCALE = 0.4         # scale of its random symplectic frame
BLOCK_KINDS = ("real", "imag", "quad")  # normal-form block kinds, in block order
_GROUP_KINDS = (*BLOCK_KINDS, "zero")  # eigenvalue group kinds, in group order


class NonSemisimpleError(RuntimeError):
    """Decomposition requested for an input without a clean eigenbasis."""


class ClassificationError(RuntimeError):
    """The real or quadruple eigenvalue clusters do not pair up."""


class NormalizationError(RuntimeError):
    """A candidate invariant plane could not be symplectically normalized."""


def eigvec_condition(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(condition number, semi-simple flag) of each eigenvector matrix in the
    stack V: the ratio of its extreme singular values (inf when singular),
    and whether that is at most EIGVEC_COND_MAX."""
    sv = np.linalg.svd(V, compute_uv=False)
    big, small = sv[..., 0], sv[..., -1]
    cond = np.divide(big, small, out=np.full(small.shape, np.inf), where=small > 0)
    return cond, cond <= EIGVEC_COND_MAX


class _Ranked(NamedTuple):
    """Each kind k's eigenvalues in each row by ascending (real, imag) key, ties
    by index: order[k, row] and keys[k, row] hold their indices and keys (then
    _PAST), past[k, row] marks the positions after them, and start[k, row, j]
    whether position j starts a single-linkage cluster (True from there on)."""

    order: np.ndarray
    keys: np.ndarray
    past: np.ndarray
    start: np.ndarray


def _rank(keys: np.ndarray, member: np.ndarray, ctol: np.ndarray) -> _Ranked:
    """Rank the member keys of each (kind, row); clusters break at gaps > ctol."""
    keys = np.where(member, keys, _PAST)
    order = keys.argsort(axis=-1, kind="stable")
    keys.sort(axis=-1)
    past = keys == _PAST
    start = np.empty(keys.shape[:-1] + (keys.shape[-1] + 1,), dtype=bool)
    start[..., :: keys.shape[-1]] = True  # positions 0 and d
    np.greater(abs(keys[..., 1:] - keys[..., :-1]), ctol, out=start[..., 1:-1])
    start[..., 1:-1] |= past[..., 1:]
    return _Ranked(order, keys, past, start)


def _check_pairing(r: _Ranked, ctol: np.ndarray, semi_simple: np.ndarray) -> None:
    """Raise ClassificationError at the first semi-simple row whose clusters of kind
    1 (4) do not pair up in order with kind 2 (5): equal sizes, keys within 10 ctol."""
    a, b = slice(_REAL_POS, None, 3), slice(_REAL_NEG, None, 3)  # kinds 1, 4 and 2, 5
    unmatched = (r.past[a] != r.past[b]) | (r.start[a] != r.start[b])[..., :-1]
    fault = unmatched | (abs(r.keys[a] - r.keys[b]) > 10 * ctol)
    bad = semi_simple & fault.any(axis=(0, 2))
    if bad.any():
        row = bad.argmax()
        k, what = (0, "real-pair") if fault[0, row].any() else (1, "quadruple")
        raise ClassificationError(f"unmatched {what} eigenvalue clusters" if unmatched[k, row].any()
                                  else f"{what} eigenvalues do not pair up")


@dataclass(eq=False)
class SpectrumStack:
    """A stack's classification: each element's eigenvalues lam and eigenvectors V, their
    condition and semi-simple flag, and every kind's ranked keys, whose eigenvalue groups
    `clusters` enumerates."""

    elements: tuple  # the classified SpElements
    lam: np.ndarray
    V: np.ndarray
    eigvec_cond: np.ndarray
    semi_simple: np.ndarray
    ranked: _Ranked

    def __len__(self) -> int:
        return len(self.lam)

    def clusters(self, kinds: tuple = _GROUP_KINDS) -> list[tuple]:
        """The eigenvalue groups of the semi-simple rows: per kind asked for (_GROUP_KINDS
        order) and group size k, the kind, each group's row and ranked position, its (c, k)
        eigenvalue indices p (real: +a side; quad: -a+ib) and partners q (real: -a side;
        quad: +a+ib; None for the other kinds), its a and b, and the (c, 2n, k) eigenvector
        columns W of p and Wq of q (None with q), groups in row order."""
        r, out, skip = self.ranked, [], ~self.semi_simple[:, None]
        for k, kind in zip((_REAL_POS, _IMAG, _QUAD, _ZERO), _GROUP_KINDS):
            if kind not in kinds:
                continue
            past = r.past[k] | skip
            rows, cols = (r.start[k, :, :-1] > past).nonzero()  # each cluster's first position
            sizes = (r.start[k, :, 1:] > past).nonzero()[1] + 1 - cols  # its last + 1 - first
            for s in sorted(set(sizes.tolist())):
                at = sizes == s
                rr, cc = rows[at, None], cols[at, None] + np.arange(s)
                p, z = r.order[k, rr, cc], np.zeros(len(rr))
                lam, e = self.lam[rr, p], 2.0 ** (s - 1).bit_length()  # e >= s, a power of two
                paired = k in (_REAL_POS, _QUAD)  # each mean sums x / e: exact, and cannot overflow
                q = r.order[k + 1, rr, cc] if paired else None
                W, Wq = (None if x is None else self.V.swapaxes(1, 2)[rr, x].swapaxes(1, 2)
                         for x in (p, q))  # the groups' eigenvector columns, by one gather
                out.append((kind, rr[:, 0], cc[:, 0], p, q,
                            (abs(lam.real) / e).sum(axis=-1) / s * e if paired else z,
                            (lam.imag / e).sum(axis=-1) / s * e if k in (_IMAG, _QUAD) else z,
                            W, Wq))
        return out

    def take(self, rows: np.ndarray) -> SpectrumStack:
        """The classification of the given rows alone."""
        return SpectrumStack(tuple(self.elements[i] for i in rows.tolist()), self.lam[rows],
                             self.V[rows], self.eigvec_cond[rows], self.semi_simple[rows],
                             _Ranked(*(x[:, rows] for x in self.ranked)))


def classify_eigenstructure(Bs: list[SpElement]) -> SpectrumStack:
    """The SpectrumStack of elements of one dimension, from this module's one
    eigensolve and one sort of every kind's keys: each spectrum grouped into
    real pairs, imaginary pairs, quadruples and zeros, and semi-simplicity
    flagged via the eigenvector condition number.

    A non-semi-simple input is not grouped (SpectrumStack.clusters skips its
    row): no decomposition accepts it, and its clusters need not pair up.
    ClassificationError names the first semi-simple element whose real or
    quadruple clusters do not pair up."""
    if not Bs:
        return []
    lam, V = np.linalg.eig(np.array([b.mat for b in Bs]))
    cond, semi_simple = eigvec_condition(V)
    re, im = lam.real, lam.imag
    parts = np.array([re, im])
    mod = abs(lam)  # hypot(re, im), the modulus of Python's abs(complex)
    band = AXIS_BAND * (1.0 + mod)
    scale = np.maximum(1.0, mod.max(axis=-1))
    kind = _KIND_OF_BITS[(np.concatenate([abs(parts) <= band, parts > 0]) * _BITS).sum(axis=0)]
    kind[mod <= AXIS_BAND * (1.0 + scale)[:, None]] = _ZERO
    ctol = CLUSTER_TOL * (1.0 + scale)[:, None]
    ranked = _rank(re * _KEY_RE + im * _KEY_IM, kind == _KINDS, ctol)
    if (kind % 3).any():  # some real pair or quadruple: kind 1, 2, 4 or 5
        _check_pairing(ranked, ctol, semi_simple)
    return SpectrumStack(tuple(Bs), lam, V, cond, semi_simple, ranked)


# eigenvalue kinds (zero, real with Re > 0 or < 0, imaginary with Im > 0, -a+ib
# and +a+ib with a, b > 0, the rest) by bits: 8 in the real-axis band, 4 in the
# imaginary-axis band, 2 Im > 0, 1 Re > 0.  In both bands |lambda| <= 2^(1/2)
# AXIS_BAND (1 + |lambda|) < 2 AXIS_BAND, which is within the zero tolerance.
_ZERO, _REAL_POS, _REAL_NEG, _IMAG, _QUAD, _QUAD_PARTNER, _SKIP = range(7)
_KIND_OF_BITS = np.array([_SKIP, _SKIP, _QUAD, _QUAD_PARTNER, _SKIP, _SKIP, _IMAG, _IMAG]
                         + [_REAL_NEG, _REAL_POS] * 2 + [_ZERO] * 4)
_BITS = np.array([4, 8, 1, 2])[:, None, None]  # |Re|, |Im| in band; Re, Im > 0
_PAST = np.finfo(float).max  # sorts after every key, as their real parts are >= 0
_KINDS = np.arange(_SKIP)[:, None, None]  # ranked: clusters and _check_pairing read no _SKIP
# each kind's key re * _KEY_RE + im * _KEY_IM, exactly: a of a real pair from
# either side, b of an imaginary one, a + ib of both members -a + ib, a + ib of a quadruple
_KEY_RE = np.array([0, 1, -1, 0, -1, 1], dtype=complex)[:, None, None]
_KEY_IM = np.array([0, 0, 0, 1, 1j, 1j])[:, None, None]


def _require_semisimple(semi_simple: np.ndarray, eigvec_cond: np.ndarray) -> None:
    """Raise NonSemisimpleError at the first element flagged not semi-simple."""
    if not semi_simple.all():
        cond = eigvec_cond[semi_simple.argmin()]
        raise NonSemisimpleError(f"eigenvector condition {cond:.3e} exceeds {EIGVEC_COND_MAX:.1e}")


def _omega_form(space: SymplecticSpace, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Matrix of omega between two column families, or two stacks of them (complex-bilinear)."""
    return X.swapaxes(-1, -2) @ (space.omega_matrix @ Y)


def _pairing(space: SymplecticSpace, W: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ascending eigenvalues mu and eigenvectors T of the pairing (i/2) omega(w_j, conj(w_k))
    of a column family W (2n x k) or of each in a stack, and which mu are degenerate (a
    family with one is degenerate)."""
    mu, T = np.linalg.eigh(0.5j * _omega_form(space, W, W.conj()))
    size = abs(mu)
    return mu, T, size <= 1e-10 * size.max(axis=-1, keepdims=True, initial=1.0)


def _krein_pairing(space: SymplecticSpace, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """mu and T of _pairing; NormalizationError if a family is degenerate."""
    mu, T, degenerate = _pairing(space, W)
    if degenerate.any():
        raise NormalizationError("degenerate orientation pairing")
    return mu, T


def krein_parameters(spectra: SpectrumStack) -> list[list[float]]:
    """Each classified element's signed imaginary-pair parameters, one per
    invariant plane, by ascending |b|: each imaginary cluster of
    SpectrumStack.clusters carries its mean b on its planes, signed by the
    eigenvalues of its _krein_pairing (one call per cluster size in the stack).
    Raises NonSemisimpleError at the first non-semi-simple element."""
    if not spectra:
        return []
    _require_semisimple(spectra.semi_simple, spectra.eigvec_cond)
    found = []  # (row, ranked position, the cluster's signed parameters)
    for _, rows, first, _, _, _, b, W, _ in spectra.clusters(("imag",)):
        mu, _ = _krein_pairing(spectra.elements[0].space, W)
        found += zip(rows.tolist(), first.tolist(), np.copysign(b[:, None], mu).tolist())
    out = [[] for _ in range(len(spectra))]
    for i, _, beta in sorted(found):
        out[i] += beta
    return out


@dataclass(frozen=True)
class WilliamsonBlock:
    """One normal-form block: kind 'real' ([[ -a, 0], [0, a]] on a plane),
    'imag' ([[0, b], [-b, 0]], b signed by orientation) or 'quad' (the 4x4
    two-plane block with parameters a, b > 0).  Plane indices are 0-based."""

    kind: str
    a: float
    b: float
    planes: tuple

    @property
    def label(self) -> str:
        """The block's name and parameters, as `spqs decompose` prints them."""
        if self.kind == "real":
            return f"real_pair a={self.a!r}"
        if self.kind == "imag":
            return f"imag_pair b={self.b!r}"
        return f"quadruple a={self.a!r} b={self.b!r}"

    def yz_terms(self, frames) -> list[tuple[float, RankOneKind, np.ndarray, np.ndarray]]:
        """Commuting rank-one terms (coefficient, kind, e, f) summing to the
        block, given the (e, f) frame of each of its planes: a * Z for a real
        block, b * Y for an imaginary one; a quadruple on planes (k, l)
        contributes a Z on each plane and two opposite-sign Y terms on the
        sqrt(2)-normalized mixed vectors."""
        Y, Z = RankOneKind.Y, RankOneKind.Z
        if self.kind == "quad":
            (ek, fk), (el, fl) = frames
            r2 = np.sqrt(2.0)
            return [
                (self.a, Z, ek, fk),
                (self.a, Z, el, fl),
                (-self.b, Y, (el - fk) / r2, (ek + fl) / r2),
                (self.b, Y, (ek - fl) / r2, (el + fk) / r2),
            ]
        ((e, f),) = frames
        if self.kind == "real":
            return [(self.a, Z, e, f)]
        return [(self.b, Y, e, f)]


@dataclass(frozen=True)
class WilliamsonDecomposition:
    space: SymplecticSpace
    S: np.ndarray
    blocks: tuple
    roundtrip_residual: float = 0.0  # max |S D S^-1 - B| / max(1, max |B|) of B decomposed

    def assemble(self) -> np.ndarray:
        """Block-diagonal matrix D with B = S D S^{-1}."""
        return _assemble(self.space.n, [self.blocks])[0]


# each block kind's nonzero entries (i, j, sign, parameter) on its coordinates
# (e_p for p in planes, then f_p); its other entries are 0.0
_BLOCK_ENTRIES = {
    "real": ((0, 0, -1, "a"), (1, 1, 1, "a")), "imag": ((0, 1, 1, "b"), (1, 0, -1, "b")),
    "quad": ((0, 0, -1, "a"), (0, 1, 1, "b"), (1, 0, -1, "b"), (1, 1, -1, "a"),
             (2, 2, 1, "a"), (2, 3, 1, "b"), (3, 2, -1, "b"), (3, 3, 1, "a"))}


def _assemble(n: int, blocks: Sequence) -> np.ndarray:
    """The block-diagonal matrix D of each list of blocks, as one (m, 2n, 2n) stack."""
    at, values = [], []  # flat positions in D and their entries
    for row, blks in enumerate(blocks):
        for blk in blks:
            idx = (*blk.planes, *(n + p for p in blk.planes))
            for i, j, sign, param in _BLOCK_ENTRIES[blk.kind]:
                at.append((2 * n * row + idx[i]) * 2 * n + idx[j])
                values.append(sign * getattr(blk, param))
    D = np.zeros((len(blocks), 2 * n, 2 * n))
    D.reshape(-1)[at] = values
    return D


# Plane builders: from the eigenvector columns W (c, 2n, k) of one kind's groups and their
# partners Wq, the frames [(E, F)] of each group's k blocks (one (c, k, 2n) pair per block
# plane), the sign of each block's b, and the checks (failed, message, value) in order.

def _realify_eigenspace(V: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Real orthonormal bases (c, 2n, k) of the spans of Re/Im of each family of k complex
    columns of the stack V, and the check that each span has rank k."""
    Q, s, _ = np.linalg.svd(np.concatenate([V.real, V.imag], axis=-1), full_matrices=False)
    rank, k = (s > s[..., :1] * 1e-10).sum(axis=-1), V.shape[-1]
    return Q[..., :k], (rank != k, f"real eigenspace rank {{}} does not match multiplicity {k}",
                        rank)


def _planes_real(space, W, Wq):
    """e from the realified -a eigenspace Vm, f = Vp G^-1 from the +a one, G = omega(Vm, Vp)."""
    (Vm, rank_m), (Vp, rank_p) = _realify_eigenspace(Wq), _realify_eigenspace(W)
    G = _omega_form(space, Vm, Vp).real
    singular = abs(np.linalg.det(G)) < 1e-12
    F = Vp @ np.linalg.inv(np.where(singular[:, None, None], np.eye(G.shape[-1]), G))
    return [(Vm.swapaxes(1, 2), F.swapaxes(1, 2))], 1.0, [
        rank_m, rank_p, (singular, "degenerate pairing on a real eigenvalue pair", singular)]


@np.errstate(divide="ignore", invalid="ignore")  # a degenerate family is refused, not used
def _planes_imag(space, W, Wq=None):
    """Darboux planes (e_j, f_j) spanning W, one per eigenvalue mu_j of its _pairing, whose
    sign orients the plane: omega(e, f) = 1."""
    mu, T, degenerate = _pairing(space, W)
    degenerate = degenerate.any(axis=-1)
    Tc = T.conj().swapaxes(1, 2).copy()[..., None]  # conj(T[:, j]), one vector per j
    w = (W[:, None] @ Tc)[..., 0] / np.sqrt(abs(mu))[..., None]
    pos = mu[..., None] > 0
    return [(np.where(pos, w.real, w.imag), np.where(pos, w.imag, w.real))], np.where(
        pos[..., 0], 1.0, -1.0), [(degenerate, "degenerate orientation pairing", degenerate)]


def _planes_quad(space, W, Wq):
    """Planes (Re w1, Re w2) and (Im w1, Im w2): w1 from W, w2 from Wq normalized by the
    pairing P = omega(W, conj Wq) as Wq conj(2 P^-1)."""
    P = _omega_form(space, W, Wq.conj())
    singular = abs(np.linalg.det(P)) < 1e-12
    P = np.where(singular[:, None, None], np.eye(P.shape[-1]), P)  # inverted where regular
    W1, W2 = W.swapaxes(1, 2), (Wq @ np.conj(2.0 * np.linalg.inv(P))).swapaxes(1, 2)
    return [(W1.real, W2.real), (W1.imag, W2.imag)], 1.0, [
        (singular, "degenerate pairing on a quadruple", singular)]


def _planes_zero(space, W, Wq):
    """The kernel's realified eigenvectors split by _planes_imag; the caller keeps the
    positively oriented planes (the others span the same space again)."""
    R, rank = _realify_eigenspace(W)
    planes, sign, checks = _planes_imag(space, R)
    return planes, sign, [rank, *checks]


_PLANE_BUILDERS = {"real": _planes_real, "imag": _planes_imag, "quad": _planes_quad,
                   "zero": _planes_zero}


def williamson_decompose(spectra: SpectrumStack) -> list[WilliamsonDecomposition]:
    """Symplectic frame S and typed blocks with B = S D S^{-1} for each
    classified B in order; the first B without them raises what it raises alone.

    Blocks are sorted by kind (real, imag, quad) then parameter magnitude,
    ties by smallest originating eigenvalue index; imaginary parameters carry
    the plane orientation in their sign, so b and -b blocks are distinct.
    The stack is built at once: one plane builder per kind and size of
    SpectrumStack.clusters(), then the frame check, D and round trip as stacks.
    """
    if not spectra:
        return []
    space, m = spectra.elements[0].space, len(spectra)
    n, O = space.n, space.omega_matrix
    errors = []  # ((row, check, ...), error): a row's failures sort in its check order
    try:
        _require_semisimple(spectra.semi_simple, spectra.eigvec_cond)
    except NonSemisimpleError as exc:
        errors.append(((int(spectra.semi_simple.argmin()), 0), exc))
    parts = []  # per batch and block plane t: each plane's row, block sort key, t, e and f
    for kind, rows, first, p, _, a, b, W, Wq in spectra.clusters():
        planes, sign, checks = _PLANE_BUILDERS[kind](space, W, Wq)
        errors += [((int(rows[g]), 1, _GROUP_KINDS.index(kind), int(first[g]), step),
                    NormalizationError(message.format(value[g])))
                   for step, (bad, message, value) in enumerate(checks)
                   for g in np.flatnonzero(bad)]
        g, j = np.nonzero(np.broadcast_to(sign > 0 if kind == "zero" else True, p.shape))
        key = (rows[g], np.full(len(g), _GROUP_KINDS.index(kind) % 3), a[g],  # kernel: real
               np.broadcast_to(b[:, None] * sign, p.shape)[g, j], p.min(axis=-1)[g], j)
        parts += [(*key, np.full(len(g), t), E[g, j], F[g, j]) for t, (E, F) in enumerate(planes)]
    if not parts:  # no row is semi-simple
        raise errors[0][1]
    row, kind, a, b, first, j, t, E, F = (np.concatenate(x) for x in zip(*parts))
    failed = np.zeros(m, bool)
    failed[[key[0] for key, _ in errors]] = True
    order = np.lexsort((t, j, first, abs(b), abs(a), kind, row))
    row, kind, a, b, t, E, F = (x[order[~failed[row[order]]]] for x in (row, kind, a, b, t, E, F))
    plane, count = np.arange(len(row)) - np.searchsorted(row, row), np.bincount(row, minlength=m)
    good = ~failed & (count == n)
    at = good[row]
    S = np.zeros((m, 2 * n, 2 * n))
    S[row[at], :, plane[at]], S[row[at], :, n + plane[at]] = E[at], F[at]
    blocks = [[] for _ in range(m)]
    for i, k, x, y, p in zip(*(v[at & (t == 0)].tolist() for v in (row, kind, a, b, plane))):
        blocks[i].append(WilliamsonBlock(BLOCK_KINDS[k], x, y, tuple(range(p, p + 1 + (k == 2)))))
    Bm = np.array([B.mat for B in spectra.elements])
    sdef = np.abs(S.swapaxes(1, 2) @ O @ S - O).max(axis=(1, 2))
    resid = np.abs(S @ _assemble(n, blocks) @ omega_adjoint(S) - Bm).max(axis=(1, 2))
    scale = np.maximum(1.0, np.abs(Bm).max(axis=(1, 2)))
    errors += [((i, check), NormalizationError(message.format(value[i])))
               for check, bad, message, value in (
        (2, ~failed & (count != n), f"planes cover {{}} of {n} slots", count),
        (3, good & ~(sdef <= FRAME_SYMPLECTIC_TOL), "frame symplectic defect {:.3e}", sdef),
        (4, good & ~(resid <= ROUNDTRIP_TOL * scale), "round-trip residual {:.3e}", resid),
    ) for i in np.flatnonzero(bad).tolist()]
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return [WilliamsonDecomposition(space, S[i], tuple(blocks[i]), float(resid[i] / scale[i]))
            for i in range(m)]


def _commute(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Whether each pair of the stacks X, Y commutes within COMMUTE_TOL max(1, |X| |Y|)."""
    tol = COMMUTE_TOL * np.maximum(1.0, np.abs(X).max(axis=(1, 2)) * np.abs(Y).max(axis=(1, 2)))
    return np.abs(X @ Y - Y @ X).max(axis=(1, 2)) <= tol


def yz_decomposition(Bs: list[SpElement], decompositions: list[WilliamsonDecomposition]
                     ) -> list[list[tuple[float, RankOneKind, np.ndarray]]]:
    """Each element's pairwise commuting rank-one terms summing to it, block by
    block (see WilliamsonBlock.yz_terms), from its decomposition: (coefficient,
    kind, the term's plain matrix) per term.  The terms of all elements are built
    with one rank_one_matrix per kind, and summed and checked as stacks; the first
    element whose terms fail raises what it raises alone."""
    if not Bs:
        return []
    space = decompositions[0].space
    terms, quads, pairs = [], [], []  # (element, coefficient, kind, e, f); quadruples; pairs
    for i, dec in enumerate(decompositions):
        realized, base = [], len(terms)  # per block: the indices of its terms
        for bi, blk in enumerate(dec.blocks):
            new = blk.yz_terms([(dec.S[:, p], dec.S[:, space.n + p]) for p in blk.planes])
            realized.append(range(len(terms), len(terms) + len(new)))
            quads += [(i, bi, len(terms), blk.a, blk.b)] if blk.kind == "quad" else []
            terms += [(i, *term) for term in new]
        pairs += [(i, x, y, base) for first, second in itertools.combinations(realized, 2)
                  for x, y in itertools.product(first, second)]
    elem, coef = (np.array([term[k] for term in terms]) for k in (0, 1))
    M = np.empty((len(terms), space.dim, space.dim))
    for kind in RankOneKind:
        at = [t for t, term in enumerate(terms) if term[2] is kind]
        if at:
            e, f = (np.array([terms[t][k] for t in at]) for k in (3, 4))
            M[at] = rank_one_matrix(space, kind, e, f)
    total = np.zeros((len(Bs), space.dim, space.dim))
    np.add.at(total, elem, coef[:, None, None] * M)  # each element's terms, in order
    Bm = np.array([B.mat for B in Bs])
    resid = np.abs(total - Bm).max(axis=(1, 2))
    bad = resid > ROUNDTRIP_TOL * np.maximum(1.0, np.abs(Bm).max(axis=(1, 2)))
    errors = [((i,), f"term sum residual {resid[i]:.3e}") for i in np.flatnonzero(bad).tolist()]
    # Terms of distinct blocks commute outright.  Inside a quadruple the four
    # terms only satisfy the three relations: the Z-sum commutes with the
    # signed Y-combination, the two Z's commute, and the two Y's commute.
    if pairs:
        e, x, y, base = np.array(pairs).T
        errors += [((e[t], 1, t), f"terms {x[t] - base[t]}, {y[t] - base[t]} fail to commute")
                   for t in np.flatnonzero(~_commute(M[x], M[y])).tolist()]
    if quads:
        e, bi, z, a, b = (np.array(v) for v in zip(*quads))
        z1, z2, y1, y2 = (M[z + k] for k in range(4))
        holds = (_commute(a[:, None, None] * (z1 + z2), b[:, None, None] * (y2 - y1))
                 & _commute(z1, z2) & _commute(y1, y2))
        errors += [((e[t], 2, t), f"quadruple relations fail on block {bi[t]}")
                   for t in np.flatnonzero(~holds).tolist()]
    if errors:
        raise NormalizationError(min(errors)[1])
    out = [[] for _ in Bs]
    for t, (i, c, kind, *_) in enumerate(terms):
        out[i].append((c, kind, M[t]))
    return out


def random_semisimple(space: SymplecticSpace, seed,
                      kinds: tuple = BLOCK_KINDS) -> tuple[SpElement, list[WilliamsonBlock]]:
    """Random semi-simple element with known block content: `semisimple_elements`
    of one `draw_semisimple`.  Returns the element and its generating blocks
    (canonical truth for round-trip tests)."""
    return semisimple_elements(space, [draw_semisimple(space, rng_from(seed), kinds)])[0]


def draw_semisimple(space: SymplecticSpace, rng: np.random.Generator,
                    kinds: tuple = BLOCK_KINDS) -> tuple[list[WilliamsonBlock], np.ndarray]:
    """The random numbers of one semi-simple element, read from rng: typed blocks
    with parameters in SEMISIMPLE_PARAM_RANGE, then the Gaussian of its random
    symplectic frame of scale SEMISIMPLE_FRAME_SCALE."""
    if not kinds:
        raise ValueError("at least one block kind is needed")
    unknown = [k for k in kinds if k not in BLOCK_KINDS]
    if unknown:
        raise ValueError(f"unknown block kind {unknown[0]!r}; expected one of {BLOCK_KINDS}")
    if space.n % 2 and set(kinds) <= {"quad"}:
        raise ValueError(f"odd n = {space.n} needs a one-plane kind ('real' or 'imag')")
    lo, hi = SEMISIMPLE_PARAM_RANGE
    blocks, plane = [], 0
    while plane < space.n:
        options = [k for k in kinds if k != "quad" or plane + 1 < space.n]
        kind = options[rng.integers(len(options))]  # what rng.choice(options) reads, faster
        if kind == "quad":
            a, b = rng.uniform(lo, hi, 2)
        elif kind == "imag":
            a, b = 0.0, rng.uniform(lo, hi) * (-1.0, 1.0)[rng.integers(2)]
        else:
            a, b = rng.uniform(lo, hi), 0.0
        size = 2 if kind == "quad" else 1
        blocks.append(WilliamsonBlock(kind, float(a), float(b), tuple(range(plane, plane + size))))
        plane += size
    return blocks, _random_gaussian(space, SEMISIMPLE_FRAME_SCALE, rng)


def semisimple_elements(space: SymplecticSpace, draws: list) -> list[tuple[SpElement, list]]:
    """The elements and blocks of draws (`draw_semisimple`), built as one stack:
    one expm of the frames g, one g D g^omega, one skew_part and one membership
    check.  A failing draw raises the error that building the draws one at a
    time, in order, raises first."""
    if not draws:
        return []
    blocks, X = zip(*draws)
    g, errors = group_elements(space, np.array(X))
    k = next((t for t, error in enumerate(errors) if error), len(errors))
    D = _assemble(space.n, blocks[:k])
    elements = SpElement.stack(space, skew_part(g[:k] @ D @ omega_adjoint(g[:k])))
    if k < len(errors):
        raise errors[k]
    return list(zip(elements, blocks))
