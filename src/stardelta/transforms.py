"""Transform-side linear algebra for the vertex and diagonal conditions.

A plane-wave solution at momentum k pairs each quadrant Q_ij with four
channel coefficients psi^{st}_{ij}, one per sign pair (sig, tau), with
the convention that the wave exp(1j(sig k x + tau kappa y)),
kappa = sqrt(1 - k^2), enters the solution with coefficient
-sig*tau*psi^{st}.  :func:`extract_transforms` is therefore one
signed gather, by -sig*tau*kappa, from the tensor's amplitude array
indexed (i, j, sector, sig, tau, slot), with the above sector giving
hat and the below sector check; :func:`basic_solution_tensor` is the
matching scatter.  Collecting
(psi^{++}, psi^{--}) into xi and (psi^{+-}, psi^{-+}) into chi, the
vertex matching conditions become

    xi_hat   = -chi_hat S       (rows: y = 0 boundaries, "above" data)
    xi_check = -S tau chi_check (columns: x = 0 boundaries, "below" data)

with S = 2P - I the vertex scattering matrix and tau the component
swap; :func:`_vertex_xi` is their one definition, shared by the
Kirchhoff check, :func:`basic_solution_tensor` and the Q_pm residuals.  Hat/check are the transforms describing a solution on the
x > y resp. x < y sector of diagonal quadrants; they agree off the
diagonal.  Eliminating xi leaves the finite-dimensional solvability
system on (chi_hat, chi_check); splitting it over the eigenspaces of
tau reduces to the operators

    Q_pm(A, B) = (A S +- S B, A - B)        on  M_n(C) (+) M_n(C)

composed with the projection PI_perp that kills diagonal matrix
entries.  ker(PI_perp o Q_pm) = ker(Q_pm) (+) K_pm where K_pm is the
least-squares preimage of the diagonal-pair subspace inside ran(Q_pm);
the four blocks have dimensions (n-1)^2 + 1, 2(n-1), n-1 and 2.
:func:`compute_kernel_decomposition` verifies them numerically in the
spectral basis, where S = diag(s) and Q_pm splits into one 2x2 block
per matrix entry, so a batched 2x2 SVD replaces any 2n^2 x 2n^2
operator.  Edge-basis bases come from F X F per matrix.  The residuals
apply Q_pm matrix-free, S in closed form and PI_perp a mask on the
diagonal entries.  The dense operators
(:func:`build_q_operator`, :func:`build_p_operator`) and subspace
utilities are the oracle the tests compare against.

The diagonal continuity/jump conditions additionally couple momenta k
and kappa.  Folding the pair of momenta into C^4 vectors (see
:class:`TransformVectors4` for the weighting) turns them into the pair
of 4x4 systems xi_hat = M xi_check, chi_hat = N chi_check built by
:func:`diagonal_condition_matrices` and checked in that form only, with
coupling scalars
c_pm = -1j*c/(k +- kappa), for fold momentum k in [0, 1/sqrt(2)).
c_minus has a pole at k = 1/sqrt(2), hence the exclusion zone there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .domain import (SCHEMA, SECTORS, AmplitudeTensor, MomentumPair, cell, check_edge_count, check_fold, check_pole,
                     partner_momentum, table_shape)
from .oneparticle import EDGE, SPECTRAL, s_matrix

RANK_RTOL = 1e-10
TRANSFORM_TOL = 1e-10  # the largest residual a transform-side check passes

_TAU4 = (2, 3, 0, 1)  # the permutation (13)(24) on the folded slots

PREDICTED_DIMS = {
    "ker_Q_plus": lambda n: 2 * (n - 1),
    "ker_Q_minus": lambda n: (n - 1) ** 2 + 1,
    "K_plus": lambda n: 2,
    "K_minus": lambda n: n - 1,
}


# ---------------------------------------------------------------------------
# bases and matrix-space operators


def change_of_basis(n: int) -> np.ndarray:
    """Symmetric orthogonal F whose first column is (1,...,1)/sqrt(n).

    Householder reflection exchanging e_1 with the uniform unit vector;
    F maps spectral coordinates to edge coordinates and is an
    involution, so it is its own inverse.
    """
    f1 = np.full(n, 1.0 / math.sqrt(n))
    v = np.zeros(n)
    v[0] = 1.0
    v -= f1
    norm2 = v @ v
    if norm2 < 1e-15:
        return np.eye(n)
    return np.eye(n) - 2.0 * np.outer(v, v) / norm2


def _conjugate(pairs: np.ndarray, n: int) -> np.ndarray:
    """Apply (A, B) -> (F A F, F B F) to a stacked pair vector or to columns of them.

    F is an involution, so the same map converts edge coordinates to
    spectral ones and back.
    """
    F = change_of_basis(n)
    half = F @ pairs.reshape(2, n, -1)
    return (F @ half.reshape(2 * n, n, -1)).reshape(pairs.shape)


def _vertex_xi(chi_hat: np.ndarray, tau_chi_check: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The xi the vertex equations assign: (-chi_hat S, -S tau chi_check),
    with the edge-basis S = (2/n) 1 1^T - I in closed form: its diagonal and
    off-diagonal terms are rounded apart, as a dense product rounds them.

    Arrays are (..., n, n, m): stack axes, the quadrant axes, then one
    axis (slots, kernel columns) that rides along.
    """
    w = 2.0 / chi_hat.shape[-2]
    xi_hat = (1.0 - w) * chi_hat - w * (chi_hat.sum(axis=-2, keepdims=True) - chi_hat)
    xi_check = (1.0 - w) * tau_chi_check - w * (tau_chi_check.sum(axis=-3, keepdims=True) - tau_chi_check)
    return xi_hat, xi_check


def _offdiag_drift(*pairs: tuple[np.ndarray, np.ndarray]):
    """Largest |hat - check| off the diagonal, where hat and check must agree,
    per stacked (..., n, n, m) array.

    Where the two agree bit for bit off the diagonal, as every pair read
    from an amplitude table does (an off-diagonal quadrant has one cell,
    read as both), the drift is 0.0, which one exact comparison decides;
    only the other stacked arrays take the differences and their masked
    gathers.
    """
    n = pairs[0][0].shape[-2]
    d = np.arange(n)
    same = True
    for hat, check in pairs:
        equal = hat == check
        equal[..., d, d, :] = True
        same = same & equal.all(axis=(-3, -2, -1))
    drift = np.zeros(np.shape(same))
    rest = ~same
    if np.any(rest):
        off = ~np.eye(n, dtype=bool)
        drift[rest] = np.maximum.reduce([_max_abs((hat[rest] - check[rest])[..., off, :], 2) for hat, check in pairs])
    return drift


def _apply_q(sign: int, cols: np.ndarray) -> np.ndarray:
    """Q_pm(A, B) = (A S + sign * S B, A - B) on columns of stacked pair
    vectors, 2n^2 rows each, with S the edge-basis vertex scattering matrix.

    That is (xi_check - xi_hat, chi_hat - chi_check) for chi = (A, B) and
    tau chi_check = -sign * B, so PI_perp o Q_pm is the off-diagonal
    hat/check drift that :func:`basic_solution_tensor` refuses.
    """
    n = math.isqrt(cols.shape[0] // 2)
    A, B = cols.reshape(2, n, n, -1)
    xi_hat, xi_check = _vertex_xi(A, -sign * B)
    return np.concatenate([xi_check - xi_hat, A - B]).reshape(cols.shape)


def _diag_rows(n: int) -> np.ndarray:
    """Positions of the 2n edge-basis diagonal entries in a stacked pair vector."""
    d = np.arange(n) * (n + 1)
    return np.concatenate([d, n * n + d])


def build_q_operator(n: int, sign: int, basis: str = SPECTRAL) -> np.ndarray:
    """Dense (2n^2) x (2n^2) matrix of (A, B) -> (A S + sign * S B, A - B)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    check_edge_count(n)
    S = s_matrix(n, basis)
    eye = np.eye(n)
    eye2 = np.eye(n * n)
    # row-major vec: vec(A S) = (I (x) S^T) vec(A); S is symmetric.
    top = np.hstack([np.kron(eye, S), sign * np.kron(S, eye)])
    bottom = np.hstack([eye2, -eye2])
    return np.vstack([top, bottom])


def build_p_operator(n: int, sign: int) -> np.ndarray:
    """PI_perp o Q_pm: the edge-basis Q_pm with its diagonal output rows zeroed."""
    P = build_q_operator(n, sign, EDGE)
    P[_diag_rows(n)] = 0.0
    return P


# ---------------------------------------------------------------------------
# small dense subspace utilities


def _live(s: np.ndarray, scale: float) -> np.ndarray:
    """The rank rule: the singular values above RANK_RTOL * scale."""
    return s > RANK_RTOL * scale


def _rank(s: np.ndarray, scale: float) -> int:
    return int(np.count_nonzero(_live(s, scale)))


def nullspace(A: np.ndarray) -> np.ndarray:
    """Orthonormal kernel basis via SVD; threshold relative to sigma_max."""
    u, s, vh = np.linalg.svd(A)
    if s.size == 0:
        return np.eye(A.shape[1])
    return vh[_rank(s, s[0]):].conj().T


def orthonormal_range(A: np.ndarray) -> np.ndarray:
    u, s, vh = np.linalg.svd(A)
    rank = _rank(s, s[0]) if s.size else 0
    return u[:, :rank]


def orthonormalize(cols: np.ndarray) -> np.ndarray:
    if cols.size == 0:
        return cols.reshape(cols.shape[0], 0)
    u, s, vh = np.linalg.svd(cols, full_matrices=False)
    return u[:, :_rank(s, s[0])]


def _max_abs(a: np.ndarray, axes: int | None = None):
    """Largest |a|; over the last ``axes`` axes only, when given, which leaves
    one value per leading stack index."""
    if axes is None:
        return float(np.abs(a).max(initial=0.0))
    return np.abs(a).max(axis=tuple(range(-axes, 0)), initial=0.0)


# ---------------------------------------------------------------------------
# kernel decomposition


@dataclass
class KernelReport:
    """Computed vs predicted dimensions of the four solution subspaces."""

    n: int
    basis: str
    dims: dict
    predicted: dict
    residuals: dict
    passed: bool
    bases: dict = field(default_factory=dict, repr=False)

    @property
    def total(self) -> int:
        return sum(self.dims.values())

    def to_dict(self, include_bases: bool = False) -> dict:
        out = {
            "schema": SCHEMA,
            "n": self.n,
            "basis": self.basis,
            "dims": dict(sorted(self.dims.items())),
            "predicted": dict(sorted(self.predicted.items())),
            "total": self.total,
            "residuals": {k: float(v) for k, v in sorted(self.residuals.items())},
            "pass": bool(self.passed),
        }
        if include_bases:
            for name, v in self.bases.items():
                if v.dtype != np.float64:
                    raise TypeError(f"basis {name!r} is {v.dtype}, not real float64")
            out["bases"] = {k: v.T.tolist() for k, v in self.bases.items()}
        return out


def _block_kinds(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of s and, per entry pair (i, j) in row-major
    order, the index of its value pair (s_i, s_j) among the pairs of
    distinct values.  The Q_pm block of an entry pair is set by that pair,
    so each distinct block's SVD and pseudo-inverse are taken once."""
    values, at = np.unique(s, return_inverse=True)
    return values, (at[:, None] * values.size + at).reshape(-1)


def compute_kernel_decomposition(n: int, basis: str = SPECTRAL) -> KernelReport:
    """Kernels of Q_pm and the bridging subspaces K_pm, with dimensions.

    Blockwise in the spectral basis, where S = diag(s): Q_pm acts on the
    entry pair (A_ij, B_ij) as the 2x2 block [[s_j, +-s_i], [1, -1]], of
    which at most four are distinct (:func:`_block_kinds`).  One batched
    SVD of the distinct blocks decides each block's rank against the
    largest singular value of all of them.  ker(Q_pm) is one coordinate
    pair per singular block, and the singular blocks' left null vectors
    span the left kernel.  The edge-diagonal pairs are (f_k f_k^T, 0) and
    (0, f_k f_k^T) for the columns f_k of F; the targets
    ker(PI_perp) n ran(Q_pm) are their combinations orthogonal to the left
    kernel, and K_pm is their per-block pseudo-inverse preimage, which lies
    in ker_perp(Q_pm).  [ker(Q_pm), K_pm] must span ker(PI_perp o Q_pm),
    whose dimension follows from rank and nullity: the block nullities
    plus the targets.

    The residuals apply Q_pm to the edge-basis bases matrix-free with S in
    closed form, independent of the spectral diagonal the blocks read, so
    a diagonal that puts its +1 anywhere but on the uniform f_1 shows up in
    them; PI_perp masks the diagonal entries.  Both parts of the joint
    basis are orthonormal by construction, so ``ker_P_*_span``, its Gram
    defect, repeats ``K_*_orth``, and ``ker_P_*_dim_gap`` reduces to the
    targets less the rank of their preimage.  The independent comparison,
    with a dense null space of PI_perp o Q_pm, is in the tests.
    """
    check_edge_count(n)
    if basis not in (EDGE, SPECTRAL):
        raise ValueError(f"unknown basis {basis!r}")
    dims: dict[str, int] = {}
    residuals: dict[str, float] = {}
    bases: dict[str, np.ndarray] = {}
    nn = n * n
    diag = _diag_rows(n)
    s = np.diag(s_matrix(n, SPECTRAL))
    F = change_of_basis(n)
    # entry (i, j) of f_k f_k^T, with k on the last axis
    g = (F[:, None, :] * F[None, :, :]).reshape(nn, n)
    values, of = _block_kinds(s)

    for sign, tag in ((1, "plus"), (-1, "minus")):
        kinds = np.empty((values.size, values.size, 2, 2))  # the block of (s_i, s_j), by value index
        kinds[:, :, 0, 0] = values
        kinds[:, :, 0, 1] = sign * values[:, None]
        kinds[:, :, 1] = (1.0, -1.0)
        u, sv, vh = np.linalg.svd(kinds.reshape(-1, 2, 2))
        live = _live(sv, sv.max())
        inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=live)
        pinv = np.einsum("bji,bj,bkj->bik", vh, inv, u)
        u, vh, live, pinv = (part[of] for part in (u, vh, live, pinv))
        b, idx = np.nonzero(~live)
        cols = np.arange(b.size)
        ker = np.zeros((2 * nn, b.size))
        ker[b, cols] = vh[b, idx, 0]
        ker[nn + b, cols] = vh[b, idx, 1]

        # A diagonal pair lies in ran(Q) when it is orthogonal to the left
        # kernel: one row per singular block, its left null vector against
        # the 2n pairs.  The R factor of that matrix has the same singular
        # values and null space at 2n x 2n size.  The singular values are
        # cosines in [0, 1], all of them roundoff when every diagonal pair
        # lies in ran(Q), so the rank is taken against 1, not the largest.
        left = u[b, :, idx]
        G = (left[:, :, None] * g[b, None, :]).reshape(b.size, 2 * n)
        _, cos, wh = np.linalg.svd(np.linalg.qr(G, mode="r"))
        y = wh[_rank(cos, 1.0):].T
        target_blocks = np.stack([g @ y[:n], g @ y[n:]], axis=1)
        pre = (pinv @ target_blocks).transpose(1, 0, 2).reshape(2 * nn, -1)
        K = orthonormalize(pre)
        dims[f"ker_Q_{tag}"] = ker.shape[1]
        dims[f"K_{tag}"] = K.shape[1]

        ker_e, pre_e, K_e = (_conjugate(c, n) for c in (ker, pre, K))
        target = np.zeros_like(pre_e)
        target[diag] = y
        joint = np.hstack([ker_e, K_e])
        image = _apply_q(sign, joint)
        residuals[f"ker_Q_{tag}_apply"] = _max_abs(image[:, : ker.shape[1]])
        residuals[f"K_{tag}_preimage"] = _max_abs(_apply_q(sign, pre_e) - target)
        residuals[f"K_{tag}_orth"] = _max_abs(ker.T @ K)
        # ker(P_pm) must be spanned by ker(Q_pm) and K_pm together:
        # dim ker(P) = 2n^2 - rank(Q) + #targets, and the joint columns are
        # independent and annihilated by P.
        ker_p_dim = 2 * nn - np.count_nonzero(live) + y.shape[1]
        residuals[f"ker_P_{tag}_dim_gap"] = float(abs(ker_p_dim - joint.shape[1]))
        residuals[f"ker_P_{tag}_span"] = _max_abs(joint.T @ joint - np.eye(joint.shape[1]))
        image[diag] = 0.0
        residuals[f"ker_P_{tag}_apply"] = _max_abs(image)
        bases[f"ker_Q_{tag}"], bases[f"K_{tag}"] = (ker_e, K_e) if basis == EDGE else (ker, K)

    predicted = {key: fn(n) for key, fn in PREDICTED_DIMS.items()}
    passed = dims == predicted and all(v <= TRANSFORM_TOL for v in residuals.values())
    return KernelReport(
        n=n, basis=basis, dims=dims, predicted=predicted, residuals=residuals,
        passed=passed, bases=bases,
    )


# ---------------------------------------------------------------------------
# transform vectors extracted from amplitude tensors


@dataclass(frozen=True)
class TransformVectors4:
    """Folded C^4 transform vectors coupling momenta k and sqrt(1-k^2).

    Slot order for xi: (psi^{++} at k, psi^{++} at kappa,
    psi^{--} at k, psi^{--} at kappa), all weighted by kappa; chi uses
    the (+-, -+) channels in the same pattern.  k must lie in
    [0, 1/sqrt(2)).  Each array is (n, n, 4), or (E, n, n, 4) for a stack
    of E tensors at one momentum pair.

    On weights: for square-integrable transform densities the folded
    variables carry kappa on the momentum-k slots and k on the
    momentum-kappa slots, the latter coming from the Jacobian of the
    substitution that folds [1/sqrt(2), 1] onto [0, 1/sqrt(2)].  A
    fixed-momentum solution is a point mass in momentum, and pushing a
    point mass through the same substitution multiplies it by the
    inverse Jacobian kappa/k; the net weight on the swapped slots is
    again kappa.  Only with this common weight do the diagonal-matching
    systems M and N annihilate actual eigensolutions.
    """

    k: float
    hat_xi: np.ndarray
    hat_chi: np.ndarray
    check_xi: np.ndarray
    check_chi: np.ndarray

    def __post_init__(self):
        for arr in (self.hat_xi, self.hat_chi, self.check_xi, self.check_chi):
            if arr.ndim not in (3, 4) or arr.shape[-1] != 4 or arr.shape[-3] != arr.shape[-2]:
                raise ValueError(f"expected ([E,] n, n, 4) transform array, got {arr.shape}")
        check_fold(self.k)

    @property
    def n(self) -> int:
        return self.hat_xi.shape[-2]


# The four (sig, tau) channels (++, --, +-, -+) as indices (sig+1)//2,
# (tau+1)//2 into the amplitude array, and -sig*tau, which turns a wave
# amplitude into its channel coefficient psi^{sig tau} and back.
_CH_SIG = np.array([1, 0, 1, 0])
_CH_TAU = np.array([1, 0, 0, 1])
_CH_SIGN = np.array([[-1.0], [-1.0], [1.0], [1.0]])


@functools.lru_cache(maxsize=None)
def _transform_order(n: int, swap: bool) -> np.ndarray:
    """Flat positions in an n-edge table of the (quadrant, quadrant, sector,
    channel, slot) gather of :func:`extract_transforms`, the fold slot,
    slot 2 where ``swap``, first; an off-diagonal quadrant's one cell
    serves both sectors."""
    i, j = np.arange(1, n + 1)[:, None], np.arange(1, n + 1)
    cols = np.stack([cell(i, j, sector) for sector in SECTORS], axis=-1)[..., None, None]
    slots = [1, 0] if swap else [0, 1]
    return np.ravel_multi_index(np.broadcast_arrays(i[..., None, None, None] - 1, cols, _CH_SIG[:, None],
                                                    _CH_TAU[:, None], slots), table_shape(n))


@functools.lru_cache(maxsize=None)
def _transform_parts(n: int, swap: bool) -> np.ndarray:
    """The gather of :func:`extract_transforms`, :func:`_transform_order`
    taken apart: flat positions (part, quadrant, quadrant, fold slot) of
    the parts hat xi, hat chi, check xi and check chi."""
    order = _transform_order(n, swap).reshape(n, n, 2, 2, 2, 2)  # sector, xi or chi, channel, slot
    return np.stack([order[:, :, sector, pair] for sector in (0, 1) for pair in (0, 1)]).reshape(4, n, n, 4)


# -sig*tau of each part of _transform_parts: -1 on the xi channels (++, --)
_PART_SIGN = np.array([-1.0, 1.0, -1.0, 1.0])[:, None, None, None]


def extract_transforms(tensor: AmplitudeTensor, m: MomentumPair) -> TransformVectors4:
    """Read a tensor built at the real pair ``m`` into folded transform vectors.

    The fold momentum is k = ``m.fold``; the assignment slot that carries
    it is slot 1, or slot 2 when k2 < k1.  Hat and check are one gather of
    the above and below cells, which off the diagonal are one cell, so a
    table's off-diagonal hat and check agree bit for bit.  The gather
    writes each of the four arrays as one contiguous part per tensor.  A
    stacked tensor gives stacked transform vectors.
    """
    k = m.fold
    kappa = partner_momentum(k)
    amps = tensor.amps
    # one gather, the fold slot first: ([E,] part, quadrant, quadrant, slot)
    order = _transform_parts(tensor.n, bool(m.k2.real < m.k1.real))
    psi = np.take(amps.reshape(amps.shape[:-5] + (math.prod(amps.shape[-5:]),)), order, axis=-1)
    psi *= _PART_SIGN * kappa  # signed in place, on the gather's own copy
    return TransformVectors4(k, *np.moveaxis(psi, -4, 0))


# ---------------------------------------------------------------------------
# residual checks on transform vectors


@dataclass(frozen=True)
class KirchhoffResiduals:
    """Worst defects: floats, or one per tensor of a stack."""

    row: float
    column: float
    hat_check_offdiag: float

    @property
    def max(self) -> float:
        return np.maximum.reduce([self.row, self.column, self.hat_check_offdiag])


def check_kirchhoff_transforms(tv: TransformVectors4) -> KirchhoffResiduals:
    """Defects of the vertex-matching equations on transform vectors.

    Row equations (xi_hat = -chi_hat S) come from the y = 0 boundaries
    and see the hat transforms; column equations
    (xi_check = -S tau chi_check) come from x = 0 and see the check
    transforms; both compare xi with :func:`_vertex_xi`.  Also reports
    how far hat and check drift apart off the diagonal.
    """
    xi_hat, xi_check = _vertex_xi(tv.hat_chi, tv.check_chi[..., _TAU4])
    return KirchhoffResiduals(
        row=_max_abs(tv.hat_xi - xi_hat, 3),
        column=_max_abs(tv.check_xi - xi_check, 3),
        hat_check_offdiag=_offdiag_drift((tv.hat_xi, tv.check_xi), (tv.hat_chi, tv.check_chi)),
    )


def coupling_scalars(k: float, c: float) -> tuple[complex, complex]:
    """c_pm = -1j*c/(k +- sqrt(1-k^2)); c_minus blows up at k = 1/sqrt(2)."""
    kappa = partner_momentum(k)
    check_pole(k, c)
    c_plus = -1j * c / (k + kappa)
    c_minus = 0j if c == 0.0 else -1j * c / (k - kappa)
    return c_plus, c_minus


# M = I + c_minus J_M and N = I + c_plus J_N with J^2 = 0, so det M = det N = 1
_J_M = np.array([[1, 1, 0, 0], [-1, -1, 0, 0], [0, 0, -1, -1], [0, 0, 1, 1]])
_J_N = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, -1, -1, 0], [-1, 0, 0, -1]])


def diagonal_condition_matrices(k: float, c: float) -> tuple[np.ndarray, np.ndarray]:
    """The 4x4 systems M (xi channels) and N (chi channels) on the diagonal."""
    check_fold(k)
    cp, cm = coupling_scalars(k, c)
    return np.eye(4) + cm * _J_M, np.eye(4) + cp * _J_N


@dataclass(frozen=True)
class DiagonalConditionResiduals:
    """Worst residuals: floats, or one per tensor of a stack."""

    xi: float   # residual of xi_hat = M xi_check
    chi: float  # residual of chi_hat = N chi_check

    @property
    def max(self) -> float:
        return np.maximum(self.xi, self.chi)


def check_diagonal_conditions(tv: TransformVectors4, c: float) -> DiagonalConditionResiduals:
    """Residuals of xi_hat = M xi_check and chi_hat = N chi_check on the diagonal.

    Applied to every diagonal quadrant at once.  Per channel pair, the
    folded continuity and jump identities are an invertible 2x2
    combination (determinant 2) of these residuals, so both vanish together.
    """
    d = np.arange(tv.n)

    def diagonal(a):  # slots, then the n diagonal quadrants
        return a[..., d, d, :].swapaxes(-1, -2)

    with np.errstate(invalid="ignore"):  # a c± near the float maximum: NaN in M, N and the residuals
        M, N = diagonal_condition_matrices(tv.k, c)
        return DiagonalConditionResiduals(
            xi=_max_abs(diagonal(tv.hat_xi) - M @ diagonal(tv.check_xi), 2),
            chi=_max_abs(diagonal(tv.hat_chi) - N @ diagonal(tv.check_chi), 2),
        )


# ---------------------------------------------------------------------------
# basic solutions from kernel elements


def kernel_pair_matrices(vec: np.ndarray, n: int, basis: str = SPECTRAL) -> tuple[np.ndarray, np.ndarray]:
    """Split a stacked kernel vector into its two n x n matrices, edge basis."""
    if basis == SPECTRAL:
        vec = _conjugate(vec, n)
    return vec[: n * n].reshape(n, n), vec[n * n :].reshape(n, n)


def basic_solution_tensor(chi_hat: np.ndarray, chi_check: np.ndarray, tau_sign: int) -> AmplitudeTensor:
    """Plane-wave tensor of a vertex-compatible (basic) solution.

    ``(chi_hat, chi_check)`` is an element of ker(PI_perp o Q_pm) in the
    edge basis (sign matching ``tau_sign``: the tau = -1 eigenspace pairs
    with Q_plus, tau = +1 with Q_minus).  The xi channels are filled in
    from the row/column vertex equations, so the result satisfies both
    by construction; it need not satisfy the diagonal conditions, which
    is the point of basic solutions.  The tensor is momentum-agnostic:
    evaluate it at any real pair with k1 < k2, so that slot 1 carries the
    fold momentum.  n is read from ``chi_hat``.  Off the diagonal, where
    hat and check agree to 1e-9, a quadrant's one cell holds the hat values.
    """
    if tau_sign not in (1, -1):
        raise ValueError("tau_sign must be +1 or -1")
    n = chi_hat.shape[0]
    chi_hat, chi_check = chi_hat[..., None], chi_check[..., None]
    xi_hat, xi_check = _vertex_xi(chi_hat, tau_sign * chi_check)
    drift = _offdiag_drift((chi_hat, chi_check), (xi_hat, xi_check))
    if drift > 1e-9:
        raise ValueError(
            f"pair is not vertex-compatible: off-diagonal hat/check drift {drift:.3e}"
        )
    # channels (++, --, +-, -+) carry (xi, tau_sign xi, chi, tau_sign chi) in
    # slot 1; -sig*tau turns each into its wave amplitude
    sign = _CH_SIGN[:, 0] * np.array([1.0, tau_sign, 1.0, tau_sign])
    amps = np.zeros(table_shape(n), dtype=complex)
    order = _transform_order(n, False)[..., 0]  # slot 1 of each (quadrant, quadrant, sector, channel)
    # the below sector first: off the diagonal, where both sectors are one
    # cell, the hat values written last are kept
    for sector, (xi, chi) in ((1, (xi_check, chi_check)), (0, (xi_hat, chi_hat))):
        amps.flat[order[..., sector, :]] = sign * np.concatenate([xi, xi, chi, chi], axis=-1)
    return AmplitudeTensor(amps)
