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
swap.  Hat/check are the transforms describing a solution on the
x > y resp. x < y sector of diagonal quadrants; they agree off the
diagonal.  Eliminating xi leaves the finite-dimensional solvability
system on (chi_hat, chi_check); splitting it over the eigenspaces of
tau reduces to the operators

    Q_pm(A, B) = (A S +- S B, A - B)        on  M_n(C) (+) M_n(C)

composed with the projection PI_perp that kills diagonal matrix
entries.  ker(PI_perp o Q_pm) = ker(Q_pm) (+) K_pm where K_pm is the
least-squares preimage of the diagonal-pair subspace inside ran(Q_pm);
the four blocks have dimensions (n-1)^2 + 1, 2(n-1), n-1 and 2.
:func:`compute_kernel_decomposition` verifies them numerically with one
SVD per operator, in the edge basis, where PI_perp is a row mask and the
diagonal pairs are 2n coordinate vectors; spectral-basis results come
from one conversion of the finished bases.  The closed-form basis
patterns below are the cross-check.

The diagonal continuity/jump conditions additionally couple momenta k
and kappa.  Folding the pair of momenta into C^4 vectors (see
:class:`TransformVectors4` for the weighting) turns them into the pair
of 4x4 systems xi_hat = M xi_check, chi_hat = N chi_check built by
:func:`diagonal_condition_matrices`, with coupling scalars
c_pm = -1j*c/(k +- kappa), for fold momentum k in [0, 1/sqrt(2)).
c_minus has a pole at k = 1/sqrt(2), hence the exclusion zone there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import AmplitudeTensor, check_fold, near_pole, partner_momentum
from .basis import BasisElement
from .oneparticle import EDGE, SPECTRAL, s_matrix

RANK_RTOL = 1e-10

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
    return (np.kron(F, F) @ pairs.reshape(2, n * n, -1)).reshape(pairs.shape)


def _diag_rows(n: int) -> np.ndarray:
    """Positions of the 2n edge-basis diagonal entries in a stacked pair vector."""
    d = np.arange(n) * (n + 1)
    return np.concatenate([d, n * n + d])


def build_q_operator(n: int, sign: int, basis: str = SPECTRAL) -> np.ndarray:
    """Dense (2n^2) x (2n^2) matrix of (A, B) -> (A S + sign * S B, A - B)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if n < 3:
        raise ValueError("need n >= 3")
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


def _rank(s: np.ndarray, scale: float) -> int:
    """The rank rule: count the singular values above RANK_RTOL * scale."""
    return int(np.count_nonzero(s > RANK_RTOL * scale))


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


def projection_defect(U: np.ndarray, vecs: np.ndarray) -> float:
    """max_j ||(I - U U*) v_j|| / ||v_j|| for columns v_j."""
    worst = 0.0
    for j in range(vecs.shape[1]):
        v = vecs[:, j]
        nv = np.linalg.norm(v)
        if nv == 0:
            continue
        resid = v - U @ (U.conj().T @ v)
        worst = max(worst, np.linalg.norm(resid) / nv)
    return worst


def _max_abs(a: np.ndarray) -> float:
    return float(np.abs(a).max(initial=0.0))


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
            "schema": 1,
            "n": self.n,
            "basis": self.basis,
            "dims": dict(sorted(self.dims.items())),
            "predicted": dict(sorted(self.predicted.items())),
            "total": self.total,
            "residuals": {k: float(v) for k, v in sorted(self.residuals.items())},
            "pass": bool(self.passed),
        }
        if include_bases:
            out["bases"] = {
                k: [[float(x.real) for x in col] for col in v.T] for k, v in self.bases.items()
            }
        return out


def compute_kernel_decomposition(n: int, basis: str = SPECTRAL) -> KernelReport:
    """Kernels of Q_pm and the bridging subspaces K_pm, with dimensions.

    One SVD per operator, edge basis, one conversion.  The SVD
    Q_pm = U Sigma V* of the edge-basis operator gives ker(Q_pm), ran(Q_pm)
    and the minimum-norm preimage V_r Sigma_r^-1 U_r*.  In the edge basis
    ker(PI_perp) is spanned by the 2n coordinate vectors of the diagonal
    entries, so the targets ker(PI_perp) n ran(Q_pm) are the diagonal
    pairs y with U[diag, r:]* y = 0, and K_pm is their preimage, which
    lies in ker_perp(Q_pm).  ker(PI_perp o Q_pm) gets its own SVD and
    must split as ker(Q_pm) (+) K_pm.  Dims, residuals and the verdict
    are computed in the edge basis; for ``basis="spectral"`` the finished
    bases are conjugated by F once.
    """
    if basis not in (EDGE, SPECTRAL):
        raise ValueError(f"unknown basis {basis!r}")
    dims: dict[str, int] = {}
    residuals: dict[str, float] = {}
    bases: dict[str, np.ndarray] = {}
    diag = _diag_rows(n)

    for sign, tag in ((1, "plus"), (-1, "minus")):
        Q = build_q_operator(n, sign, EDGE)
        u, s, vh = np.linalg.svd(Q)
        r = _rank(s, s[0])
        ker = vh[r:].conj().T
        dims[f"ker_Q_{tag}"] = ker.shape[1]
        bases[f"ker_Q_{tag}"] = ker
        residuals[f"ker_Q_{tag}_apply"] = _max_abs(Q @ ker)

        # A diagonal pair lies in ran(Q) when it is orthogonal to the left
        # kernel U[:, r:].  The singular values of this block are cosines
        # in [0, 1], all of them roundoff when every diagonal pair lies in
        # ran(Q), so the rank is taken against 1, not against the largest.
        _, cos, wh = np.linalg.svd(u[diag, r:].conj().T)
        y = wh[_rank(cos, 1.0):].conj().T
        target = np.zeros((Q.shape[0], y.shape[1]))
        target[diag] = y
        pre = vh[:r].conj().T @ ((u[diag, :r].conj().T @ y) / s[:r, None])
        K = orthonormalize(pre)
        residuals[f"K_{tag}_preimage"] = _max_abs(Q @ pre - target)
        dims[f"K_{tag}"] = K.shape[1]
        bases[f"K_{tag}"] = K
        residuals[f"K_{tag}_orth"] = _max_abs(ker.conj().T @ K)

        # ker(P_pm) must be spanned by ker(Q_pm) and K_pm together.
        P = build_p_operator(n, sign)
        ker_p = nullspace(P)
        joint = orthonormalize(np.hstack([ker, K]))
        residuals[f"ker_P_{tag}_dim_gap"] = float(abs(ker_p.shape[1] - joint.shape[1]))
        residuals[f"ker_P_{tag}_span"] = projection_defect(joint, ker_p)
        residuals[f"ker_P_{tag}_apply"] = _max_abs(P @ joint)

    if basis == SPECTRAL:
        bases = {name: _conjugate(cols, n) for name, cols in bases.items()}
    predicted = {key: fn(n) for key, fn in PREDICTED_DIMS.items()}
    passed = dims == predicted and all(v <= 1e-10 for v in residuals.values())
    return KernelReport(
        n=n, basis=basis, dims=dims, predicted=predicted, residuals=residuals,
        passed=passed, bases=bases,
    )


# -- closed-form kernel patterns --------------------------------------------


def _pair(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return np.concatenate([A.reshape(-1), B.reshape(-1)])


def _to_basis(vecs: list[np.ndarray], n: int, src: str, dst: str) -> np.ndarray:
    cols = np.column_stack(vecs)
    return cols if src == dst else _conjugate(cols, n)


def q_plus_kernel_patterns(n: int, basis: str = SPECTRAL) -> np.ndarray:
    """Pairs (X, X) with X supported on the first row/column off-block."""
    vecs = []
    for j in range(1, n):
        X = np.zeros((n, n))
        X[0, j] = 1.0
        vecs.append(_pair(X, X))
        X = np.zeros((n, n))
        X[j, 0] = 1.0
        vecs.append(_pair(X, X))
    return _to_basis(vecs, n, SPECTRAL, basis)


def q_minus_kernel_patterns(n: int, basis: str = SPECTRAL) -> np.ndarray:
    """Pairs (X, X) with X block-diagonal in the spectral basis."""
    vecs = []
    X = np.zeros((n, n))
    X[0, 0] = 1.0
    vecs.append(_pair(X, X))
    for i in range(1, n):
        for j in range(1, n):
            X = np.zeros((n, n))
            X[i, j] = 1.0
            vecs.append(_pair(X, X))
    return _to_basis(vecs, n, SPECTRAL, basis)


def k_plus_patterns(n: int, basis: str = SPECTRAL) -> np.ndarray:
    """The two-dimensional preimage of the scalar-pair targets."""
    vecs = []
    for a, ap in ((1.0, 0.0), (0.0, 1.0)):
        A = np.diag(np.concatenate([[a + ap], -np.full(n - 1, a - ap)]))
        B = np.diag(np.concatenate([[a - ap], -np.full(n - 1, a + ap)]))
        vecs.append(_pair(A, B))
    return _to_basis(vecs, n, SPECTRAL, basis)


def k_minus_patterns(n: int, basis: str = SPECTRAL) -> np.ndarray:
    """Preimages of the trace-free diagonal pairs (C, -C).

    For C = diag(c) with sum(c) = 0 the preimage is
    (C + R, -C + R) with the antisymmetric rank-two correction
    R = (u c^t - c u^t) / n, u = (1, ..., 1)^t; Q_minus maps this pair
    to (-2C, 2C).  Expressed in the edge basis, then converted.
    """
    u = np.ones(n)
    vecs = []
    for m in range(n - 1):
        c = np.zeros(n)
        c[m], c[m + 1] = 1.0, -1.0
        C = np.diag(c)
        R = (np.outer(u, c) - np.outer(c, u)) / n
        vecs.append(_pair(C + R, -C + R))
    return _to_basis(vecs, n, EDGE, basis)


def k_minus_targets(n: int, basis: str = EDGE) -> np.ndarray:
    """Trace-free diagonal pairs (C, -C) spanning ker(PI_perp) n ran(Q_minus)."""
    vecs = []
    for m in range(n - 1):
        c = np.zeros(n)
        c[m], c[m + 1] = 1.0, -1.0
        C = np.diag(c)
        vecs.append(_pair(C, -C))
    return _to_basis(vecs, n, EDGE, basis)


# ---------------------------------------------------------------------------
# transform vectors extracted from amplitude tensors


@dataclass(frozen=True)
class TransformVectors4:
    """Folded C^4 transform vectors coupling momenta k and sqrt(1-k^2).

    Slot order for xi: (psi^{++} at k, psi^{++} at kappa,
    psi^{--} at k, psi^{--} at kappa), all weighted by kappa; chi uses
    the (+-, -+) channels in the same pattern.  k must lie in
    [0, 1/sqrt(2)).

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

    n: int
    k: float
    hat_xi: np.ndarray
    hat_chi: np.ndarray
    check_xi: np.ndarray
    check_chi: np.ndarray

    def __post_init__(self):
        for arr in (self.hat_xi, self.hat_chi, self.check_xi, self.check_chi):
            if arr.ndim != 3 or arr.shape[2] != 4 or arr.shape[0] != arr.shape[1]:
                raise ValueError(f"expected (n, n, 4) transform array, got {arr.shape}")
        check_fold(self.k)


# The four (sig, tau) channels (++, --, +-, -+) as indices (sig+1)//2,
# (tau+1)//2 into the amplitude array, and -sig*tau, which turns a wave
# amplitude into its channel coefficient psi^{sig tau} and back.
_CH_SIG = np.array([1, 0, 1, 0])
_CH_TAU = np.array([1, 0, 0, 1])
_CH_SIGN = np.array([[-1.0], [-1.0], [1.0], [1.0]])


def extract_transforms(obj, k: float, n: int | None = None) -> TransformVectors4:
    """Read a tensor's plane-wave amplitudes into folded transform vectors.

    ``obj`` is a BasisElement (momentum known) or a bare AmplitudeTensor
    built at the pair (k, sqrt(1-k^2)).  The tensor's momentum pair must
    match (k, sqrt(1-k^2)) up to a swap of which assignment slot carries
    k.  ``n``, if given, must be the tensor's edge count.
    """
    check_fold(k)
    kappa = partner_momentum(k)
    if isinstance(obj, BasisElement):
        tensor = obj.tensor
        m = obj.momentum
        if abs(m.k1 - k) < 1e-9 and abs(m.k2 - kappa) < 1e-9:
            slot_k = 1
        elif abs(m.k2 - k) < 1e-9 and abs(m.k1 - kappa) < 1e-9:
            slot_k = 2
        else:
            raise ValueError(
                f"momentum mismatch: element built at ({m.k1}, {m.k2}), fold at k={k}"
            )
    elif isinstance(obj, AmplitudeTensor):
        tensor = obj
        slot_k = 1
    else:
        raise TypeError(f"expected BasisElement or AmplitudeTensor, got {type(obj)!r}")
    if n is not None and n != tensor.n:
        raise ValueError(f"tensor is built for n = {tensor.n}, not n = {n}")
    n = tensor.n
    # one signed gather: (quadrant, quadrant, sector, channel, slot)
    psi = tensor.amps[:, :, :, _CH_SIG, _CH_TAU] * (_CH_SIGN * kappa)
    if slot_k == 2:
        psi = psi[..., ::-1]
    # per sector: xi = (++ at k, ++ at kappa, -- at k, -- at kappa), chi likewise
    psi = psi.reshape(n, n, 2, 8)
    return TransformVectors4(
        n=n, k=k,
        hat_xi=psi[:, :, 0, :4], hat_chi=psi[:, :, 0, 4:],
        check_xi=psi[:, :, 1, :4], check_chi=psi[:, :, 1, 4:],
    )


# ---------------------------------------------------------------------------
# residual checks on transform vectors


@dataclass(frozen=True)
class KirchhoffResiduals:
    row: float
    column: float
    hat_check_offdiag: float

    @property
    def max(self) -> float:
        return max(self.row, self.column, self.hat_check_offdiag)


def check_kirchhoff_transforms(tv: TransformVectors4) -> KirchhoffResiduals:
    """Defects of the vertex-matching equations on transform vectors.

    Row equations (xi_hat = -chi_hat S) come from the y = 0 boundaries
    and see the hat transforms; column equations
    (xi_check = -S tau chi_check) come from x = 0 and see the check
    transforms.  Also reports how far hat and check drift apart off the
    diagonal, where they must agree.
    """
    n = tv.n
    S = s_matrix(n, EDGE)
    row_defect = tv.hat_xi + np.einsum("ims,mj->ijs", tv.hat_chi, S)
    col_defect = tv.check_xi + np.einsum("im,mjs->ijs", S, tv.check_chi[..., _TAU4])
    off = ~np.eye(n, dtype=bool)
    drift = max(
        float(np.max(np.abs((tv.hat_xi - tv.check_xi)[off]))),
        float(np.max(np.abs((tv.hat_chi - tv.check_chi)[off]))),
    )
    return KirchhoffResiduals(
        row=float(np.max(np.abs(row_defect))),
        column=float(np.max(np.abs(col_defect))),
        hat_check_offdiag=drift,
    )


def coupling_scalars(k: float, c: float) -> tuple[complex, complex]:
    """c_pm = -1j*c/(k +- sqrt(1-k^2)); c_minus blows up at k = 1/sqrt(2)."""
    kappa = partner_momentum(k)
    if c != 0.0 and near_pole(k):
        raise ValueError(
            f"k = {k} is inside the exclusion zone around 1/sqrt(2) for c != 0"
        )
    c_plus = -1j * c / (k + kappa)
    c_minus = 0j if c == 0.0 else -1j * c / (k - kappa)
    return c_plus, c_minus


def diagonal_condition_matrices(k: float, c: float) -> tuple[np.ndarray, np.ndarray]:
    """The 4x4 systems M (xi channels) and N (chi channels) on the diagonal."""
    check_fold(k)
    return _diagonal_matrices(*coupling_scalars(k, c))


def _diagonal_matrices(cp: complex, cm: complex) -> tuple[np.ndarray, np.ndarray]:
    M = np.array(
        [
            [1 + cm, cm, 0, 0],
            [-cm, 1 - cm, 0, 0],
            [0, 0, 1 - cm, -cm],
            [0, 0, cm, 1 + cm],
        ],
        dtype=complex,
    )
    N = np.array(
        [
            [1 + cp, 0, 0, cp],
            [0, 1 + cp, cp, 0],
            [0, -cp, 1 - cp, 0],
            [-cp, 0, 0, 1 - cp],
        ],
        dtype=complex,
    )
    return M, N


@dataclass(frozen=True)
class DiagonalConditionResiduals:
    matrix_form: float      # residual of xi_hat = M xi_check, chi_hat = N chi_check
    raw_equations: float    # residual of the continuity/jump transform identities
    path_discrepancy: float

    @property
    def max(self) -> float:
        return max(self.matrix_form, self.raw_equations)


def check_diagonal_conditions(tv: TransformVectors4, k: float, c: float) -> DiagonalConditionResiduals:
    """Residuals of the diagonal continuity and jump conditions, two ways.

    The matrix path applies M and N to every diagonal quadrant at once.
    The raw path evaluates the folded continuity identities and the four
    jump identities directly from the slots; both must vanish together
    for an actual eigensolution, and the report carries their difference
    as a consistency diagnostic.
    """
    check_fold(k)
    c_plus, c_minus = coupling_scalars(k, c)
    M, N = _diagonal_matrices(c_plus, c_minus)
    # slots on the first axis, the n diagonal quadrants on the second
    d = np.arange(tv.n)
    hx, cx = tv.hat_xi[d, d].T, tv.check_xi[d, d].T
    hc, cc = tv.hat_chi[d, d].T, tv.check_chi[d, d].T
    worst_matrix = max(float(np.max(np.abs(hx - M @ cx))), float(np.max(np.abs(hc - N @ cc))))
    raw = [
        # continuity per channel: folded boundary values agree
        (hx[0] + hx[1]) - (cx[0] + cx[1]),
        (hx[2] + hx[3]) - (cx[2] + cx[3]),
        (hc[0] + hc[3]) - (cc[0] + cc[3]),
        (hc[1] + hc[2]) - (cc[1] + cc[2]),
        # jump per channel
        -(hx[0] - cx[0]) + (hx[1] - cx[1]) + 2 * c_minus * (hx[0] + hx[1]),
        (hx[2] - cx[2]) - (hx[3] - cx[3]) + 2 * c_minus * (hx[2] + hx[3]),
        -(hc[2] - cc[2]) + (hc[1] - cc[1]) - 2 * c_plus * (hc[2] + hc[1]),
        (hc[0] - cc[0]) - (hc[3] - cc[3]) - 2 * c_plus * (hc[0] + hc[3]),
    ]
    worst_raw = float(np.max(np.abs(raw)))
    return DiagonalConditionResiduals(
        matrix_form=worst_matrix,
        raw_equations=worst_raw,
        path_discrepancy=abs(worst_matrix - worst_raw),
    )


# ---------------------------------------------------------------------------
# basic solutions from kernel elements


def kernel_pair_matrices(vec: np.ndarray, n: int, basis: str = SPECTRAL) -> tuple[np.ndarray, np.ndarray]:
    """Split a stacked kernel vector into its two n x n matrices, edge basis."""
    if basis == SPECTRAL:
        vec = _conjugate(vec, n)
    return vec[: n * n].reshape(n, n), vec[n * n :].reshape(n, n)


def basic_solution_tensor(n: int, chi_hat: np.ndarray, chi_check: np.ndarray, tau_sign: int) -> AmplitudeTensor:
    """Plane-wave tensor of a vertex-compatible (basic) solution.

    ``(chi_hat, chi_check)`` is an element of ker(PI_perp o Q_pm) in the
    edge basis (sign matching ``tau_sign``: the tau = -1 eigenspace pairs
    with Q_plus, tau = +1 with Q_minus).  The xi channels are filled in
    from the row/column vertex equations, so the result satisfies both
    by construction; it need not satisfy the diagonal conditions, which
    is the point of basic solutions.  The tensor is momentum-agnostic:
    evaluate it at any pair (k, sqrt(1-k^2)) with assignment slot 1.
    """
    if tau_sign not in (1, -1):
        raise ValueError("tau_sign must be +1 or -1")
    S = s_matrix(n, EDGE)
    xi_hat = -chi_hat @ S
    xi_check = -tau_sign * (S @ chi_check)
    off = ~np.eye(n, dtype=bool)
    drift = max(
        float(np.max(np.abs((chi_hat - chi_check)[off]))),
        float(np.max(np.abs((xi_hat - xi_check)[off]))),
    )
    if drift > 1e-9:
        raise ValueError(
            f"pair is not vertex-compatible: off-diagonal hat/check drift {drift:.3e}"
        )
    # channels (++, --, +-, -+) carry (xi, tau_sign xi, chi, tau_sign chi) in
    # slot 1; -sig*tau turns each into its wave amplitude
    sign = _CH_SIGN[:, 0] * np.array([1.0, tau_sign, 1.0, tau_sign])
    amps = np.zeros((n, n, 2, 2, 2, 2), dtype=complex)
    for plane, (xi, chi) in enumerate(((xi_hat, chi_hat), (xi_check, chi_check))):
        amps[:, :, plane, _CH_SIG, _CH_TAU, 0] = sign * np.stack([xi, xi, chi, chi], axis=-1)
    # off the diagonal, where hat = check, both planes hold the hat values
    amps[off, 1] = amps[off, 0]
    return AmplitudeTensor(amps)
