"""Test-side constructors and oracles for amplitude tensors and kernels.

``edge_wave`` evaluates a one-particle solution on one edge from its
coefficients, the oracle the one-particle tests read them with.
``from_entries`` builds a tensor from keyed amplitudes, and
``resynthesize_tensor`` rebuilds one from transform vectors key by key,
independently of the array gather in ``extract_transforms``.
``single_slot_product`` is one unsymmetrised product in one momentum
slot, the oracle of the exchange-symmetrised ``product_tensor``.
``verify_full_basis_oracle`` and ``mutation_sweep_oracle`` check one
element or mutant at a time, each as an unstacked tensor; they are the
oracles of the stacked whole-basis checks.  ``basis_rank_oracle`` takes
one SVD of every element's values at random points (``sample_points``),
without the exchange-parity split and without the tables' coefficients;
it is the reference of ``basis_rank``.  ``table_coefficients`` reads one
element's table cell by cell, the oracle of ``sample_matrix``'s gather,
and ``table_rank`` takes one SVD of each parity block's coefficient rows,
the reference of the rank that ``basis_rank`` reads from the product
structure.  ``offdiag_drift_masked`` is the hat/check drift taken by
boolean-mask gathers on every stacked array, the oracle of
``check_kirchhoff_transforms``' exact plane comparison.
``norm_lhs_dense`` builds psi on the whole X x X composite-Gauss grid
and sums its weighted density, the oracle of the Hermitian form of
``verifier._norm_lhs``.
The closed-form kernel patterns are the cross-check of
``compute_kernel_decomposition``; they change basis through the dense
``kron(F, F)``, independently of the per-matrix conversion in the package.
"""

import math
from typing import Callable, Mapping

import numpy as np

from stardelta import transforms as tr
from stardelta import verifier as vf
from stardelta.basis import build_basis, family_counts
from stardelta.domain import (
    ABOVE,
    BELOW,
    OFFDIAG,
    AmplitudeTensor,
    EntryKey,
    _entry_index,
    partner_momentum,
    wave_momenta,
    wave_phases,
)
from stardelta.oneparticle import EDGE, LARGER, NEUTRAL, SMALLER, SPECTRAL, OneParticleSolution
from stardelta.transforms import TransformVectors4, change_of_basis

# the (sig, tau) channel of each slot pair of xi, then chi
CHANNELS = ((1, 1), (-1, -1), (1, -1), (-1, 1))


def from_entries(n: int, entries: Mapping[EntryKey, complex]) -> AmplitudeTensor:
    """Tensor of an n-edge star from keyed amplitudes; keys that coincide
    (an off-diagonal quadrant under two sector tags) add up."""
    amps = np.zeros((n, n, 2, 2, 2, 2), dtype=complex)
    for key, amp in entries.items():
        amps[_entry_index(n, key)] += amp
    return AmplitudeTensor(amps)


def resynthesize_tensor(tv: TransformVectors4) -> AmplitudeTensor:
    """Inverse of extract_transforms for a tensor with k in assignment slot 1.

    Slot 2c + s of (xi, chi) is the channel CHANNELS[c] at assignment slot
    s + 1, weighted by kappa; the wave amplitude is -sig*tau*psi/kappa.
    Off the diagonal, where hat = check, the check values are kept.
    """
    kappa = np.sqrt(1.0 - tv.k * tv.k)
    entries = {}
    for i in range(1, tv.n + 1):
        for j in range(1, tv.n + 1):
            if i == j:
                sectors = ((ABOVE, tv.hat_xi, tv.hat_chi), (BELOW, tv.check_xi, tv.check_chi))
            else:
                sectors = ((OFFDIAG, tv.check_xi, tv.check_chi),)
            for sector, xi, chi in sectors:
                psi = np.concatenate([xi[i - 1, j - 1], chi[i - 1, j - 1]])
                for c, (sig, tau) in enumerate(CHANNELS):
                    for s in (0, 1):
                        entries[(i, j, sector, sig, tau, s + 1)] = -sig * tau * psi[2 * c + s] / kappa
    return from_entries(tv.n, entries)


def edge_wave(sol: OneParticleSolution, edge: int, x, k, branch: str = NEUTRAL, order: int = 0):
    """The ``order``-th x-derivative of a one-particle solution on one edge
    at momentum k, on the given branch: its coefficients read as waves."""
    a, b = sol.coeff[edge - 1]
    x = np.asarray(x, dtype=float)
    return sol.branch_scale(branch) * (
        a * (-1j * k) ** order * np.exp(-1j * k * x) + b * (1j * k) ** order * np.exp(1j * k * x)
    )


def single_slot_product(
    n: int, fx: OneParticleSolution, gy: OneParticleSolution, assignment: tuple[int, int]
) -> AmplitudeTensor:
    """fx(x, k_s) * gy(y, k_t) alone, in slot 1 for assignment (1, 2) (x
    carries k1) or slot 2 for (2, 1) (x carries k2).

    On a diagonal quadrant the branch of each factor follows its own
    variable: in the "above" sector x is the larger coordinate, so fx
    takes its larger-branch scale and gy its smaller-branch scale.
    """
    waves = np.einsum("as,bt->abst", fx.coeff, gy.coeff)  # edge a, edge b, sig, tau
    amps = np.zeros((n, n, 2, 2, 2, 2), dtype=complex)
    slot = amps[..., assignment[0] - 1]  # view: quadrant, quadrant, sector, sig, tau
    slot[:] = waves[:, :, None]
    d = np.arange(n)
    slot[d, d, 0] = fx.branch_scale(LARGER) * gy.branch_scale(SMALLER) * waves[d, d]
    slot[d, d, 1] = fx.branch_scale(SMALLER) * gy.branch_scale(LARGER) * waves[d, d]
    return AmplitudeTensor(amps)


def projection_defect(U: np.ndarray, vecs: np.ndarray) -> float:
    """max_j ||(I - U U*) v_j|| / ||v_j|| over the nonzero columns v_j."""
    norms = np.linalg.norm(vecs, axis=0)
    resid = np.linalg.norm(vecs - U @ (U.conj().T @ vecs), axis=0)
    keep = norms > 0
    return float(np.max(resid[keep] / norms[keep], initial=0.0))


# -- closed-form kernel patterns --------------------------------------------


def _pair(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return np.concatenate([A.reshape(-1), B.reshape(-1)])


def _to_basis(vecs: list[np.ndarray], n: int, src: str, dst: str) -> np.ndarray:
    cols = np.column_stack(vecs)
    if src == dst:
        return cols
    F = change_of_basis(n)
    return (np.kron(F, F) @ cols.reshape(2, n * n, -1)).reshape(cols.shape)


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


# -- the joint rank ------------------------------------------------------------


def sample_points(n: int, count: int, seed: int):
    """Random evaluation points spread over all quadrants and sectors.

    Returns 1-based quadrants (count, 2), sector planes (1 for the below
    sector of a diagonal quadrant, else 0) and coordinates (count, 2).
    """
    rng = np.random.default_rng(seed)
    quads = rng.integers(1, n + 1, size=(count, 2))
    xy = rng.uniform(0.05, vf.SPAN, size=(count, 2))
    planes = ((quads[:, 0] == quads[:, 1]) & (rng.random(count) >= 0.5)).astype(int)
    return quads, planes, xy


def sampled_values(elements, count, seed) -> np.ndarray:
    """Each element's values at the ``sample_points`` of (count, seed),
    unscaled, one row per element, each gathered from its own table."""
    m, n = elements[0].momentum, elements[0].tensor.n
    quads, planes, xy = sample_points(n, count, seed)
    phases = wave_phases(*wave_momenta(m.k1, m.k2), xy[:, 0], xy[:, 1])
    i, j = quads[:, 0] - 1, quads[:, 1] - 1
    return np.stack([
        np.einsum("pw,wp->p", el.tensor.amps[i, j, planes].reshape(count, 8), phases)
        for el in elements
    ])


def basis_rank_oracle(elements, seed=0) -> tuple[int, np.ndarray]:
    """The basis rank as one values-only SVD of all elements' rows.

    Each element is sampled on its own table at ``max(4E, 2E + 16)``
    random points for E elements.  Each row is divided by its largest
    |value|, the ``sym_diag`` rows by one common factor; the last
    ``sym_diag`` row is replaced by the family's row sum, or by zero
    where that sum is within ``SUM_FLOOR`` of its largest term, and the
    rows are normalised.
    """
    n, need = elements[0].tensor.n, len(elements)
    mat = sampled_values(elements, max(4 * need, 2 * need + 16), seed)
    scale = np.abs(mat).max(axis=1)
    diag = [row for row, el in enumerate(elements) if el.family == "sym_diag"]
    if len(diag) == n:
        scale[diag] = scale[diag].max()
    mat /= np.where(scale > 0, scale, 1.0)[:, None]
    if len(diag) == n:
        total = mat[diag].sum(axis=0)
        resolved = np.linalg.norm(total) > vf.SUM_FLOOR * np.linalg.norm(mat[diag], axis=1).max()
        mat[diag[-1]] = total if resolved else 0.0
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    svals = np.linalg.svd(mat / np.where(norms > 0, norms, 1.0), compute_uv=False)
    return int(np.sum(svals > vf.GRAM_GAP * svals[0])), svals


def table_coefficients(el, half: bool) -> np.ndarray:
    """One element's plane-wave coefficients, read cell by cell: per
    quadrant (a, b) and sector plane in index order, the summed amplitudes
    of each distinct wave momentum, in order of first appearance.  The
    half table reads quadrants a <= b on plane 0, the full one every
    quadrant on plane 0 and the diagonal ones on plane 1 too."""
    n = el.tensor.n
    kx, ky = wave_momenta(el.momentum.k1, el.momentum.k2)
    momenta = list(dict.fromkeys(zip(kx.tolist(), ky.tolist())))
    out = []
    for a in range(n):
        for b in range(n):
            for s in (0, 1):
                if (half and (b < a or s == 1)) or (s == 1 and a != b):
                    continue
                waves = el.tensor.amps[a, b, s].reshape(8)
                for k in momenta:
                    out.append(sum(w for w, q in zip(waves, zip(kx.tolist(), ky.tolist())) if q == k))
    return np.array(out, dtype=complex)


def table_rank(elements) -> int:
    """The rank read from the coefficient tables alone: one SVD of each
    checked parity block's half-table rows, or of the one-block fallback's
    full-table rows, each counting the singular values above ``GRAM_GAP``
    times its largest; no product structure is used."""
    rank = 0
    for block in vf.exchange_blocks(elements):
        s = np.linalg.svd(vf.sample_matrix(block), compute_uv=False)
        rank += int(np.sum(s > vf.GRAM_GAP * s[0]))
    return rank


def offdiag_drift_masked(*pairs):
    """Largest |hat - check| off the diagonal, per stacked (..., n, n, m)
    array, by a boolean-mask gather of every array."""
    off = ~np.eye(pairs[0][0].shape[-2], dtype=bool)
    return np.maximum.reduce([np.abs((hat - check)[..., off, :]).max(axis=(-2, -1), initial=0.0)
                              for hat, check in pairs])


# -- per-element whole-basis checks -------------------------------------------


def _verify_one(el, samples, tol, offset) -> "vf.ResidualReport":
    n = el.tensor.n
    sol = vf.TensorSolution.from_element(el)
    checks = vf.check_vertex_bc(sol, n, samples=samples, tol=tol, offset=offset)
    checks += vf.check_diagonal_bc(sol, n, el.coupling, samples=samples, tol=tol, offset=offset)
    tv = tr.extract_transforms(el.tensor, el.momentum)
    kir = tr.check_kirchhoff_transforms(tv)
    diag = tr.check_diagonal_conditions(tv, el.coupling)
    checks.append(vf.CheckResult("transform_kirchhoff", kir.max, 4 * n * n, vf.TRANSFORM_TOL))
    checks.append(vf.CheckResult("transform_diagonal", diag.max, 8 * n, vf.TRANSFORM_TOL))
    pointwise_diag = [c for c in checks if c.name == "diagonal_jump"][0]
    agree = pointwise_diag.passed == (diag.max <= tol)
    checks.append(vf.CheckResult("transform_pointwise_agreement", 0.0 if agree else 1.0, 1, 0.5))
    return vf.ResidualReport(solution_id=el.label, checks=checks)


def verify_full_basis_oracle(cfg, m, samples=vf.DEFAULT_SAMPLES, tol=vf.DEFAULT_TOL) -> "vf.ResidualReport":
    """``verify_full_basis`` one element at a time, element idx at offset idx * 7."""
    elements = build_basis(cfg, m)
    checks = []
    sub_reports = []
    for idx, el in enumerate(elements):
        rep = _verify_one(el, samples, tol, idx * 7)
        sub_reports.append(rep)
        worst_ratio = max(c.max_abs_residual / c.tolerance for c in rep.checks)
        checks.append(vf.CheckResult(f"element:{el.label}", worst_ratio, samples, 1.0))
    rank, svals = vf.basis_rank(elements)
    rank_ok = rank == len(elements)
    checks.append(vf.CheckResult("basis_rank", 0.0 if rank_ok else 1.0, len(elements), 0.5))
    return vf.ResidualReport(
        solution_id=f"basis(n={cfg.n}, c={cfg.c}, k1={m.k1.real})",
        checks=checks,
        extras={
            "element_count": len(elements),
            "family_counts": family_counts(elements),
            "rank": rank,
            "rank_expected": len(elements),
            "singular_value_ratio": float(svals[-1] / svals[0]),
            "elements": [rep.to_dict() for rep in sub_reports],
        },
    )


def mutation_sweep_oracle(cfg, m, rel=vf.DEFAULT_REL, per_element=1, detect_above=vf.DEFAULT_DETECT_ABOVE, seed=0):
    """``mutation_sweep`` one mutant at a time, each at offset 0."""
    rng = np.random.default_rng(seed)
    out = []
    for el in build_basis(cfg, m):
        keys = [key for key, _amp in el.tensor.items()]
        picks = rng.choice(len(keys), size=min(per_element, len(keys)), replace=False)
        for pick in picks:
            key = keys[int(pick)]
            sol = vf.TensorSolution(el.tensor.with_scaled_entry(key, 1.0 + rel), el.momentum)
            checks = vf.check_vertex_bc(sol, cfg.n, samples=vf.MUTATION_SAMPLES)
            checks += vf.check_diagonal_bc(sol, cfg.n, el.coupling, samples=vf.MUTATION_SAMPLES)
            worst = max(c.max_abs_residual for c in checks)
            out.append(
                {
                    "element": el.label,
                    "entry": list(key),
                    "relative_change": rel,
                    "max_residual": float(worst),
                    "detected": bool(worst > detect_above),
                }
            )
    return out


def norm_lhs_dense(profiles: Mapping[tuple[int, int], Callable], R: float, panel: float, k_count: int) -> float:
    """(1/R) * the weighted sum of |psi|^2 over the X x X grid of composite
    8-point Gauss panels of width at most ``panel`` on [0, R], psi built
    channel by channel as one X x K x X product on a ``k_count``-knot rule."""
    knots, kweights = vf.gauss_legendre(k_count)
    kappa = partner_momentum(knots)
    edges = np.linspace(0.0, R, max(1, int(math.ceil(R / panel))) + 1)
    xs, ws = (a.reshape(-1) for a in vf.gauss_legendre(8, edges[:-1], edges[1:]))
    psi = np.zeros((xs.size, xs.size), dtype=complex)
    for (sig, tau), g in profiles.items():
        coeff = (-sig * tau) * kweights * np.asarray(g(knots), dtype=complex)
        ex = np.exp(1j * sig * np.outer(xs, knots))
        ey = np.exp(1j * tau * np.outer(kappa, xs))
        psi += ex @ (coeff[:, None] * ey)
    return float(ws @ (np.abs(psi) ** 2) @ ws) / R
