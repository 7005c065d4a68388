"""Transform-side linear algebra: vertex equations, kernels, diagonal systems."""

import json
import math

import numpy as np
import pytest

from stardelta.basis import build_basis
from stardelta.domain import ABOVE, AmplitudeTensor, MomentumPair, make_config
from stardelta import transforms as tr
from helpers import (
    from_entries,
    k_minus_patterns,
    k_minus_targets,
    k_plus_patterns,
    offdiag_drift_masked,
    projection_defect,
    q_minus_kernel_patterns,
    q_plus_kernel_patterns,
    resynthesize_tensor,
)

CFG3 = make_config(3, 1.0)
K = 0.6
M68 = MomentumPair.from_k1(K)


# -- operators and bases -------------------------------------------------------


def test_change_of_basis_properties():
    for n in (3, 5):
        F = tr.change_of_basis(n)
        assert np.allclose(F @ F, np.eye(n), atol=1e-14)
        assert np.allclose(F, F.T)
        assert np.allclose(F[:, 0], np.full(n, 1 / math.sqrt(n)))
        S_e = tr.s_matrix(n, tr.EDGE)
        assert np.allclose(F @ tr.s_matrix(n, tr.SPECTRAL) @ F, S_e, atol=1e-14)


def test_tau_commutes_with_s_action_and_projection():
    # tau acts on the channel slots, S and the diagonal projection act on
    # the quadrant indices; the actions commute entrywise
    rng = np.random.default_rng(0)
    n = 4
    chi = rng.normal(size=(n, n, 2)) + 1j * rng.normal(size=(n, n, 2))
    S = tr.s_matrix(n, tr.EDGE)
    perm = [1, 0]
    left = np.einsum("ims,mj->ijs", chi[..., perm], S)
    right = np.einsum("ims,mj->ijs", chi, S)[..., perm]
    assert np.allclose(left, right, atol=1e-14)
    mask = ~np.eye(n, dtype=bool)
    assert np.allclose((chi[..., perm] * mask[..., None]), (chi * mask[..., None])[..., perm])
    # tau is an involution
    assert np.allclose(chi[..., perm][..., perm], chi)


def test_q_operator_shape_and_action():
    n = 3
    Q = tr.build_q_operator(n, 1, tr.SPECTRAL)
    assert Q.shape == (2 * n * n, 2 * n * n)
    rng = np.random.default_rng(5)
    A = rng.normal(size=(n, n))
    B = rng.normal(size=(n, n))
    S = tr.s_matrix(n, tr.SPECTRAL)
    out = Q @ np.concatenate([A.reshape(-1), B.reshape(-1)])
    assert np.allclose(out[: n * n].reshape(n, n), A @ S + S @ B, atol=1e-14)
    assert np.allclose(out[n * n :].reshape(n, n), A - B, atol=1e-14)


def test_closed_form_kernel_patterns_annihilated():
    for n in (3, 4):
        qp = tr.build_q_operator(n, 1, tr.SPECTRAL)
        qm = tr.build_q_operator(n, -1, tr.SPECTRAL)
        assert np.max(np.abs(qp @ q_plus_kernel_patterns(n))) <= 1e-14
        assert np.max(np.abs(qm @ q_minus_kernel_patterns(n))) <= 1e-14


def test_q_minus_kernel_dimension_n3():
    Q = tr.build_q_operator(3, -1)
    assert tr.nullspace(Q).shape[1] == 5  # (3-1)^2 + 1


@pytest.mark.parametrize("n", [*range(3, 25), 32, 40])
def test_kernel_decomposition_dimensions(n):
    report = tr.compute_kernel_decomposition(n)
    assert report.passed
    assert report.dims == {
        "ker_Q_plus": 2 * (n - 1),
        "ker_Q_minus": (n - 1) ** 2 + 1,
        "K_plus": 2,
        "K_minus": n - 1,
    }
    assert report.total == n * n + n + 1
    assert max(report.residuals.values()) <= 1e-10


@pytest.mark.parametrize("n", [2, 1, 0])
def test_kernel_decomposition_refuses_fewer_than_3_edges(n):
    # the one edge-count rule of a problem instance, not a FAIL report
    with pytest.raises(ValueError, match=f"need at least 3 edges, got n={n}"):
        tr.compute_kernel_decomposition(n)
    with pytest.raises(ValueError, match=f"need at least 3 edges, got n={n}"):
        tr.build_q_operator(n, 1)


def test_kernel_decomposition_closed_form_cross_checks():
    for n in range(3, 13):
        for basis in (tr.EDGE, tr.SPECTRAL):
            report = tr.compute_kernel_decomposition(n, basis)
            pairs = [
                ("ker_Q_plus", q_plus_kernel_patterns(n, basis)),
                ("ker_Q_minus", q_minus_kernel_patterns(n, basis)),
                ("K_plus", k_plus_patterns(n, basis)),
                ("K_minus", k_minus_patterns(n, basis)),
            ]
            for name, patterns in pairs:
                assert report.bases[name].shape[1] == patterns.shape[1], (n, basis, name)
                defect = projection_defect(report.bases[name], tr.orthonormalize(patterns))
                assert defect <= 1e-10, (n, basis, name, defect)


def test_k_minus_preimage_maps_onto_targets():
    # Q_minus carries the corrected preimage pairs onto (-2C, 2C)
    n = 4
    Q = tr.build_q_operator(n, -1, tr.EDGE)
    pre = k_minus_patterns(n, tr.EDGE)
    tgt = k_minus_targets(n, tr.EDGE)
    assert np.max(np.abs(Q @ pre - tgt @ np.diag([-2.0] * (n - 1)))) <= 1e-13


def test_edge_and_spectral_bases_agree():
    n = 4
    rep_e = tr.compute_kernel_decomposition(n, basis=tr.EDGE)
    rep_f = tr.compute_kernel_decomposition(n, basis=tr.SPECTRAL)
    assert rep_e.dims == rep_f.dims
    # subspace projectors agree after the vec-level change of basis
    F = tr.change_of_basis(n)
    T = np.kron(F, F)
    full = np.block([[T, np.zeros_like(T)], [np.zeros_like(T), T]])
    for name in rep_e.bases:
        Pe = rep_e.bases[name] @ rep_e.bases[name].T.conj()
        Pf = rep_f.bases[name] @ rep_f.bases[name].T.conj()
        assert np.max(np.abs(Pe - full @ Pf @ full)) <= 1e-12


def test_ker_p_splits_as_direct_sum():
    for n, sign in ((3, 1), (4, -1)):
        report = tr.compute_kernel_decomposition(n, basis=tr.EDGE)
        tag = "plus" if sign == 1 else "minus"
        ker_q = report.bases[f"ker_Q_{tag}"]
        k_sub = report.bases[f"K_{tag}"]
        # orthogonal
        assert np.max(np.abs(ker_q.T.conj() @ k_sub)) <= 1e-12
        # their union spans ker(P)
        P = tr.build_p_operator(n, sign)
        ker_p = tr.nullspace(P)
        joint = tr.orthonormalize(np.hstack([ker_q, k_sub]))
        assert ker_p.shape[1] == joint.shape[1]
        assert projection_defect(joint, ker_p) <= 1e-10
        assert np.max(np.abs(P @ joint)) <= 1e-12


def _stacked_svd_decomposition(n, basis):
    """The four kernel bases the long way, as an oracle.

    Separate SVDs for ker Q and ran Q, the intersection of ran Q with the
    diagonal pairs from the null space of the stacked bases, and the
    preimage from lstsq, all with the operator built in ``basis``.
    """
    F = tr.change_of_basis(n)
    to_basis = np.kron(np.eye(2), np.kron(F, F)) if basis == tr.SPECTRAL else np.eye(2 * n * n)
    on_diag = np.tile(np.eye(n).reshape(-1), 2) == 1.0
    diag_pairs = to_basis @ np.eye(2 * n * n)[:, on_diag]
    out = {}
    for sign, tag in ((1, "plus"), (-1, "minus")):
        Q = tr.build_q_operator(n, sign, basis)
        out[f"ker_Q_{tag}"] = tr.nullspace(Q)
        ran = tr.orthonormal_range(Q)
        combos = tr.nullspace(np.hstack([diag_pairs, -ran]))
        target = tr.orthonormalize(diag_pairs @ combos[: diag_pairs.shape[1]])
        pre, *_ = np.linalg.lstsq(Q, target, rcond=None)
        out[f"K_{tag}"] = tr.orthonormalize(pre)
    return out


def _dense_decomposition(n, basis):
    """The four kernel bases and ker(PI_perp o Q) from dense edge-basis SVDs.

    One SVD of each Q gives ker Q, the left kernel and the minimum-norm
    preimage; the targets are the diagonal pairs orthogonal to the left
    kernel; ker(PI_perp o Q) is the null space of the dense P.  The bases
    are converted to ``basis`` by kron(F, F).
    """
    F = tr.change_of_basis(n)
    to_basis = np.kron(np.eye(2), np.kron(F, F)) if basis == tr.SPECTRAL else np.eye(2 * n * n)
    diag = np.flatnonzero(np.tile(np.eye(n).reshape(-1), 2))
    out = {}
    for sign, tag in ((1, "plus"), (-1, "minus")):
        u, s, vh = np.linalg.svd(tr.build_q_operator(n, sign, tr.EDGE))
        r = int(np.count_nonzero(s > tr.RANK_RTOL * s[0]))
        _, cos, wh = np.linalg.svd(u[diag, r:].T)
        y = wh[int(np.count_nonzero(cos > tr.RANK_RTOL)):].T
        pre = vh[:r].T @ ((u[diag, :r].T @ y) / s[:r, None])
        out[f"ker_Q_{tag}"] = to_basis @ vh[r:].T
        out[f"K_{tag}"] = to_basis @ tr.orthonormalize(pre)
        out[f"ker_P_{tag}"] = to_basis @ tr.nullspace(tr.build_p_operator(n, sign))
    return out


@pytest.mark.parametrize("basis", [tr.EDGE, tr.SPECTRAL])
@pytest.mark.parametrize("n", [*range(3, 9), 12, 16])
def test_kernel_decomposition_matches_stacked_svd_oracle(n, basis):
    report = tr.compute_kernel_decomposition(n, basis)
    dense = _dense_decomposition(n, basis)
    for oracle in (_stacked_svd_decomposition(n, basis), dense):
        for name in report.bases:
            cols = oracle[name]
            assert report.dims[name] == cols.shape[1], name
            assert projection_defect(cols, report.bases[name]) <= 1e-9, name
            assert projection_defect(report.bases[name], cols) <= 1e-9, name
    # ker(PI_perp o Q) is spanned by ker Q and K together
    for tag in ("plus", "minus"):
        joint = np.hstack([report.bases[f"ker_Q_{tag}"], report.bases[f"K_{tag}"]])
        ker_p = dense[f"ker_P_{tag}"]
        assert joint.shape[1] == ker_p.shape[1], tag
        assert projection_defect(joint, ker_p) <= 1e-9, tag
        assert projection_defect(ker_p, joint) <= 1e-9, tag


@pytest.mark.parametrize("n", [4, 5])
def test_kernel_dims_follow_a_wrong_s(monkeypatch, n):
    # an S with two +1 eigenvalues: the rank decisions must see it, so the
    # dims move away from the prediction and the report fails
    d = -np.ones(n)
    d[:2] = 1.0
    F = tr.change_of_basis(n)
    wrong = {tr.SPECTRAL: np.diag(d), tr.EDGE: F @ np.diag(d) @ F}
    monkeypatch.setattr(tr, "s_matrix", lambda n, basis: wrong[basis])
    report = tr.compute_kernel_decomposition(n)
    assert report.dims != {key: fn(n) for key, fn in tr.PREDICTED_DIMS.items()}
    # commutant and anticommutant of S = diag(1, 1, -1, ..., -1)
    assert report.dims["ker_Q_minus"] == 4 + (n - 2) ** 2
    assert report.dims["ker_Q_plus"] == 4 * (n - 2)
    assert not report.passed


@pytest.mark.parametrize("n", [4, 5])
def test_kernel_residuals_see_an_s_whose_plus_one_is_not_uniform(monkeypatch, n):
    # a spectral S whose one +1 sits on f_2, not on the uniform f_1: the
    # blocks read only its diagonal, whose values keep their counts, so the
    # dims stay as predicted; the residuals apply the true edge-basis S in
    # closed form to the bases built from it, and must fail
    d = -np.ones(n)
    d[1] = 1.0
    F = tr.change_of_basis(n)
    wrong = {tr.SPECTRAL: np.diag(d), tr.EDGE: F @ np.diag(d) @ F}
    monkeypatch.setattr(tr, "s_matrix", lambda n, basis: wrong[basis])
    report = tr.compute_kernel_decomposition(n)
    assert report.dims == {key: fn(n) for key, fn in tr.PREDICTED_DIMS.items()}
    keys = ("ker_Q_plus_apply", "ker_Q_minus_apply", "K_plus_preimage", "K_minus_preimage")
    assert max(report.residuals[key] for key in keys) > 1e-8
    assert not report.passed


@pytest.mark.parametrize("n", [3, 12, 26, 40])
@pytest.mark.parametrize("shape", [(2, None, None, 4), (None, None, 7)], ids=["stacked", "kernel_columns"])
def test_vertex_xi_is_the_dense_product(n, shape):
    # -chi_hat S and -S tau chi_check in closed form against the dense
    # S.T @ A and S @ B, on stacked (E, n, n, 4) slot arrays and on the
    # (n, n, m) kernel columns of _apply_q, within eight ulps of the summed
    # magnitudes of the terms that make each entry
    rng = np.random.default_rng(n)
    shape = tuple(n if size is None else size for size in shape)
    A, B = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2))
    S = tr.s_matrix(n, tr.EDGE)
    flat = shape[:-2] + (-1,)  # S acts on the first quadrant axis of B
    dense = (-(S.T @ A), -(S @ B.reshape(flat)).reshape(shape))
    scale = (np.abs(S) @ np.abs(A), (np.abs(S) @ np.abs(B).reshape(flat)).reshape(shape))
    eps = np.finfo(float).eps
    for closed, oracle, size in zip(tr._vertex_xi(A, B), dense, scale):
        assert np.all(np.abs(closed - oracle) <= 8 * eps * size)


def test_kernel_residuals_see_a_k_column_outside_ker_p(monkeypatch):
    # add a component from ker(P_plus)^perp = ran(P_plus^T) to the first K column
    n = 4
    P = tr.build_p_operator(n, 1)
    F = tr.change_of_basis(n)
    to_spectral = np.kron(np.eye(2), np.kron(F, F))
    v = to_spectral @ P.T @ np.random.default_rng(3).normal(size=P.shape[0])
    v /= np.linalg.norm(v)
    orthonormalize = tr.orthonormalize

    def leaky(cols):
        K = orthonormalize(cols)
        K[:, 0] += 1e-6 * v
        return K

    monkeypatch.setattr(tr, "orthonormalize", leaky)
    report = tr.compute_kernel_decomposition(n)
    assert report.residuals["ker_P_plus_apply"] > 1e-8
    assert not report.passed


# -- transform extraction -------------------------------------------------------


def test_extract_single_plane_wave():
    # amplitude 1 in channel (+, +) means psi^{++} = -1, weighted by kappa
    t = from_entries(3, {(1, 1, ABOVE, 1, 1, 1): 1.0})
    tv = tr.extract_transforms(t, M68)
    kappa = math.sqrt(1 - K * K)
    assert tv.hat_xi[0, 0, 0] == pytest.approx(-kappa)
    assert np.count_nonzero(tv.hat_xi) == 1
    assert np.count_nonzero(tv.hat_chi) == 0
    assert np.count_nonzero(tv.check_xi) == 0


def test_extract_offdiagonal_hat_equals_check():
    el = build_basis(CFG3, M68)[3]
    tv = tr.extract_transforms(el.tensor, M68)
    off = ~np.eye(3, dtype=bool)
    assert np.max(np.abs((tv.hat_xi - tv.check_xi)[off])) <= 1e-14
    assert np.max(np.abs((tv.hat_chi - tv.check_chi)[off])) <= 1e-14


def test_extract_accepts_swapped_momentum():
    # k in slot 1 (k1 < k2) or slot 2 (k2 < k1): the fold and the slot come
    # from the pair
    m, m_swapped = MomentumPair(0.6, 0.8), MomentumPair(0.8, 0.6)
    for n in (3, 4, 5, 6):
        cfg = make_config(n, -1.5)
        wrong_slot = 0.0
        for el, el_swapped in zip(build_basis(cfg, m), build_basis(cfg, m_swapped)):
            tv = tr.extract_transforms(el.tensor, m)
            tv_swapped = tr.extract_transforms(el_swapped.tensor, m_swapped)
            assert tv.k == tv_swapped.k == K
            for tv_el in (tv, tv_swapped):
                assert tr.check_kirchhoff_transforms(tv_el).max <= 1e-12, (n, el.label)
                assert tr.check_diagonal_conditions(tv_el, cfg.c).max <= 1e-10, (n, el.label)
            # read with the other pair's slot, the diagonal conditions see it
            for tensor, other in ((el.tensor, m_swapped), (el_swapped.tensor, m)):
                wrong = tr.check_diagonal_conditions(tr.extract_transforms(tensor, other), cfg.c)
                wrong_slot = max(wrong_slot, wrong.max)
        assert wrong_slot > 1.0, n


def test_roundtrip_extract_resynthesize():
    rng = np.random.default_rng(14)
    for el in (build_basis(CFG3, M68)[1], build_basis(CFG3, M68)[-1]):
        tv = tr.extract_transforms(el.tensor, M68)
        back = resynthesize_tensor(tv)
        for _ in range(50):
            i, j = (int(v) for v in rng.integers(1, 4, size=2))
            sector = "off" if i != j else (ABOVE if rng.random() < 0.5 else "below")
            x, y = rng.uniform(0, 10, size=2)
            a = el.tensor.value_array(i, j, sector, x, y, M68)[0]
            b = back.value_array(i, j, sector, x, y, M68)[0]
            assert a == pytest.approx(b, abs=1e-12)


# -- vertex equations on transforms --------------------------------------------


def _zero_transforms(n, k):
    z = np.zeros((n, n, 4), dtype=complex)
    return tr.TransformVectors4(k=k, hat_xi=z, hat_chi=z, check_xi=z, check_chi=z)


def test_kirchhoff_zero_transforms():
    tv = _zero_transforms(3, K)
    res = tr.check_kirchhoff_transforms(tv)
    assert res.max == 0.0


def test_kirchhoff_all_basis_elements():
    for el in build_basis(CFG3, M68):
        res = tr.check_kirchhoff_transforms(tr.extract_transforms(el.tensor, M68))
        assert res.max <= 1e-11, el.label


def test_kirchhoff_random_transforms_fail():
    rng = np.random.default_rng(23)
    arr = lambda: rng.normal(size=(3, 3, 4)) + 0j
    tv = tr.TransformVectors4(
        k=K, hat_xi=arr(), hat_chi=arr(), check_xi=arr(), check_chi=arr()
    )
    assert tr.check_kirchhoff_transforms(tv).max > 1e-3


# -- diagonal matching systems --------------------------------------------------


def test_diagonal_matrices_identity_at_zero_coupling():
    M, N = tr.diagonal_condition_matrices(0.3, 0.0)
    assert np.allclose(M, np.eye(4))
    assert np.allclose(N, np.eye(4))


def test_diagonal_matrices_scalars_at_k_zero():
    # c_minus = ic, c_plus = -ic at k = 0
    M, N = tr.diagonal_condition_matrices(0.0, 1.5)
    assert M[0, 0] == pytest.approx(1 + 1.5j)
    assert M[0, 1] == pytest.approx(1.5j)
    assert N[0, 0] == pytest.approx(1 - 1.5j)
    assert N[0, 3] == pytest.approx(-1.5j)


def test_diagonal_matrices_unimodular():
    rng = np.random.default_rng(1)
    for _ in range(20):
        k = rng.uniform(0.0, 0.70)
        c = rng.uniform(-3, 3)
        M, N = tr.diagonal_condition_matrices(k, c)
        assert np.linalg.det(M) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.det(N) == pytest.approx(1.0, abs=1e-12)


def test_pole_exclusion_zone():
    k_pole = 1.0 / math.sqrt(2.0)
    with pytest.raises(ValueError):
        tr.diagonal_condition_matrices(k_pole - 1e-9, 1.0)
    # admissible for c = 0
    M, N = tr.diagonal_condition_matrices(k_pole - 1e-9, 0.0)
    assert np.allclose(M, np.eye(4))


def test_diagonal_conditions_zero_transforms():
    tv = _zero_transforms(3, K)
    res = tr.check_diagonal_conditions(tv, 1.0)
    assert res.max == 0.0


def test_diagonal_conditions_all_basis_elements():
    for cfg, k1 in ((CFG3, 0.6), (make_config(4, -1.5), 0.28)):
        m = MomentumPair.from_k1(k1)
        for el in build_basis(cfg, m):
            tv = tr.extract_transforms(el.tensor, m)
            res = tr.check_diagonal_conditions(tv, cfg.c)
            assert res.max <= 1e-10, el.label


def _diagonal_conditions_loop(tv, k, c):
    """Worst xi and chi residuals of the M/N systems, one diagonal quadrant at a time."""
    M, N = tr.diagonal_condition_matrices(k, c)
    worst_xi = worst_chi = 0.0
    for i in range(tv.n):
        worst_xi = max(worst_xi, np.max(np.abs(tv.hat_xi[i, i] - M @ tv.check_xi[i, i])))
        worst_chi = max(worst_chi, np.max(np.abs(tv.hat_chi[i, i] - N @ tv.check_chi[i, i])))
    return worst_xi, worst_chi


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_batched_diagonal_conditions_match_per_quadrant_loop(n):
    k, c = 0.37, -1.3
    m = MomentumPair.from_k1(k)
    cases = [tr.extract_transforms(el.tensor, m) for el in build_basis(make_config(n, c), m)]
    rng = np.random.default_rng(n)

    def draw():
        return rng.normal(size=(n, n, 4)) + 1j * rng.normal(size=(n, n, 4))

    cases.append(tr.TransformVectors4(k=k, hat_xi=draw(), hat_chi=draw(), check_xi=draw(), check_chi=draw()))
    for tv in cases:
        res = tr.check_diagonal_conditions(tv, c)
        assert (res.xi, res.chi) == pytest.approx(_diagonal_conditions_loop(tv, k, c), rel=1e-12, abs=1e-15)
        assert res.max == max(res.xi, res.chi)


def _raw_diagonal_identities(tv, k, c):
    """The folded continuity and jump identities, written out from the slots.

    One row per identity, one column per diagonal quadrant; they use the
    coupling scalars directly, not M or N.
    """
    c_plus, c_minus = tr.coupling_scalars(k, c)
    d = np.arange(tv.n)
    hx, cx = tv.hat_xi[d, d].T, tv.check_xi[d, d].T
    hc, cc = tv.hat_chi[d, d].T, tv.check_chi[d, d].T
    return np.array([
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
    ])


def _raw_from_m_n_residuals(tv, k, c):
    """The raw identities as L(c) r per channel pair, r the M/N residual.

    L(c) = [[1, 1], [-1 + 2c, 1 + 2c]] has determinant 2, so the raw
    identities and the M/N systems vanish together.  The xi pairs take
    c = c_minus on the slot pairs (0, 1) and (3, 2); the chi pairs take
    c = -c_plus on (2, 1) and (3, 0).
    """
    M, N = tr.diagonal_condition_matrices(k, c)
    c_plus, c_minus = tr.coupling_scalars(k, c)
    d = np.arange(tv.n)
    rx = tv.hat_xi[d, d].T - M @ tv.check_xi[d, d].T
    rc = tv.hat_chi[d, d].T - N @ tv.check_chi[d, d].T

    def L(cs, a, b):
        return a + b, (-1 + 2 * cs) * a + (1 + 2 * cs) * b

    (c0, j0), (c1, j1) = L(c_minus, rx[0], rx[1]), L(c_minus, rx[3], rx[2])
    (c2, j3), (c3, j2) = L(-c_plus, rc[3], rc[0]), L(-c_plus, rc[2], rc[1])
    return np.array([c0, c1, c2, c3, j0, j1, j2, j3])


@pytest.mark.parametrize("k,c", [(0.37, -1.3), (0.0, 1.5), (0.6, 2.7), (0.2, 0.0), (0.65, 1e-6), (0.1, -40.0)])
def test_raw_diagonal_identities_are_l_times_m_n_residuals(k, c):
    # the M/N residuals determine the continuity/jump identities, on
    # random transforms, on basis elements and on basis elements whose
    # diagonal slots are perturbed
    n = 4
    rng = np.random.default_rng(7)

    def draw(scale=1.0):
        return scale * (rng.normal(size=(n, n, 4)) + 1j * rng.normal(size=(n, n, 4)))

    cases = [tr.TransformVectors4(k=k, hat_xi=draw(), hat_chi=draw(), check_xi=draw(), check_chi=draw())
             for _ in range(3)]
    if c != 0.0:
        m = MomentumPair.from_k1(k)
        for el in build_basis(make_config(n, c), m)[::3]:
            tv = tr.extract_transforms(el.tensor, m)
            cases.append(tv)
            cases.append(tr.TransformVectors4(
                k=k, hat_xi=tv.hat_xi + draw(1e-3), hat_chi=tv.hat_chi,
                check_xi=tv.check_xi, check_chi=tv.check_chi + draw(1e-3),
            ))
    # roundoff scales with the amplitudes and with |c_pm|
    gain = 1 + 2 * max(abs(z) for z in tr.coupling_scalars(k, c))
    for tv in cases:
        scale = gain * max(np.abs(a).max() for a in (tv.hat_xi, tv.hat_chi, tv.check_xi, tv.check_chi))
        raw = _raw_diagonal_identities(tv, k, c)
        np.testing.assert_allclose(raw, _raw_from_m_n_residuals(tv, k, c), rtol=1e-12, atol=1e-12 * scale)


def test_kernel_element_fails_diagonal_conditions():
    # a basic solution satisfies the vertex equations but generically
    # violates the diagonal matching for c != 0
    report = tr.compute_kernel_decomposition(3, basis=tr.EDGE)
    vec = report.bases["ker_Q_minus"][:, 0]
    chi_hat, chi_check = tr.kernel_pair_matrices(vec, 3, tr.EDGE)
    tensor = tr.basic_solution_tensor(chi_hat, chi_check, tau_sign=1)
    tv = tr.extract_transforms(tensor, M68)
    assert tr.check_kirchhoff_transforms(tv).max <= 1e-12
    assert tr.check_diagonal_conditions(tv, 1.0).max > 1e-3


def test_basic_solution_tensor_rejects_incompatible_pair():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        tr.basic_solution_tensor(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), 1)


def test_offdiag_drift_matches_the_masked_gathers_on_a_mixed_stack():
    # a table's transform vectors agree off the diagonal, where hat and
    # check read one cell; crafted check vectors of rows 1 and 4 drift off
    # the diagonal, row 6's only on a diagonal quadrant, the other rows give
    # 0.0 without a gather, and every row's value is the masked one
    elements = build_basis(make_config(4, 1.3), M68)
    table = tr.extract_transforms(AmplitudeTensor(elements[0].stack.amps[:8]), M68)
    assert not np.any(tr.check_kirchhoff_transforms(table).hat_check_offdiag)
    check_xi, check_chi = table.check_xi.copy(), table.check_chi.copy()
    check_xi[1, 0, 2] *= 1.0 + 1e-9  # quadrant (1, 3)
    check_chi[1, 0, 2] *= 1.0 + 1e-9
    check_chi[4, 3, 1, 2] += 1e-7  # quadrant (4, 2), channel -+ at k
    check_xi[6, 2, 2] *= 2.0  # the diagonal quadrant (3, 3)
    check_chi[6, 2, 2] *= 2.0
    tv = tr.TransformVectors4(table.k, table.hat_xi, table.hat_chi, check_xi, check_chi)
    got = tr.check_kirchhoff_transforms(tv).hat_check_offdiag
    want = offdiag_drift_masked((tv.hat_xi, tv.check_xi), (tv.hat_chi, tv.check_chi))
    assert got.shape == (8,) and np.array_equal(got, want)
    assert np.flatnonzero(got).tolist() == [1, 4]


def test_basic_solution_tensor_refuses_one_drifting_entry():
    report = tr.compute_kernel_decomposition(4, basis=tr.EDGE)
    chi_hat, chi_check = tr.kernel_pair_matrices(report.bases["ker_Q_minus"][:, 0], 4, tr.EDGE)
    tr.basic_solution_tensor(chi_hat, chi_check, tau_sign=1)
    chi_check = chi_check.copy()
    chi_check[0, 1] += 1e-6
    with pytest.raises(ValueError, match="not vertex-compatible"):
        tr.basic_solution_tensor(chi_hat, chi_check, tau_sign=1)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_kernel_columns_pair_with_their_own_tau(n):
    # Q_minus pairs with tau = +1 and Q_plus with tau = -1: every column of
    # ker(PI_perp o Q_pm) is a basic solution with its own tau, not the other
    report = tr.compute_kernel_decomposition(n, basis=tr.EDGE)
    for name, tau in (("ker_Q_minus", 1), ("K_minus", 1), ("ker_Q_plus", -1), ("K_plus", -1)):
        for vec in report.bases[name].T:
            chi_hat, chi_check = tr.kernel_pair_matrices(vec, n, tr.EDGE)
            tr.basic_solution_tensor(chi_hat, chi_check, tau)
            with pytest.raises(ValueError, match="not vertex-compatible"):
                tr.basic_solution_tensor(chi_hat, chi_check, -tau)


def test_kernel_report_serialisation():
    report = tr.compute_kernel_decomposition(3)
    d = report.to_dict()
    assert d["schema"] == 1
    assert d["pass"] is True
    assert d["total"] == 13
    assert set(d["dims"]) == {"K_minus", "K_plus", "ker_Q_minus", "ker_Q_plus"}


def test_kernel_report_bases_serialise_like_the_element_loop():
    report = tr.compute_kernel_decomposition(5, basis=tr.EDGE)
    loop = {k: [[float(x.real) for x in col] for col in v.T] for k, v in report.bases.items()}
    assert json.dumps(report.to_dict(include_bases=True)["bases"]) == json.dumps(loop)
    # an imaginary part is refused, not dropped
    report.bases["K_plus"] = report.bases["K_plus"] + 0j
    with pytest.raises(TypeError):
        report.to_dict(include_bases=True)
