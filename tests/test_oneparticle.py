"""One-particle solutions: closed forms, vertex matching, eigen-equation."""

import numpy as np
import pytest

from helpers import edge_wave
from stardelta.domain import make_config
from stardelta.oneparticle import (
    LARGER,
    NEUTRAL,
    SMALLER,
    phi,
    s_matrix,
    scattering_wave,
    xi_solution,
)


def test_vertex_matrices_n3():
    S = s_matrix(3)
    assert np.allclose(np.diag(S), -1.0 / 3.0)
    off = S[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 2.0 / 3.0)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_vertex_matrix_invariants(n):
    # S = 2P - I with P the rank-one projection onto (1, ..., 1)
    S = s_matrix(n)
    P = 0.5 * (S + np.eye(n))
    assert np.allclose(P, np.full((n, n), 1.0 / n), atol=1e-15)
    assert np.allclose(P @ P, P, atol=1e-14)
    assert np.trace(P) == pytest.approx(1.0)
    assert np.allclose(S @ S, np.eye(n), atol=1e-14)
    assert np.allclose(S, S.T)


def test_s_eigenvalues_n4():
    evals = np.sort(np.linalg.eigvalsh(s_matrix(4)))
    assert np.allclose(evals, [-1, -1, -1, 1], atol=1e-13)


def test_scattering_wave_vertex_value():
    cfg = make_config(3, 1.0)
    psi = scattering_wave(cfg, 1)
    for edge in range(1, 4):
        assert edge_wave(psi, edge, 0.0, 0.5) == pytest.approx(2.0 / 3.0)


def test_scattering_wave_kirchhoff_sum():
    for n in (3, 5):
        cfg = make_config(n, 1.0)
        for i in range(1, n + 1):
            psi = scattering_wave(cfg, i)
            total = sum(edge_wave(psi, edge, 0.0, 0.7, order=1) for edge in range(1, n + 1))
            assert abs(total) <= 1e-14


def test_scattering_wave_direct_formula():
    # S_{32} e^{i k x} with n = 4, k = 0.7, x = 1.3 on edge 3
    cfg = make_config(4, 1.0)
    psi = scattering_wave(cfg, 2)
    expected = 0.5 * np.exp(0.91j)
    assert edge_wave(psi, 3, 1.3, 0.7) == pytest.approx(expected, abs=1e-14)


def test_scattering_wave_index_guard():
    cfg = make_config(3, 1.0)
    with pytest.raises(ValueError):
        scattering_wave(cfg, 0)
    with pytest.raises(ValueError):
        scattering_wave(cfg, 4)


def test_phi_index_guard():
    cfg = make_config(3, 1.0)
    with pytest.raises(ValueError):
        phi(cfg, 4)
    with pytest.raises(ValueError):
        phi(cfg, -1)


def test_phi_zero_is_cosine_and_matches_scattering_sum():
    rng = np.random.default_rng(5)
    for n in (3, 4):
        cfg = make_config(n, 1.0)
        p0 = phi(cfg, 0)
        waves = [scattering_wave(cfg, j) for j in range(1, n + 1)]
        for _ in range(25):
            k = rng.uniform(0.05, 1.0)
            edge = rng.integers(1, n + 1)
            x = rng.uniform(0, 10)
            direct = edge_wave(p0, int(edge), x, k)
            assert direct == pytest.approx(np.cos(k * x), abs=1e-13)
            oracle = 0.5 * sum(edge_wave(w, int(edge), x, k) for w in waves)
            assert direct == pytest.approx(oracle, abs=1e-13)


def test_phi_zero_vertex():
    cfg = make_config(4, 1.0)
    p0 = phi(cfg, 0)
    for edge in range(1, 5):
        assert edge_wave(p0, edge, 0.0, 0.9) == pytest.approx(1.0)
        assert edge_wave(p0, edge, 0.0, 0.9, order=1) == pytest.approx(0.0, abs=1e-15)


def test_phi_j_support_and_signs():
    cfg = make_config(4, 1.0)
    p = phi(cfg, 2)
    k, x = 1.0, np.pi / 2
    assert edge_wave(p, 2, x, k) == pytest.approx(-1.0)
    assert edge_wave(p, 3, x, k) == pytest.approx(1.0)
    assert edge_wave(p, 1, x, k) == pytest.approx(0.0, abs=1e-15)
    assert edge_wave(p, 4, x, k) == pytest.approx(0.0, abs=1e-15)


def test_phi_j_matches_scattering_difference():
    cfg = make_config(4, 1.0)
    p = phi(cfg, 2)
    w2, w3 = scattering_wave(cfg, 2), scattering_wave(cfg, 3)
    rng = np.random.default_rng(2)
    for _ in range(20):
        k = rng.uniform(0.1, 1.0)
        edge = int(rng.integers(1, 5))
        x = rng.uniform(0, 8)
        oracle = (edge_wave(w2, edge, x, k) - edge_wave(w3, edge, x, k)) / 2j
        assert edge_wave(p, edge, x, k) == pytest.approx(oracle, abs=1e-13)


def test_phi_j_wraparound():
    cfg = make_config(3, 1.0)
    p = phi(cfg, 3)  # supported on edges 3 and 1
    k, x = 0.8, 1.7
    assert edge_wave(p, 3, x, k) == pytest.approx(-np.sin(k * x))
    assert edge_wave(p, 1, x, k) == pytest.approx(np.sin(k * x))
    assert edge_wave(p, 2, x, k) == pytest.approx(0.0, abs=1e-15)


def test_phi_family_telescopes_to_zero():
    cfg = make_config(5, 1.0)
    rng = np.random.default_rng(9)
    for _ in range(15):
        k = rng.uniform(0.1, 1.0)
        edge = int(rng.integers(1, 6))
        x = rng.uniform(0, 10)
        total = sum(edge_wave(phi(cfg, j), edge, x, k) for j in range(1, 6))
        assert abs(total) <= 1e-13


def test_xi_branches():
    cfg = make_config(3, 1.0)
    xi = xi_solution(cfg)
    k, x = 0.5, 1.0
    assert edge_wave(xi, 1, x, k, LARGER) == pytest.approx(np.sin(0.5))
    assert edge_wave(xi, 1, x, k, SMALLER) == pytest.approx(-2.0 * np.sin(0.5))
    assert edge_wave(xi, 2, x, k, NEUTRAL) == pytest.approx(np.sin(0.5))
    for branch in (LARGER, SMALLER, NEUTRAL):
        assert edge_wave(xi, 1, 0.0, k, branch) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("builder,args", [
    (scattering_wave, (2,)),
    (phi, (0,)),
    (phi, (1,)),
    (xi_solution, ()),
])
def test_eigen_equation(builder, args):
    # -f'' = k^2 f, exactly from the coefficients and by finite differences
    # (h = 1e-4 balances truncation against the eps/h^2 roundoff of the
    # second difference; first derivatives use h = 1e-5)
    cfg = make_config(4, 1.0)
    sol = builder(cfg, *args)
    rng = np.random.default_rng(4)
    for _ in range(10):
        k = rng.uniform(0.2, 1.0)
        edge = int(rng.integers(1, 5))
        x = rng.uniform(0.5, 8.0)
        f = edge_wave(sol, edge, x, k)
        second = edge_wave(sol, edge, x, k, order=2)
        assert second == pytest.approx(-k * k * f, abs=1e-13)
        h = 1e-4
        fd2 = (edge_wave(sol, edge, x + h, k) - 2 * f + edge_wave(sol, edge, x - h, k)) / h**2
        assert abs(fd2 + k * k * f) <= 5e-7 * max(1.0, abs(f))
        h = 1e-5
        fd1 = (edge_wave(sol, edge, x + h, k) - edge_wave(sol, edge, x - h, k)) / (2 * h)
        exact1 = edge_wave(sol, edge, x, k, order=1)
        assert abs(fd1 - exact1) <= 1e-7 * max(1.0, abs(exact1))


def test_zero_momentum_degenerates_gracefully():
    cfg = make_config(3, 1.0)
    assert edge_wave(phi(cfg, 1), 1, 2.0, 0.0) == pytest.approx(0.0)
    assert edge_wave(phi(cfg, 0), 1, 2.0, 0.0) == pytest.approx(1.0)
