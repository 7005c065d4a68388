"""Residual checks: positive paths, negative controls, the norm-limit identity."""

import tracemalloc

import numpy as np
import pytest

from stardelta.basis import build_basis
from stardelta.domain import ABOVE, BELOW, OFFDIAG, AmplitudeTensor, MomentumPair, check_pole, make_config
from stardelta import synthesis as syn
from stardelta import verifier as vf
from helpers import from_entries, norm_lhs_dense, scaled_entry, table_entries

CFG3 = make_config(3, 1.0)
M68 = MomentumPair.from_k1(0.6)


def test_kronecker_points_deterministic_and_spread():
    a = vf.kronecker_points(50, offset=3, hi=10)
    b = vf.kronecker_points(50, offset=3, hi=10)
    assert np.array_equal(a, b)
    assert a.min() >= 0 and a.max() <= 10
    hist, _ = np.histogram(a, bins=5, range=(0, 10))
    assert hist.min() >= 6  # low-discrepancy, not clustered


def test_vertex_checks_pass_for_basis():
    for el in build_basis(CFG3, M68):
        sol = vf.TensorSolution(el.tensor, el.momentum)
        for check in vf.check_vertex_bc(sol, 3):
            assert check.max_abs_residual <= 1e-11, (el.label, check.name)


@pytest.mark.parametrize("checked_n", [3, 5])
@pytest.mark.parametrize("kind", ["table", "synthesis"])
@pytest.mark.parametrize("family", ["vertex", "diagonal"])
def test_boundary_checks_refuse_an_edge_count_not_the_solutions(checked_n, kind, family):
    cfg = make_config(4, -1.5)
    if kind == "table":
        el = build_basis(cfg, MomentumPair.from_k1(0.28))[0]
        sol = vf.TensorSolution(el.tensor, el.momentum)
    else:
        sol = syn.synthesize_eigensolution(cfg, {14: syn.gaussian_bump(0.3, 0.1)}, syn.gauss_rule(8))
    check = vf.check_vertex_bc if family == "vertex" else lambda s, n: vf.check_diagonal_bc(s, n, cfg.c)
    with pytest.raises(ValueError, match=f"an n = 4 solution cannot be checked with n = {checked_n} edges"):
        check(sol, checked_n)
    assert all(ch.passed for ch in check(sol, 4))


def test_vertex_check_negative_control():
    # a single raw plane wave on one quadrant is discontinuous at the vertex
    t = from_entries(3, {(1, 2, OFFDIAG, 1, 1, 1): 1.0})
    sol = vf.TensorSolution(t, M68)
    value_check, _ = vf.check_vertex_bc(sol, 3)
    assert value_check.max_abs_residual > 0.1


def test_vertex_check_cosine_product():
    # cos(k1 x) cos(k2 y) + cos(k2 x) cos(k1 y) has vanishing outgoing
    # derivatives at the vertex
    from stardelta.basis import product_tensor
    from stardelta.oneparticle import phi

    state = product_tensor(phi(CFG3, 0), phi(CFG3, 0), 1)
    sol = vf.TensorSolution(state, M68)
    _, deriv_check = vf.check_vertex_bc(sol, 3)
    assert deriv_check.max_abs_residual <= 1e-13


def test_diagonal_checks_pass_for_basis():
    for el in build_basis(CFG3, M68):
        sol = vf.TensorSolution(el.tensor, el.momentum)
        for check in vf.check_diagonal_bc(sol, 3, el.coupling):
            assert check.max_abs_residual <= 1e-10, (el.label, check.name)


def test_antisym_vanishes_on_diagonal():
    elements = [el for el in build_basis(CFG3, M68) if el.family == "antisym"]
    ts = vf.kronecker_points(40, hi=10.0)
    for el in elements:
        for i in range(1, 4):
            v = el.tensor.value_array(i, i, ABOVE, ts, ts, M68)
            assert np.max(np.abs(v)) <= 1e-11
        checks = vf.check_diagonal_bc(vf.TensorSolution(el.tensor, el.momentum), 3, el.coupling)
        assert all(c.max_abs_residual <= 1e-11 for c in checks)


def test_wrong_coupling_breaks_jump():
    el = [e for e in build_basis(CFG3, M68) if e.family == "sym_diag"][0]
    sol = vf.TensorSolution(el.tensor, el.momentum)
    _, jump = vf.check_diagonal_bc(sol, 3, c=1.5)  # built at c = 1
    assert jump.max_abs_residual > 0.1


def test_one_sided_derivatives_match_finite_differences():
    el = [e for e in build_basis(CFG3, M68) if e.family == "sym_diag"][0]
    t = el.tensor
    h = 1e-5
    for i in (1, 2):
        for sector in (ABOVE, BELOW):
            ts = np.array([1.3, 4.7])
            exact = t.derivative_array(i, i, sector, ts, ts, M68, "dx")
            fd = (
                t.value_array(i, i, sector, ts + h, ts, M68)
                - t.value_array(i, i, sector, ts - h, ts, M68)
            ) / (2 * h)
            assert np.max(np.abs(exact - fd)) <= 1e-7 * max(1.0, np.max(np.abs(exact)))


def test_verify_element_report_shape():
    el = build_basis(CFG3, M68)[0]
    [row] = vf.verify_element([el])
    names = {c["name"] for c in row["checks"]}
    assert {
        "vertex_value_match",
        "vertex_derivative_sum",
        "diagonal_continuity",
        "diagonal_jump",
        "transform_kirchhoff",
        "transform_diagonal",
        "transform_pointwise_agreement",
    } <= names
    assert row["schema"] == 1 and row["overall"] is True


@pytest.mark.parametrize("n,c,k1", [(3, 1.0, 0.6), (4, -1.5, 0.28)])
def test_verify_full_basis(n, c, k1):
    cfg = make_config(n, c)
    report = vf.verify_full_basis(cfg, MomentumPair.from_k1(k1))
    assert report.overall
    assert report.extras["element_count"] == 2 * n * n - 2 * n
    assert report.extras["rank"] == report.extras["rank_expected"]


def test_verify_full_basis_detects_perturbation():
    # 1% perturbation of a sym_diag coupling-term amplitude breaks the jump
    cfg = CFG3
    elements = build_basis(cfg, M68)
    el = [e for e in elements if e.family == "sym_diag"][0]
    key = next(k for k, _v in table_entries(el.tensor))
    bad = scaled_entry(el.tensor, key, 1.01)
    sol = vf.TensorSolution(bad, M68)
    checks = vf.check_vertex_bc(sol, 3) + vf.check_diagonal_bc(sol, 3, cfg.c)
    assert any(c.max_abs_residual > 1e-5 for c in checks)


def test_mutation_sweep_detects_everything():
    records = vf.mutation_sweep(CFG3, M68, rel=1e-3, per_element=1, seed=5)
    assert len(records) == 12
    assert all(r["detected"] for r in records)
    assert min(r["max_residual"] for r in records) > 1e-5


def test_mutation_sweep_entry_order():
    # the sweep picks entries by position among a row's nonzero entries, so
    # this list pins that order: keys sorted by (i, j, sector, sig, tau,
    # slot), zeros dropped
    records = vf.mutation_sweep(CFG3, M68, seed=0)
    assert [(r["element"], tuple(r["entry"])) for r in records] == [
        ("antisym(1,1)", (3, 1, "off", 1, 1, 2)),
        ("antisym(1,2)", (2, 2, "below", 1, -1, 1)),
        ("antisym(1,3)", (2, 2, "below", 1, 1, 1)),
        ("antisym(2,1)", (1, 2, "off", 1, 1, 1)),
        ("antisym(2,2)", (2, 1, "off", 1, 1, 2)),
        ("antisym(2,3)", (1, 1, "above", 1, 1, 2)),
        ("antisym(3,1)", (1, 1, "above", 1, 1, 2)),
        ("antisym(3,2)", (1, 1, "above", 1, 1, 1)),
        ("antisym(3,3)", (1, 3, "off", 1, -1, 2)),
        ("sym_diag(1)", (3, 1, "off", -1, -1, 2)),
        ("sym_diag(2)", (3, 1, "off", -1, 1, 2)),
        ("sym_diag(3)", (3, 3, "below", -1, -1, 2)),
    ]
    assert all(r["detected"] for r in records)


@pytest.mark.parametrize("kwargs", [
    dict(tol=-1.0), dict(tol=0.0), dict(tol=np.inf), dict(tol=np.nan), dict(samples=0), dict(samples=-5),
])
def test_checks_refuse_a_bad_tolerance_or_sample_count(monkeypatch, kwargs):
    el = build_basis(CFG3, M68)[0]
    sol = vf.TensorSolution(el.tensor, el.momentum)
    for check in (lambda: vf.check_vertex_bc(sol, 3, **kwargs), lambda: vf.check_diagonal_bc(sol, 3, 1.0, **kwargs)):
        with pytest.raises(ValueError):
            check()
    # the whole-basis check refuses before it builds the basis
    monkeypatch.setattr(vf, "build_basis", lambda *a: pytest.fail("basis built"))
    with pytest.raises(ValueError):
        vf.verify_full_basis(CFG3, M68, **kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(rel=0.0), dict(rel=np.nan), dict(rel=np.inf),
    dict(detect_above=-1.0), dict(detect_above=0.0), dict(detect_above=np.nan), dict(detect_above=np.inf),
])
def test_mutation_sweep_refuses_a_bad_size_or_threshold(monkeypatch, kwargs):
    monkeypatch.setattr(vf, "build_basis", lambda *a: pytest.fail("basis built"))
    with pytest.raises(ValueError):
        vf.mutation_sweep(CFG3, M68, **kwargs)


def test_sample_matrix_refuses_mixed_momenta():
    # every element is evaluated at one shared momentum pair
    elements = build_basis(CFG3, M68)[:2] + build_basis(CFG3, MomentumPair.from_k1(0.3))[:2]
    with pytest.raises(ValueError):
        vf.sample_matrix(elements)
    with pytest.raises(ValueError):
        vf.basis_rank(elements)


def test_equal_momenta_are_refused_before_the_rank():
    # k1 = k2 would degenerate the antisymmetrised parts, but it lies in
    # the pole zone, so no basis is built there and nothing is checked
    m_eq = MomentumPair.from_k1(1.0 / np.sqrt(2.0))
    with pytest.raises(ValueError) as pole:
        check_pole(m_eq.fold, CFG3.c)
    for build in (build_basis, vf.verify_full_basis, vf.mutation_sweep):
        with pytest.raises(ValueError) as refusal:
            build(CFG3, m_eq)
        assert str(refusal.value) == str(pole.value)


# -- batched boundary checks against a per-quadrant loop ---------------------------


def _reference_vertex_bc(sol, n, samples, offset, tol=vf.DEFAULT_TOL, span=vf.SPAN):
    # one scalar evaluation per quadrant of each boundary line
    per_line = max(1, samples // (2 * n))
    worst_match = worst_sum = 0.0
    for j in range(1, n + 1):
        ts = vf.kronecker_points(per_line, offset=offset + j * per_line, hi=span)
        zeros = np.zeros_like(ts)
        sectors = [BELOW if l == j else OFFDIAG for l in range(1, n + 1)]
        vals = np.stack([sol.value_array(l, j, sectors[l - 1], zeros, ts) for l in range(1, n + 1)])
        worst_match = max(worst_match, float(np.max(np.abs(vals - vals[0]))))
        dsum = sum(sol.derivative_array(l, j, sectors[l - 1], zeros, ts, "dx") for l in range(1, n + 1))
        worst_sum = max(worst_sum, float(np.max(np.abs(dsum))))
    for i in range(1, n + 1):
        ts = vf.kronecker_points(per_line, offset=offset + (n + i) * per_line, hi=span)
        zeros = np.zeros_like(ts)
        sectors = [ABOVE if i == l else OFFDIAG for l in range(1, n + 1)]
        vals = np.stack([sol.value_array(i, l, sectors[l - 1], ts, zeros) for l in range(1, n + 1)])
        worst_match = max(worst_match, float(np.max(np.abs(vals - vals[0]))))
        dsum = sum(sol.derivative_array(i, l, sectors[l - 1], ts, zeros, "dy") for l in range(1, n + 1))
        worst_sum = max(worst_sum, float(np.max(np.abs(dsum))))
    used = 2 * n * per_line
    return [
        vf.CheckResult("vertex_value_match", worst_match, used, tol),
        vf.CheckResult("vertex_derivative_sum", worst_sum, used, tol),
    ]


def _reference_diagonal_bc(sol, n, c, samples, offset, tol=vf.DEFAULT_TOL, span=vf.SPAN):
    per_line = max(1, samples // n)
    worst_cont = worst_jump = 0.0
    for i in range(1, n + 1):
        ts = vf.kronecker_points(per_line, offset=offset + i * per_line, hi=span)
        v_above = sol.value_array(i, i, ABOVE, ts, ts)
        v_below = sol.value_array(i, i, BELOW, ts, ts)
        worst_cont = max(worst_cont, float(np.max(np.abs(v_above - v_below))))
        d_above = 0.5 * (sol.derivative_array(i, i, ABOVE, ts, ts, "dx") - sol.derivative_array(i, i, ABOVE, ts, ts, "dy"))
        d_below = 0.5 * (sol.derivative_array(i, i, BELOW, ts, ts, "dx") - sol.derivative_array(i, i, BELOW, ts, ts, "dy"))
        jump = d_above - d_below - c * 0.5 * (v_above + v_below)
        worst_jump = max(worst_jump, float(np.max(np.abs(jump))))
    used = n * per_line
    return [
        vf.CheckResult("diagonal_continuity", worst_cont, used, tol),
        vf.CheckResult("diagonal_jump", worst_jump, used, tol),
    ]


def _assert_batched_checks_match_loop(sol, n, c, samples, offset, residuals=True):
    got = vf.check_vertex_bc(sol, n, samples=samples, offset=offset)
    got += vf.check_diagonal_bc(sol, n, c, samples=samples, offset=offset)
    want = _reference_vertex_bc(sol, n, samples, offset) + _reference_diagonal_bc(sol, n, c, samples, offset)
    assert [(g.name, g.sample_count, g.passed) for g in got] == [(w.name, w.sample_count, w.passed) for w in want]
    if residuals:
        for g, w in zip(got, want):
            assert abs(g.max_abs_residual - w.max_abs_residual) <= 1e-12, g.name


@pytest.mark.parametrize(
    "n,c,k1,residuals",
    [
        (3, 1.0, 0.6, True),
        (4, -1.5, 0.28, True),
        (5, 0.3, 0.9, True),
        (6, 2.0, 0.1, True),
        (4, 1e-3, 0.45, True),
        # amplitudes near 1e6: residuals are roundoff close to the 1e-9 tolerance,
        # so only the verdicts are compared; both sides sum the waves in one einsum
        (3, 1e-6, 0.6, False),
    ],
)
def test_batched_checks_match_per_quadrant_loop(n, c, k1, residuals):
    cfg = make_config(n, c)
    elements = build_basis(cfg, MomentumPair.from_k1(k1))
    for idx, el in enumerate(elements):
        sol = vf.TensorSolution(el.tensor, el.momentum)
        _assert_batched_checks_match_loop(sol, n, c, 100, idx * 7, residuals)
    el = [e for e in elements if e.family == "sym_diag"][0]
    # a diagonal-quadrant entry, seen by both the vertex and the diagonal checks
    key = next(k for k, _v in table_entries(el.tensor) if k[0] == k[1])
    mutant = vf.TensorSolution(scaled_entry(el.tensor, key, 1.001), el.momentum)
    _assert_batched_checks_match_loop(mutant, n, c, 60, 0, residuals)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_batched_checks_match_loop_on_random_table(n):
    # a generic table violates every condition by amounts that vary along
    # each line, so the residuals depend on which points are sampled
    rng = np.random.default_rng(n)
    amps = rng.normal(size=(n, n + 1, 2, 2, 2)) + 1j * rng.normal(size=(n, n + 1, 2, 2, 2))
    sol = vf.TensorSolution(AmplitudeTensor(amps), MomentumPair.from_k1(0.37))
    _assert_batched_checks_match_loop(sol, n, 0.8, 60, 3)


def test_batched_checks_match_loop_on_synthesized_solution():
    sol = syn.synthesize_eigensolution(CFG3, {9: syn.gaussian_bump(0.35, 0.1)}, syn.gauss_rule(4))
    # one table per node, the 8 waves of each of the 4 nodes on one axis
    assert sol.amps.shape == (3, 4, 32)
    _assert_batched_checks_match_loop(sol, 3, CFG3.c, 60, 0)


# -- norm limit ------------------------------------------------------------------


def _bump(center, width):
    return lambda k: np.exp(-0.5 * ((np.asarray(k) - center) / width) ** 2)


def test_norm_limit_zero_profiles():
    res = vf.check_norm_limit({(1, 1): lambda k: np.zeros_like(np.asarray(k))}, R=50.0)
    assert res.lhs == pytest.approx(0.0, abs=1e-12)
    assert res.rhs == 0.0


def test_norm_limit_single_channel_converges():
    profiles = {(1, 1): _bump(0.33, 0.12)}
    errors = []
    for R in (50.0, 100.0, 200.0):
        res = vf.check_norm_limit(profiles, R)
        assert res.converged
        errors.append(res.relative_error)
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 0.05


def test_norm_limit_channels_additive():
    # disjoint bumps in two channels: the right-hand side is the channel sum
    g1, g2 = _bump(0.2, 0.05), _bump(0.5, 0.05)
    r1 = vf.check_norm_limit({(1, 1): g1}, R=50.0)
    r2 = vf.check_norm_limit({(-1, -1): g2}, R=50.0)
    r12 = vf.check_norm_limit({(1, 1): g1, (-1, -1): g2}, R=50.0)
    assert r12.rhs == pytest.approx(r1.rhs + r2.rhs, rel=1e-12)


def test_norm_limit_solves_each_rule_once(monkeypatch):
    # R = 40 and 80 share the 256-node momentum rule, the 8-point panel
    # rule and the 400-node rule of the right-hand side
    counts = []
    solve = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda m: counts.append(m) or solve(m))
    vf._leggauss.cache_clear()
    for R in (40.0, 80.0):
        vf.check_norm_limit({(1, 1): _bump(0.33, 0.12)}, R)
    assert sorted(counts) == [8, 256, 400]


def test_norm_limit_rejects_bad_radius():
    with pytest.raises(ValueError):
        vf.check_norm_limit({(1, 1): _bump(0.3, 0.1)}, R=0.0)


# the channel sets of the dense-oracle comparison
NORM_CHANNELS = {
    "one": {(1, 1): _bump(0.33, 0.12)},
    "four": {(1, 1): _bump(0.2, 0.08), (1, -1): _bump(0.4, 0.1), (-1, 1): _bump(0.55, 0.05), (-1, -1): _bump(0.8, 0.12)},
    "zero_among": {(1, 1): _bump(0.3, 0.1), (-1, 1): lambda k: np.zeros_like(np.asarray(k)), (1, -1): _bump(0.5, 0.07)},
    "complex": {(-1, 1): lambda k: _bump(0.4, 0.1)(k) * np.exp(3j * np.asarray(k))},
}


@pytest.mark.parametrize("channels", sorted(NORM_CHANNELS))
@pytest.mark.parametrize("panel", [1.4, 1.4 / 1.5], ids=["coarse", "fine"])
@pytest.mark.parametrize("R", [0.5, 10.0, 40.0, 80.0, 200.0])
def test_norm_lhs_matches_dense_grid(R, panel, channels):
    # the Hermitian form over the knots against psi built on the X x X grid
    profiles = NORM_CHANNELS[channels]
    k_count = max(256, int(3.2 * R))
    knots, kweights = vf.gauss_legendre(k_count)
    values = {key: vf.profile_values(g, knots) for key, g in profiles.items()}
    got = vf._norm_lhs(values, knots, kweights, R, panel)
    want = norm_lhs_dense(profiles, R, panel, k_count)
    assert want > 0 and got == pytest.approx(want, rel=1e-12)


def _refused_before_quadrature(monkeypatch, profiles, R, match):
    def unreachable(*args):
        raise AssertionError("the norm-limit sums ran on refused input")

    monkeypatch.setattr(vf, "_norm_lhs", unreachable)
    with pytest.raises(ValueError, match=match):
        vf.check_norm_limit(profiles, R)


@pytest.mark.parametrize("R", [np.inf, -np.inf, np.nan, -1.0])
def test_norm_limit_rejects_radius_that_is_not_positive_and_finite(monkeypatch, R):
    _refused_before_quadrature(monkeypatch, {(1, 1): _bump(0.3, 0.1)}, R, "R must be positive and finite")


def test_norm_limit_rejects_an_empty_channel_set(monkeypatch):
    # with no channel, lhs = rhs = 0 would read as a converged identity
    monkeypatch.setattr(vf, "gauss_legendre", lambda *args: pytest.fail("a rule was solved for no channel"))
    _refused_before_quadrature(monkeypatch, {}, 40.0, "need at least one channel profile")


@pytest.mark.parametrize("key", [(2, 1), (0, 1), (1, -2), (1,), (1, 1, 1)], ids=str)
def test_norm_limit_rejects_channel_key_outside_sign_pairs(monkeypatch, key):
    profiles = {(1, 1): _bump(0.3, 0.1), key: _bump(0.5, 0.1)}
    _refused_before_quadrature(monkeypatch, profiles, 40.0, "channel key must be a sign pair")


@pytest.mark.parametrize(
    "profile, match",
    [
        (lambda k: 1.0, "one coefficient per quadrature node"),
        (lambda k: np.ones((2, np.size(k))), "one coefficient per quadrature node"),
        (lambda k: np.where(np.asarray(k) > 0.5, np.nan, 1.0), "finite at every quadrature node"),
        (lambda k: np.full_like(np.asarray(k), np.inf), "finite at every quadrature node"),
    ],
    ids=["scalar", "two_rows", "nan", "inf"],
)
def test_norm_limit_rejects_profile_without_one_finite_value_per_node(monkeypatch, profile, match):
    profiles = {(1, 1): _bump(0.3, 0.1), (-1, 1): profile}
    _refused_before_quadrature(monkeypatch, profiles, 40.0, match)


def test_norm_limit_builds_no_grid_of_psi():
    # psi on the X x X grid of the refined pass at R = 200 needs 141 MiB
    profiles = {(1, 1): _bump(0.33, 0.12)}
    tracemalloc.start()
    try:
        res = vf.check_norm_limit(profiles, 200.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged
    assert peak < 48 * 2**20, f"peak {peak / 2**20:.1f} MiB"
