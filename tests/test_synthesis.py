"""Quadrature synthesis: inheritance of boundary conditions, refinement, folding."""

import math
import re

import numpy as np
import pytest

from stardelta.domain import ABOVE, BELOW, MARGIN, OFFDIAG, POLE, MomentumPair, make_config
from stardelta import domain
from stardelta import synthesis as syn
from stardelta import transforms as tr
from stardelta import verifier as vf

CFG3 = make_config(3, 1.0)


def _kernel_element(n=3, which="ker_Q_minus", col=0):
    report = tr.compute_kernel_decomposition(n, basis=tr.EDGE)
    vec = report.bases[which][:, col]
    return tr.kernel_pair_matrices(vec, n, tr.EDGE)


def test_gauss_rule_respects_exclusion_zone():
    rule = syn.gauss_rule(32)
    assert rule.nodes.min() >= 1e-6
    assert rule.nodes.max() <= 1.0 / math.sqrt(2.0) - 1e-6 + 1e-12
    with pytest.raises(ValueError):
        syn.QuadratureRule(nodes=np.array([0.71]), weights=np.array([1.0]))
    # the refusal names the margin it applies
    with pytest.raises(ValueError, match=re.escape(f"[0, 1/sqrt(2) - {MARGIN:g}]")):
        syn.QuadratureRule(nodes=np.array([POLE - 0.5 * MARGIN]), weights=np.array([1.0]))


def test_gauss_rule_is_the_affine_map_of_leggauss():
    # bit for bit, so synthesize reports and grids do not move with the
    # shared Gauss-Legendre helper
    lo, hi = MARGIN, POLE - MARGIN
    half = 0.5 * (hi - lo)
    for m in range(1, 65):
        x, w = np.polynomial.legendre.leggauss(m)
        rule = syn.gauss_rule(m)
        assert np.array_equal(rule.nodes, lo + half * (x + 1.0)), m
        assert np.array_equal(rule.weights, half * w), m


def test_gauss_rule_arrays_are_each_rules_own():
    # the solved rule of a count is shared; the mapped nodes and weights
    # are not, so writing into one rule leaves a later one as it was
    first = syn.gauss_rule(16)
    nodes, weights = first.nodes.copy(), first.weights.copy()
    first.nodes[:] = 0.5
    first.weights[:] = 0.0
    again = syn.gauss_rule(16)
    assert np.array_equal(again.nodes, nodes) and np.array_equal(again.weights, weights)


VANISHING = "profile must be finite and not vanish at every quadrature node"


def test_zero_profile_is_refused():
    # a profile that vanishes at every node would give the zero function,
    # which passes every boundary check; an indicator off the fold
    # interval vanishes at every node too, and one profile of several is
    # enough for a refusal
    rule = syn.gauss_rule(8)
    for profiles in (
        {0: lambda k: np.zeros_like(np.asarray(k))},
        {0: syn.indicator_profile(0.9, 1.0)},
        {0: syn.gaussian_bump(0.3, 0.1), 5: syn.indicator_profile(0.9, 1.0)},
        {0: lambda k: np.where(np.asarray(k) > 0.5, np.nan, 1.0)},
        {0: lambda k: np.full_like(np.asarray(k), np.inf)},
    ):
        with pytest.raises(ValueError, match=VANISHING):
            syn.synthesize_eigensolution(CFG3, profiles, rule)
    # the doubled rule of a refinement is held to the same rule: this
    # indicator holds one node of the 8-point rule and none of the 16
    narrow = syn.synthesize_eigensolution(CFG3, {9: syn.indicator_profile(0.285, 0.292)}, rule)
    with pytest.raises(ValueError, match=VANISHING):
        syn.refine_quadrature(narrow)
    # the zero table itself still evaluates to zeros of the right shape
    zero = syn.SynthesizedSolution(np.zeros((8, 3, 4, 2, 2, 2)), rule.nodes)
    assert zero.value_array(1, 2, OFFDIAG, [1.0, 3.0], [2.0, 4.0])[0] == 0
    zeros = zero.derivative_array(np.array([[1], [2]]), 3, ABOVE, [1.0, 3.0, 5.0], 2.0, "dx")
    assert zeros.shape == (2, 3) and not np.any(zeros)


def test_single_node_reproduces_weighted_element():
    node = 0.41
    rule = syn.QuadratureRule(nodes=np.array([node]), weights=np.array([0.125]))
    sol = syn.synthesize_eigensolution(CFG3, {2: lambda k: np.ones_like(np.asarray(k))}, rule)
    from stardelta.basis import build_basis

    m = MomentumPair.from_k1(node)
    el = build_basis(CFG3, m)[2]
    got = sol.value_array(1, 3, OFFDIAG, [2.0], [1.5])[0]
    want = 0.125 * el.tensor.value_array(1, 3, OFFDIAG, 2.0, 1.5, m)[0]
    assert got == pytest.approx(want, abs=1e-14)

    # each node contributes its weight times the profiled elements built
    # there: one node, then three, with two profiles
    profiles = {2: lambda k: 1.0 + np.asarray(k), 10: lambda k: (0.5 - 1j) * np.asarray(k) ** 2}
    pts = [(1, 3, OFFDIAG, 2.0, 1.5), (2, 2, ABOVE, 3.1, 0.4), (3, 3, BELOW, 0.8, 5.5)]
    for nodes, weights in (([0.41], [0.125]), ([0.13, 0.41, 0.62], [0.125, 0.3, 0.05])):
        rule = syn.QuadratureRule(nodes=np.array(nodes), weights=np.array(weights))
        sol = syn.synthesize_eigensolution(CFG3, profiles, rule)
        for i, j, sector, x, y in pts:
            want = np.zeros(3, dtype=complex)
            for node, w in zip(nodes, weights):
                m = MomentumPair.from_k1(node)
                elements = build_basis(CFG3, m)
                for idx, g in profiles.items():
                    t = elements[idx].tensor
                    want += w * g(node) * np.array([
                        t.value_array(i, j, sector, x, y, m)[0],
                        t.derivative_array(i, j, sector, x, y, m, "dx")[0],
                        t.derivative_array(i, j, sector, x, y, m, "dy")[0],
                    ])
            got = np.array([
                sol.value_array(i, j, sector, x, y)[0],
                sol.derivative_array(i, j, sector, x, y, "dx")[0],
                sol.derivative_array(i, j, sector, x, y, "dy")[0],
            ])
            assert got == pytest.approx(want, abs=1e-14)


def test_synthesis_linearity():
    g1 = syn.gaussian_bump(0.3, 0.1)
    g2 = syn.gaussian_bump(0.45, 0.07)
    rule = syn.gauss_rule(24)
    sa = syn.synthesize_eigensolution(CFG3, {0: g1}, rule)
    sb = syn.synthesize_eigensolution(CFG3, {3: g2}, rule)
    sc = syn.synthesize_eigensolution(
        CFG3, {0: lambda k: 2.0 * g1(k), 3: lambda k: -0.5j * g2(k)}, rule
    )
    for (i, j, sector) in ((1, 2, OFFDIAG), (2, 2, ABOVE), (3, 3, BELOW)):
        xs = np.array([0.7, 4.1])
        ys = np.array([2.9, 1.2])
        lhs = sc.value_array(i, j, sector, xs, ys)
        rhs = 2.0 * sa.value_array(i, j, sector, xs, ys) - 0.5j * sb.value_array(i, j, sector, xs, ys)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_eigensolution_synthesis_inherits_boundary_conditions():
    sol = syn.synthesize_eigensolution(
        CFG3, {9: syn.gaussian_bump(0.35, 0.08)}, syn.gauss_rule(64)
    )
    checks = vf.check_vertex_bc(sol, 3, samples=50) + vf.check_diagonal_bc(sol, 3, CFG3.c, samples=50)
    for check in checks:
        assert check.max_abs_residual <= 1e-8, check.name


def test_refinement_spectral_for_smooth_profile():
    sol = syn.synthesize_eigensolution(
        CFG3, {9: syn.gaussian_bump(0.35, 0.08)}, syn.gauss_rule(32)
    )
    record = syn.refine_quadrature(sol)
    assert record.coarse_nodes == 32 and record.fine_nodes == 64
    assert record.max_change < 1e-9


def test_refinement_samples_every_quadrant_and_sector():
    # the batched study takes the points of a loop over quadrants and sectors
    sol = syn.synthesize_eigensolution(CFG3, {9: syn.indicator_profile(0.2, 0.5)}, syn.gauss_rule(8))
    fine = sol.rebuild(16)
    worst, used = 0.0, 0
    for i in range(1, 4):
        for j in range(1, 4):
            xs = vf.kronecker_points(6, offset=13 * (i * 3 + j), hi=8.0)
            ys = vf.kronecker_points(6, offset=29 * (i * 3 + j) + 7, hi=8.0)
            for sector in (ABOVE, BELOW) if i == j else (OFFDIAG,):
                change = sol.value_array(i, j, sector, xs, ys) - fine.value_array(i, j, sector, xs, ys)
                worst = max(worst, float(np.max(np.abs(change))))
                used += 6
    record = syn.refine_quadrature(sol)
    assert syn.REFINE_SAMPLES == 60
    assert record.sample_count == used == 72
    assert record.max_change == pytest.approx(worst, rel=1e-12)


def test_refinement_algebraic_for_indicator_profile():
    smooth = syn.synthesize_eigensolution(
        CFG3, {9: syn.gaussian_bump(0.35, 0.08)}, syn.gauss_rule(32)
    )
    rough = syn.synthesize_eigensolution(
        CFG3, {9: syn.indicator_profile(0.2, 0.5)}, syn.gauss_rule(32)
    )
    rec_smooth = syn.refine_quadrature(smooth)
    rec_rough = syn.refine_quadrature(rough)
    assert rec_rough.max_change > 1e4 * rec_smooth.max_change


def test_synthesis_guards():
    with pytest.raises(ValueError):
        syn.synthesize_eigensolution(make_config(3, 0.0), {0: syn.gaussian_bump(0.3, 0.1)}, syn.gauss_rule(4))
    with pytest.raises(ValueError):
        syn.synthesize_eigensolution(CFG3, {}, syn.gauss_rule(4))
    with pytest.raises(ValueError):
        syn.synthesize_eigensolution(CFG3, {99: syn.gaussian_bump(0.3, 0.1)}, syn.gauss_rule(4))


def test_eigensolution_synthesis_refuses_a_coupling_whose_tables_overflow():
    with pytest.raises(ValueError, match="would overflow"):
        syn.synthesize_eigensolution(make_config(3, 1e-310), {0: syn.gaussian_bump(0.3, 0.1)}, syn.gauss_rule(4))


def test_basic_solution_refuses_a_pair_of_another_edge_count():
    # a 4 x 4 pair is an n = 4 solution, which an n = 3 config must not take
    chi_hat, chi_check = _kernel_element(n=4)
    with pytest.raises(ValueError, match="need a 3 x 3 kernel pair"):
        syn.synthesize_basic_solution(CFG3, chi_hat, chi_check, tau_sign=1,
                                      profile=syn.gaussian_bump(0.3, 0.1), rule=syn.gauss_rule(8))


def test_basic_solution_passes_vertex_fails_diagonal():
    chi_hat, chi_check = _kernel_element()
    sol = syn.synthesize_basic_solution(
        CFG3, chi_hat, chi_check, tau_sign=1,
        profile=syn.gaussian_bump(0.3, 0.1), rule=syn.gauss_rule(48),
    )
    for check in vf.check_vertex_bc(sol, 3, samples=60):
        assert check.max_abs_residual <= 1e-8
    _, jump = vf.check_diagonal_bc(sol, 3, CFG3.c, samples=60)
    assert jump.max_abs_residual > 1e-3


def test_k_plus_element_passes_vertex_checks():
    report = tr.compute_kernel_decomposition(3, basis=tr.EDGE)
    vec = report.bases["K_plus"][:, 0]
    chi_hat, chi_check = tr.kernel_pair_matrices(vec, 3, tr.EDGE)
    sol = syn.synthesize_basic_solution(
        CFG3, chi_hat, chi_check, tau_sign=-1,
        profile=syn.gaussian_bump(0.25, 0.08), rule=syn.gauss_rule(32),
    )
    for check in vf.check_vertex_bc(sol, 3, samples=60):
        assert check.max_abs_residual <= 1e-8


def test_zero_profile_basic_solution_is_refused():
    chi_hat, chi_check = _kernel_element()
    for profile in (
        lambda k: np.zeros_like(np.asarray(k)),
        syn.indicator_profile(0.9, 1.0),
        lambda k: np.full_like(np.asarray(k), np.nan),
    ):
        with pytest.raises(ValueError, match=VANISHING):
            syn.synthesize_basic_solution(
                CFG3, chi_hat, chi_check, tau_sign=1, profile=profile, rule=syn.gauss_rule(16),
            )


def test_full_interval_equals_folded_half_interval():
    # a basic-solution integral over [0, 1] equals the folded integral
    # over [0, 1/sqrt(2)] with the substitution weight k/sqrt(1-k^2)
    chi_hat, chi_check = _kernel_element(col=1)
    g = syn.gaussian_bump(0.5, 0.2)

    x0, w0 = np.polynomial.legendre.leggauss(400)

    def integrate(lo, hi, momentum_of, weight_of):
        nodes = lo + 0.5 * (hi - lo) * (x0 + 1.0)
        weights = 0.5 * (hi - lo) * w0
        base = tr.basic_solution_tensor(chi_hat, chi_check, tau_sign=1)
        momenta = np.array([momentum_of(kq) for kq in nodes])
        coeff = np.array([wq * weight_of(kq) * g(momentum_of(kq)) for kq, wq in zip(nodes, weights)])
        return syn.SynthesizedSolution(np.multiply.outer(coeff, base.amps), momenta, node_count=nodes.size)

    full = integrate(1e-9, 1.0 - 1e-9, lambda k: k, lambda k: 1.0)
    half_lo = integrate(1e-9, 1.0 / math.sqrt(2.0), lambda k: k, lambda k: 1.0)
    # second piece: substitute k -> sqrt(1 - s^2), weight s/sqrt(1-s^2)
    half_hi = integrate(
        1e-9,
        1.0 / math.sqrt(2.0),
        lambda s: math.sqrt(max(0.0, 1.0 - s * s)),
        lambda s: s / math.sqrt(max(1e-300, 1.0 - s * s)),
    )
    pts = [(1, 2, OFFDIAG, 1.3, 2.9), (2, 2, ABOVE, 3.1, 0.4), (3, 3, BELOW, 0.8, 5.5)]
    for i, j, sector, x, y in pts:
        a = full.value_array(i, j, sector, x, y)[0]
        b = half_lo.value_array(i, j, sector, x, y)[0] + half_hi.value_array(i, j, sector, x, y)[0]
        assert a == pytest.approx(b, abs=1e-8)


def test_grid_rows_export():
    sol = syn.synthesize_eigensolution(
        CFG3, {0: syn.gaussian_bump(0.3, 0.1)}, syn.gauss_rule(8)
    )
    rows = sol.grid_rows(span=2.0, step=1.0)
    # 9 points per patch, 6 off-diagonal quadrants + 3 diagonal with 2 sectors
    assert len(rows) == 9 * (6 + 3 * 2)
    assert syn.GRID_HEADER == ["quadrant_i", "quadrant_j", "sector", "x", "y", "re", "im"]
    assert all(len(r) == len(syn.GRID_HEADER) for r in rows)


@pytest.mark.parametrize("span, step", [(2.0, 0.0), (2.0, -1.0), (2.0, np.nan), (-1.0, 1.0), (np.inf, 1.0), (np.nan, 1.0)])
def test_grid_rows_refuses_a_bad_grid(span, step):
    sol = syn.synthesize_eigensolution(CFG3, {0: syn.gaussian_bump(0.3, 0.1)}, syn.gauss_rule(4))
    with pytest.raises(ValueError, match="grid step must be positive"):
        sol.grid_rows(span=span, step=step)


def test_grid_rows_match_a_per_quadrant_loop(monkeypatch):
    # the above sector of every quadrant and the below sector of the
    # diagonal ones, here three nodes per block, give the values of one sum
    # per quadrant and sector; each block builds one phase table per sector
    sol = syn.synthesize_eigensolution(CFG3, {9: syn.gaussian_bump(0.35, 0.08)}, syn.gauss_rule(8))
    coords = np.arange(0.0, 2.0 + 1e-12, 0.5)
    xs, ys = (a.reshape(-1) for a in np.meshgrid(coords, coords, indexing="ij"))
    monkeypatch.setattr(domain, "WAVE_POINTS", 8 * 3 * xs.size)
    tables = []
    build = domain._phase_table
    monkeypatch.setattr(domain, "_phase_table", lambda *args: tables.append(args) or build(*args))
    rows = sol.grid_rows(span=2.0, step=0.5)
    assert len(tables) == 2 * 3
    want = []
    for i in range(1, 4):
        for j in range(1, 4):
            for sector in (ABOVE, BELOW) if i == j else (OFFDIAG,):
                vals = sol.value_array(i, j, sector, xs, ys)
                want += [(i, j, sector, x, y, v) for x, y, v in zip(xs, ys, vals)]
    got = [(i, j, sector, x, y, complex(re, im)) for i, j, sector, x, y, re, im in rows]
    assert got == want


def test_node_blocks_match_one_wave_sum(monkeypatch):
    # many points are summed a few nodes at a time; the blocks add up to
    # the single 8P-wave sum
    sol = syn.synthesize_eigensolution(CFG3, {10: syn.gaussian_bump(0.3, 0.1)}, syn.gauss_rule(7))
    xs = np.linspace(0.0, 6.0, 40)
    args = (np.array([[1], [2], [3]]), 2, ABOVE, xs, 0.5 * xs)
    whole = [sol.value_array(*args), sol.derivative_array(*args, "dy")]
    monkeypatch.setattr(domain, "WAVE_POINTS", 8 * 3 * xs.size)
    blocked = [sol.value_array(*args), sol.derivative_array(*args, "dy")]
    for got, want in zip(blocked, whole):
        assert got.shape == (3, 40)
        assert got == pytest.approx(want, abs=1e-14)


def test_one_phase_table_per_boundary_family_of_a_synthesized_solution(monkeypatch):
    # 32 nodes fit one block at every family's points, so the value and
    # derivative sums of a family share a table: vertex x = 0, vertex
    # y = 0 and the diagonals
    tables = []
    build = domain._phase_table
    monkeypatch.setattr(domain, "_phase_table", lambda *args: tables.append(args) or build(*args))
    sol = syn.synthesize_eigensolution(CFG3, {9: syn.gaussian_bump(0.35, 0.08)}, syn.gauss_rule(32))
    checks = vf.check_vertex_bc(sol, 3) + vf.check_diagonal_bc(sol, 3, CFG3.c)
    assert len(tables) == 3 and all(ch.passed for ch in checks)


def test_a_kept_phase_table_serves_only_its_own_points():
    # points A, B, A again on one solution give what a fresh solution gives
    def make():
        return syn.synthesize_eigensolution(CFG3, {10: syn.gaussian_bump(0.3, 0.1)}, syn.gauss_rule(7))

    xs = np.linspace(0.0, 6.0, 40)
    quads = (np.array([[1], [2], [3]]), 2, ABOVE)
    a = (*quads, xs, 0.5 * xs)
    b = (*quads, xs, 0.5 * xs + 0.25)
    sol = make()
    for args in (a, b, a):
        assert np.array_equal(sol.value_array(*args), make().value_array(*args))
        assert np.array_equal(sol.derivative_array(*args, "dy"), make().derivative_array(*args, "dy"))


def test_synthesis_checks_and_grid_do_not_depend_on_earlier_evaluations():
    # A, then B, whose last sum is at A's first points with other waves,
    # then A again
    def checks(sol):
        return [ch.to_dict() for ch in vf.check_vertex_bc(sol, sol.n) + vf.check_diagonal_bc(sol, sol.n, CFG3.c)]

    def run(sol):
        return sol.grid_rows(span=2.0, step=0.5), checks(sol)

    a = syn.synthesize_eigensolution(CFG3, {9: syn.gaussian_bump(0.35, 0.08)}, syn.gauss_rule(16))
    b = syn.synthesize_eigensolution(CFG3, {10: syn.gaussian_bump(0.3, 0.1)}, syn.gauss_rule(7))
    first = run(a)
    b.value_array(1, 2, ABOVE, np.linspace(0.0, 6.0, 40), 0.5)
    checks(b)
    b.grid_rows(span=2.0, step=0.5)
    assert run(a) == first
