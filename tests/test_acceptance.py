"""Acceptance suite: every criterion at its stated tolerance.

One test per criterion; each prints a single PASS/FAIL line (run pytest
with -s or check the captured output).  Tolerances are pinned here,
nothing is deferred to runtime calibration.
"""

import math

import numpy as np

from stardelta.basis import build_basis, complex_momentum_profile, diagonal_closed_form, family_counts
from stardelta.domain import ABOVE, BELOW, MomentumPair, make_config
from stardelta import synthesis as syn
from stardelta import transforms as tr
from stardelta import verifier as vf


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_kernel_dimensions():
    """Kernel dims equal ((n-1)^2+1, 2(n-1), n-1, 2) for n = 3..8."""
    worst = 0.0
    for n in range(3, 9):
        report = tr.compute_kernel_decomposition(n)
        expected = {
            "ker_Q_minus": (n - 1) ** 2 + 1,
            "ker_Q_plus": 2 * (n - 1),
            "K_minus": n - 1,
            "K_plus": 2,
        }
        assert report.dims == expected, (n, report.dims)
        worst = max(worst, max(report.residuals.values()))
    _report(
        "criterion 1",
        worst < 1e-10,
        f"kernel dimensions exact for n=3..8, max operator residual {worst:.2e} < 1e-10",
    )


def test_criterion_2_basis_cardinality_and_rank():
    """2n^2-2n elements, family counts (n^2, n^2-3n, n), full sampled rank."""
    m = MomentumPair.from_k1(0.6)
    worst_gap = 1.0
    for n in (3, 4, 5):
        cfg = make_config(n, 1.0)
        elements = build_basis(cfg, m)
        counts = family_counts(elements)
        assert len(elements) == 2 * n * n - 2 * n
        assert counts == {"antisym": n * n, "sym_offdiag": n * n - 3 * n, "sym_diag": n}
        rank, svals = vf.basis_rank(elements)
        assert rank == len(elements), (n, rank)
        worst_gap = min(worst_gap, svals[-1] / svals[0])
    _report(
        "criterion 2",
        worst_gap > 1e-8,
        f"counts (n^2, n^2-3n, n) and rank 2n^2-2n for n=3,4,5; "
        f"worst singular-value ratio {worst_gap:.2e} > 1e-8",
    )


def test_criterion_3_boundary_condition_residuals():
    """Vertex and diagonal residuals < 1e-9 over 20 random (c, k1) draws per n."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in range(3, 7):
        cfg_draws = 0
        while cfg_draws < 20:
            c = float(rng.uniform(-3.0, 3.0))
            if abs(c) < 0.05:
                continue
            k1 = float(rng.uniform(0.05, 0.70))
            cfg_draws += 1
            cfg = make_config(n, c)
            m = MomentumPair.from_k1(k1)
            for el in build_basis(cfg, m):
                sol = vf.TensorSolution(el.tensor, el.momentum)
                checks = vf.check_vertex_bc(sol, n, samples=60)
                checks += vf.check_diagonal_bc(sol, n, c, samples=60)
                worst = max(worst, max(ch.max_abs_residual for ch in checks))
    _report(
        "criterion 3",
        worst < 1e-9,
        f"vertex/diagonal residuals over n=3..6, 20 draws each: max {worst:.2e} < 1e-9",
    )


def test_criterion_4_transform_pointwise_equivalence():
    """Extracted transforms satisfy the vertex and diagonal systems < 1e-10,
    and transform-level pass/fail agrees with the pointwise diagonal check."""
    worst = 0.0
    agree = True
    for n, c, k1 in ((3, 1.0, 0.6), (4, -1.5, 0.28), (5, 2.2, 0.45), (6, -0.7, 0.33)):
        cfg = make_config(n, c)
        m = MomentumPair.from_k1(k1)
        for el in build_basis(cfg, m):
            tv = tr.extract_transforms(el.tensor, m)
            kir = tr.check_kirchhoff_transforms(tv)
            diag = tr.check_diagonal_conditions(tv, c)
            worst = max(worst, kir.max, diag.max)
            sol = vf.TensorSolution(el.tensor, el.momentum)
            _, jump = vf.check_diagonal_bc(sol, n, c, samples=60)
            agree = agree and ((jump.max_abs_residual <= 1e-9) == (diag.max <= 1e-9))
    _report(
        "criterion 4",
        worst < 1e-10 and agree,
        f"transform residuals max {worst:.2e} < 1e-10; "
        f"pass/fail agreement with pointwise diagonal check: {agree}",
    )


def test_criterion_5_closed_form_cross_check():
    """Diagonal closed form matches the assembled tensor to 1e-10,
    100 random points per n in {3, 4, 5}."""
    rng = np.random.default_rng(55)
    m = MomentumPair.from_k1(0.6)
    worst = 0.0
    for n in (3, 4, 5):
        cfg = make_config(n, 1.3)
        elements = [el for el in build_basis(cfg, m) if el.family == "sym_diag"]
        for _ in range(100):
            el = elements[int(rng.integers(len(elements)))]
            (i,) = el.indices
            x, y = rng.uniform(0.0, 10.0, size=2)
            sector = ABOVE if x > y else BELOW
            got = el.tensor.value_array(i, i, sector, x, y, m)[0]
            want = diagonal_closed_form(cfg, m, x, y)
            worst = max(worst, abs(got - want))
    _report(
        "criterion 5",
        worst < 1e-10,
        f"closed form vs tensor on Q_ii, 100 points per n: max |diff| {worst:.2e} < 1e-10",
    )


def test_criterion_6_norm_limit_identity():
    """|lhs(R)/rhs - 1| < 0.05 at R = 200, improving over R in {50, 100, 200}."""
    profile = {(1, 1): syn.gaussian_bump(0.33, 0.12)}
    errors = []
    for R in (50.0, 100.0, 200.0):
        res = vf.check_norm_limit(profile, R)
        assert res.converged, f"2-D quadrature not converged at R={R}"
        errors.append(res.relative_error)
    monotone = errors[0] > errors[1] > errors[2]
    _report(
        "criterion 6",
        monotone and errors[2] < 0.05,
        f"norm-limit relative errors {[f'{e:.4f}' for e in errors]} "
        f"monotone={monotone}, final {errors[2]:.4f} < 0.05",
    )


def test_criterion_7_synthesis_inheritance():
    """64-node synthesis passes all checks < 1e-8; 32->64 refinement < 1e-9."""
    cfg = make_config(3, 1.0)
    sol64 = syn.synthesize_eigensolution(
        cfg, {9: syn.gaussian_bump(0.35, 0.08)}, syn.gauss_rule(64)
    )
    checks = vf.check_vertex_bc(sol64, 3, samples=50)
    checks += vf.check_diagonal_bc(sol64, 3, cfg.c, samples=50)
    worst = max(ch.max_abs_residual for ch in checks)
    sol32 = syn.synthesize_eigensolution(
        cfg, {9: syn.gaussian_bump(0.35, 0.08)}, syn.gauss_rule(32)
    )
    record = syn.refine_quadrature(sol32)
    _report(
        "criterion 7",
        worst < 1e-8 and record.max_change < 1e-9,
        f"synthesised solution residuals max {worst:.2e} < 1e-8; "
        f"32->64 node change {record.max_change:.2e} < 1e-9",
    )


def test_criterion_8_negative_controls():
    """(a) generic basic solution fails the jump > 1e-3;
    (b) every 1e-3 single-amplitude mutation triggers a residual > 1e-5."""
    cfg = make_config(3, 1.0)
    report = tr.compute_kernel_decomposition(3, basis=tr.EDGE)
    vec = report.bases["ker_Q_minus"][:, 0]
    chi_hat, chi_check = tr.kernel_pair_matrices(vec, 3, tr.EDGE)
    sol = syn.synthesize_basic_solution(
        cfg, chi_hat, chi_check, tau_sign=1,
        profile=syn.gaussian_bump(0.3, 0.1), rule=syn.gauss_rule(48),
    )
    vertex_ok = all(ch.max_abs_residual <= 1e-8 for ch in vf.check_vertex_bc(sol, 3, samples=60))
    _, jump = vf.check_diagonal_bc(sol, 3, cfg.c, samples=60)
    basic_detected = jump.max_abs_residual > 1e-3

    m = MomentumPair.from_k1(0.6)
    records = vf.mutation_sweep(cfg, m, rel=1e-3, per_element=2, detect_above=1e-5, seed=9)
    mutations_detected = all(r["detected"] for r in records)
    weakest = min(r["max_residual"] for r in records)
    _report(
        "criterion 8",
        vertex_ok and basic_detected and mutations_detected,
        f"basic solution: vertex ok={vertex_ok}, jump residual {jump.max_abs_residual:.2e} > 1e-3; "
        f"mutations: {sum(r['detected'] for r in records)}/{len(records)} detected, "
        f"weakest {weakest:.2e} > 1e-5",
    )


def test_criterion_9_complex_momentum_diagnostic():
    """At k = i*c/2 with c = -2: first term bounded on x+y in [0, 20],
    second grows monotonically by more than e^10."""
    cfg = make_config(3, -2.0)
    u = 0.7
    vs = np.linspace(u, 20.0, 40)
    samples = complex_momentum_profile(
        cfg, 0.5, [((v + u) / 2, (v - u) / 2) for v in vs]
    )
    first = np.array([abs(s.decaying_term) for s in samples])
    second = np.array([abs(s.growing_term) for s in samples])
    bounded = float(np.max(first))
    monotone = bool(np.all(np.diff(second) > 0))
    growth = second[-1] / second[0]
    _report(
        "criterion 9",
        bounded <= 3.0 and monotone and growth > math.exp(10.0),
        f"first term bounded by {bounded:.3f}; second term monotone={monotone}, "
        f"growth factor {growth:.3e} > e^10 = {math.exp(10):.3e}",
    )
