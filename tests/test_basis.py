"""Two-particle products, the full basis, and the diagonal closed form."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import combine, edge_wave, phi_stack, single_slot_product, table_entries
from stardelta.basis import (
    basis_rows,
    basis_template,
    build_basis,
    check_coupling_scale,
    circular_distance,
    closed_form,
    complex_momentum_profile,
    coupling_overflows,
    cycle_completing_tensor,
    diagonal_closed_form,
    family_counts,
    family_rows,
    product_tensor,
)
from stardelta.domain import ABOVE, BELOW, OFFDIAG, AmplitudeTensor, MomentumPair, Refusal, check_pole, make_config
from stardelta.oneparticle import LARGER, NEUTRAL, SMALLER, OneParticleSolution, phi, scattering_wave, xi_solution
from stardelta import verifier as vf
from stardelta.verifier import basis_rank

CFG3 = make_config(3, 1.0)
M68 = MomentumPair.from_k1(0.6)


def _branches(i, j, sector):
    if i != j:
        return NEUTRAL, NEUTRAL
    return (LARGER, SMALLER) if sector == ABOVE else (SMALLER, LARGER)


def test_circular_distance():
    assert circular_distance(1, 3, 3) == 1
    assert circular_distance(1, 3, 4) == 2
    assert circular_distance(2, 5, 5) == 2
    assert circular_distance(4, 4, 5) == 0


def test_phi_phi_00_is_cosine_product():
    state = product_tensor(phi(CFG3, 0), phi(CFG3, 0), 1)
    rng = np.random.default_rng(1)
    for _ in range(20):
        i, j = rng.integers(1, 4, size=2)
        sector = OFFDIAG if i != j else ABOVE
        x, y = rng.uniform(0, 9, size=2)
        got = state.value_array(int(i), int(j), sector, x, y, M68)[0]
        expected = np.cos(0.6 * x) * np.cos(0.8 * y) + np.cos(0.8 * x) * np.cos(0.6 * y)
        assert got == pytest.approx(expected, abs=1e-13)


def test_psi_psi_matches_factorwise_oracle():
    psi1, psi2 = scattering_wave(CFG3, 1), scattering_wave(CFG3, 2)
    state = product_tensor(psi1, psi2, -1)
    got = state.value_array(1, 3, OFFDIAG, 1.0, 2.0, M68)[0]
    oracle = (edge_wave(psi1, 1, 1.0, 0.6) * edge_wave(psi2, 3, 2.0, 0.8)
              - edge_wave(psi2, 1, 1.0, 0.8) * edge_wave(psi1, 3, 2.0, 0.6))
    assert got == pytest.approx(oracle, abs=1e-12)


def test_product_matches_factorwise_oracle_all_quadrants():
    # f(x, k1) g(y, k2) + sign * g(x, k2) f(y, k1), factor by factor with
    # each variable's branch; in the xi pairs the branch scales swap
    # factors under exchange
    cfg = make_config(4, 1.0)
    psi2, psi3 = scattering_wave(cfg, 2), scattering_wave(cfg, 3)
    phi0, phi1, phi3 = phi(cfg, 0), phi(cfg, 1), phi(cfg, 3)
    xi = xi_solution(cfg)
    rng = np.random.default_rng(8)
    k1, k2 = M68.k1, M68.k2
    for f, g in ((psi3, psi2), (phi1, phi3), (phi0, phi1), (phi3, xi), (xi, phi1)):
        for sign in (1, -1):
            state = product_tensor(f, g, sign)
            for i in range(1, cfg.n + 1):
                for j in range(1, cfg.n + 1):
                    for sector in (ABOVE, BELOW) if i == j else (OFFDIAG,):
                        bx, by = _branches(i, j, sector)
                        x, y = rng.uniform(0, 9, size=2)
                        got = state.value_array(i, j, sector, x, y, M68)[0]
                        oracle = (edge_wave(f, i, x, k1, bx) * edge_wave(g, j, y, k2, by)
                                  + sign * edge_wave(g, i, x, k2, bx) * edge_wave(f, j, y, k1, by))
                        assert got == pytest.approx(oracle, abs=1e-12), (i, j, sector, sign)


def test_phi_xi_antisym_exchange_rule():
    # the phi/xi product obeys psi(x, y) = sign * psi(y, x) with the sector
    # flipped along with the coordinates; at x = y the two sector branches
    # therefore differ by the sign
    rng = np.random.default_rng(6)
    for sign in (1, -1):
        state = product_tensor(phi(CFG3, 1), xi_solution(CFG3), sign)
        for _ in range(20):
            i, j = (int(v) for v in rng.integers(1, 4, size=2))
            sector = OFFDIAG if i != j else (ABOVE if rng.random() < 0.5 else BELOW)
            flipped = sector if i != j else (BELOW if sector == ABOVE else ABOVE)
            x, y = rng.uniform(0, 9, size=2)
            v = state.value_array(i, j, sector, x, y, M68)[0]
            w = state.value_array(j, i, flipped, y, x, M68)[0]
            assert w == pytest.approx(sign * v, abs=1e-12)
        t = 2.5
        va = state.value_array(1, 1, ABOVE, t, t, M68)[0]
        vb = state.value_array(1, 1, BELOW, t, t, M68)[0]
        assert vb == pytest.approx(sign * va, abs=1e-12)


@pytest.mark.parametrize(
    "n,expected",
    [(3, (9, 0, 3)), (4, (16, 4, 4)), (5, (25, 10, 5))],
)
def test_family_counts(n, expected):
    cfg = make_config(n, 1.0)
    elements = build_basis(cfg, M68)
    counts = family_counts(elements)
    assert len(elements) == 2 * n * n - 2 * n
    assert (counts["antisym"], counts["sym_offdiag"], counts["sym_diag"]) == expected


def test_build_basis_rejects_zero_coupling():
    with pytest.raises(ValueError):
        build_basis(make_config(3, 0.0), M68)


def test_build_basis_refuses_degenerate_momentum():
    # k1 = k2 lies in the pole zone, refused with the one pole message
    m_eq = MomentumPair.from_k1(1.0 / np.sqrt(2.0))
    with pytest.raises(ValueError) as pole:
        check_pole(m_eq.fold, CFG3.c)
    with pytest.raises(ValueError) as refusal:
        build_basis(CFG3, m_eq)
    assert str(refusal.value) == str(pole.value)


@pytest.mark.parametrize("c", [1e-308, -1e-308, 3e-308, 1e-310, 5e-324])
def test_build_basis_refuses_a_coupling_whose_tables_overflow(c):
    with pytest.raises(ValueError, match="would overflow"):
        build_basis(make_config(3, c), M68)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_couplings_just_above_the_overflow_bound_check_cleanly(n):
    # the bound is 4n over the largest float; just above it the basis, every
    # check, the rank and the mutation sweep run without a RuntimeWarning
    bound = 4 * n / np.finfo(float).max
    assert coupling_overflows(make_config(n, 0.99 * bound)) and coupling_overflows(make_config(n, -0.99 * bound))
    for c in (1.01 * bound, -1.01 * bound):
        cfg = make_config(n, c)
        assert not coupling_overflows(cfg)
        for k1 in (0.2, 0.6):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                vf.verify_full_basis(cfg, MomentumPair.from_k1(k1), samples=60)
                vf.mutation_sweep(cfg, MomentumPair.from_k1(k1))


def _oracle_terms(cfg):
    """Terms (coefficient, tensor) of the tables T0, T1, T2 of every
    element, in basis order, from single-slot products summed the way the
    tables were summed before the exchange-symmetrised product."""
    n = cfg.n
    psi = [None] + [scattering_wave(cfg, i) for i in range(1, n + 1)]
    ph = [phi(cfg, i) for i in range(n + 1)]
    xi = xi_solution(cfg)

    def prod(f, g, assignment):
        return single_slot_product(n, f, g, assignment)

    out = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            out.append(([(1.0, prod(psi[i], psi[j], (1, 2))), (-1.0, prod(psi[j], psi[i], (2, 1)))], [], []))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if circular_distance(i, j, n) >= 2:
                out.append(([(1.0, prod(ph[i], ph[j], (1, 2))), (1.0, prod(ph[j], ph[i], (2, 1)))], [], []))
    completer = []
    for i in range(1, n + 1):
        s = 1 if i == n else i + 1
        completer += [
            (1.0, prod(ph[i], ph[s], (1, 2))),
            (1.0, prod(ph[s], ph[i], (2, 1))),
            (-1.0, prod(ph[s], ph[i], (1, 2))),
            (-1.0, prod(ph[i], ph[s], (2, 1))),
        ]
    completer = combine(completer)
    for i in range(1, n + 1):
        t0 = [
            (1.0, prod(ph[i], xi, (1, 2))),
            (-1.0, prod(xi, ph[i], (1, 2))),
            (-1.0, prod(ph[i], xi, (2, 1))),
            (1.0, prod(xi, ph[i], (2, 1))),
            (1.0 / n, completer),
        ]
        t1 = [(-n, prod(ph[0], ph[i], (1, 2))), (-n, prod(ph[i], ph[0], (2, 1)))]
        t2 = [(n, prod(ph[0], ph[i], (2, 1))), (n, prod(ph[i], ph[0], (1, 2)))]
        out.append((t0, t1, t2))
    return out


def _termwise_basis(cfg, m):
    """Every element as a weighted sum of single-slot products at the
    momentum pair, term by term, without the momentum-free tables."""
    s1, s2 = m.k1 / cfg.c, m.k2 / cfg.c
    return [
        combine(t0 + [(s1 * a, t) for a, t in t1] + [(s2 * a, t) for a, t in t2])
        for t0, t1, t2 in _oracle_terms(cfg)
    ]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("c,k1", [(1.0, 0.6), (-2.5, 0.3), (1e-6, 0.6), (0.7, 0.0), (0.7, 1.0)])
def test_template_basis_matches_termwise_sum(n, c, k1):
    cfg, m = make_config(n, c), MomentumPair.from_k1(k1)
    elements = build_basis(cfg, m)
    reference = _termwise_basis(cfg, m)
    assert len(elements) == len(reference)
    for el, ref in zip(elements, reference):
        scale = np.max(np.abs(ref.amps))
        assert scale > 0 and np.max(np.abs(el.tensor.amps - ref.amps)) <= 1e-12 * scale, el.label


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_template_tables_equal_single_slot_oracle(n):
    # exactly equal, not within roundoff: each table sums the same
    # products in the same order as the single-slot construction
    cfg = make_config(n, 1.0)
    oracle = _oracle_terms(cfg)
    heads, t0, t1, t2 = basis_template(cfg)
    assert len(heads) == len(t0) == len(oracle)
    first, zero = len(heads) - n, np.zeros_like(t0[0])  # T1 and T2 hold the last n rows
    for row, ((family, indices), terms) in enumerate(zip(heads, oracle)):
        coupled = (t1[row - first], t2[row - first]) if row >= first else (zero, zero)
        for t, (table, table_terms) in enumerate(zip((t0[row],) + coupled, terms)):
            expected = combine(table_terms).amps if table_terms else 0
            assert np.array_equal(table, np.broadcast_to(expected, t0.shape[1:])), (family, indices, t)


def test_template_is_coupling_free_with_momentum_parts_only_in_sym_diag():
    # the tables of one n serve every coupling; T1, T2 are the sym_diag rows' only
    heads, *tables = basis_template(make_config(4, 1.0))
    other_heads, *other = basis_template(make_config(4, -3.0))
    assert heads == other_heads
    assert all(np.array_equal(t, u) for t, u in zip(tables, other))
    t0, t1, t2 = tables
    assert all(np.any(table) for table in t0)
    assert [family for family, _ in heads[len(heads) - len(t1):]] == ["sym_diag"] * len(t1) == ["sym_diag"] * 4
    assert all(np.any(a) and np.any(b) for a, b in zip(t1, t2))


def test_exchange_symmetry():
    rng = np.random.default_rng(12)
    elements = build_basis(CFG3, M68)
    for el in elements:
        sign = -1.0 if el.family == "antisym" else 1.0
        for _ in range(20):
            i, j = (int(v) for v in rng.integers(1, 4, size=2))
            sector = OFFDIAG if i != j else (ABOVE if rng.random() < 0.5 else BELOW)
            swapped_sector = sector if i != j else (BELOW if sector == ABOVE else ABOVE)
            x, y = rng.uniform(0, 9, size=2)
            v = el.tensor.value_array(i, j, sector, x, y, el.momentum)[0]
            w = el.tensor.value_array(j, i, swapped_sector, y, x, el.momentum)[0]
            assert w == pytest.approx(sign * v, abs=1e-12)


def test_sym_offdiag_vanishes_on_diagonal_quadrants():
    cfg = make_config(5, 2.0)
    rng = np.random.default_rng(3)
    for el in build_basis(cfg, M68):
        if el.family != "sym_offdiag":
            continue
        for _ in range(10):
            i = int(rng.integers(1, 6))
            sector = ABOVE if rng.random() < 0.5 else BELOW
            x, y = rng.uniform(0, 9, size=2)
            v = el.tensor.value_array(i, i, sector, x, y, el.momentum)[0]
            assert abs(v) <= 1e-13


def test_cycle_completer_vanishes_on_diagonal_quadrants():
    t = cycle_completing_tensor(CFG3, phi_stack(CFG3))
    rng = np.random.default_rng(4)
    for _ in range(20):
        i = int(rng.integers(1, 4))
        sector = ABOVE if rng.random() < 0.5 else BELOW
        x, y = rng.uniform(0, 9, size=2)
        assert abs(t.value_array(i, i, sector, x, y, M68)[0]) <= 1e-13


@pytest.mark.parametrize("n", [3, 4, 5])
def test_basis_rank_full(n):
    cfg = make_config(n, 1.0)
    elements = build_basis(cfg, M68)
    rank, svals = basis_rank(elements)
    assert rank == len(elements)
    assert svals[-1] / svals[0] > 1e-8


SMALL_C = (1e-8, 1e-10, 1e-12)


@pytest.mark.parametrize("c", SMALL_C)
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_basis_rank_full_at_small_coupling(n, c):
    # the sym_diag elements' O(1/c) coupling parts cancel in their sum, the
    # O(1) cycle-completing solution, which the sample matrix's last
    # sym_diag row holds, so that direction stays above the rank gap
    elements = build_basis(make_config(n, c), M68)
    rank, _ = basis_rank(elements)
    assert rank == len(elements)


@pytest.mark.parametrize("c", (1.0,) + SMALL_C)
@pytest.mark.parametrize("n", [3, 5])
def test_duplicated_sym_diag_row_stays_rank_deficient(n, c):
    # the row sum keeps the exact rank: a last sym_diag that repeats the
    # first still loses one direction
    elements = build_basis(make_config(n, c), M68)
    diag = [k for k, el in enumerate(elements) if el.family == "sym_diag"]
    elements[diag[-1]] = dataclasses.replace(elements[diag[-1]], row=elements[diag[0]].row)
    rank, _ = basis_rank(elements)
    assert rank == len(elements) - 1


@pytest.mark.parametrize("c", (1.0, -2.0) + SMALL_C)
@pytest.mark.parametrize("n", [3, 6])
def test_sym_diag_without_the_cycle_completer_stays_rank_deficient(n, c):
    # without the completer the n sym_diag elements sum to zero, so their
    # sampled sum is rounding noise, which must not count as a direction
    cfg = make_config(n, c)
    elements = build_basis(cfg, M68)
    amps = elements[0].stack.amps.copy()
    diag = [k for k, el in enumerate(elements) if el.family == "sym_diag"]
    amps[diag] -= cycle_completing_tensor(cfg, phi_stack(cfg)).amps / n
    stack = AmplitudeTensor(amps)
    rank, _ = basis_rank([dataclasses.replace(el, stack=stack) for el in elements])
    assert rank == len(elements) - 1


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_rank_ratio_does_not_depend_on_small_coupling(n):
    ratios = []
    for c in (1e-2, 1e-4) + SMALL_C:
        _, svals = basis_rank(build_basis(make_config(n, c), M68))
        ratios.append(svals[-1] / svals[0])
    assert ratios == pytest.approx([ratios[-1]] * len(ratios), rel=5e-3)
    # the floor is 1e7 times GRAM_GAP, so the cycle-completing direction is
    # well resolved at every small c, not just above the rank gap; the
    # table ratios clear it twice over (0.207 at n = 6)
    assert ratios[-1] > 0.1


def test_eigen_equation_per_entry():
    # every stored plane wave sits on the unit energy shell, so the
    # two-dimensional eigen-equation holds entry by entry
    for el in build_basis(CFG3, M68):
        for (_i, _j, _sector, sig, tau, slot), _amp in table_entries(el.tensor):
            kx = sig * (el.momentum.k1 if slot == 1 else el.momentum.k2)
            ky = tau * (el.momentum.k2 if slot == 1 else el.momentum.k1)
            assert abs(kx * kx + ky * ky - 1.0) <= 1e-12


# -- diagonal closed form -----------------------------------------------------


def test_closed_form_on_diagonal_cut():
    # at x = y only the cosine terms survive
    cfg = make_config(3, 1.3)
    m = MomentumPair.from_k1(0.6)
    k = (m.k1 + m.k2) / 2
    kp = (m.k1 - m.k2) / 2
    for x in (0.7, 2.2, 5.1):
        got = diagonal_closed_form(cfg, m, x, x)
        expected = cfg.n * (
            -(2 * k / cfg.c) * np.sin(kp * 2 * x) + (2 * kp / cfg.c) * np.sin(k * 2 * x)
        )
        assert got == pytest.approx(expected, abs=1e-12)


def test_closed_form_zero_at_origin():
    assert diagonal_closed_form(CFG3, M68, 0.0, 0.0) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("n,c", [(3, 1.0), (4, -1.5), (5, 0.7)])
def test_closed_form_matches_tensor(n, c):
    # the sector tag must match the side of the cut the point lies on;
    # evaluating a branch on the far side is an analytic continuation
    # and differs from the |x-y| closed form by the sign of the odd terms
    cfg = make_config(n, c)
    m = MomentumPair.from_k1(0.6)
    elements = [el for el in build_basis(cfg, m) if el.family == "sym_diag"]
    rng = np.random.default_rng(21)
    for el in elements:
        (i,) = el.indices
        for _ in range(30):
            x, y = rng.uniform(0, 9, size=2)
            sector = ABOVE if x > y else BELOW
            got = el.tensor.value_array(i, i, sector, x, y, m)[0]
            want = diagonal_closed_form(cfg, m, x, y)
            assert got == pytest.approx(want, abs=1e-10)


def test_closed_form_specific_point():
    cfg = make_config(3, 1.0)
    m = MomentumPair.from_k1(0.6)
    el = [e for e in build_basis(cfg, m) if e.family == "sym_diag" and e.indices == (1,)][0]
    got = el.tensor.value_array(1, 1, ABOVE, 1.5, 0.5, m)[0]
    want = diagonal_closed_form(cfg, m, 1.5, 0.5)
    assert got == pytest.approx(want, abs=1e-10)


# -- complex momentum diagnostic ----------------------------------------------


def test_complex_profile_requires_attractive_coupling():
    with pytest.raises(ValueError):
        complex_momentum_profile(CFG3, 0.5, [(1.0, 0.0)])


def test_complex_profile_zero_at_origin():
    cfg = make_config(3, -2.0)
    (sample,) = complex_momentum_profile(cfg, 0.5, [(0.0, 0.0)])
    assert sample.decaying_term == pytest.approx(0.0, abs=1e-15)
    assert sample.growing_term == pytest.approx(0.0, abs=1e-15)


def test_complex_profile_first_term_value():
    # c = -2, k' = 0.5, (x, y) = (3, 1): -e^{-2} sin 2 times i*n
    cfg = make_config(3, -2.0)
    (sample,) = complex_momentum_profile(cfg, 0.5, [(3.0, 1.0)])
    scalar = -np.exp(-2.0) * np.sin(2.0)
    assert scalar == pytest.approx(-0.12306, abs=1e-5)
    assert sample.decaying_term == pytest.approx(1j * 3 * scalar, abs=1e-12)


def test_complex_profile_growth_along_sum_coordinate():
    cfg = make_config(3, -2.0)
    u = 0.7
    vs = np.linspace(1.0, 20.0, 24)
    samples = complex_momentum_profile(
        cfg, 0.5, [((v + u) / 2, (v - u) / 2) for v in vs]
    )
    mags = np.array([abs(s.growing_term) for s in samples])
    assert np.all(np.diff(mags) > 0)
    assert mags[-1] / mags[0] > np.exp(10.0)
    firsts = np.array([abs(s.decaying_term) for s in samples])
    assert np.max(firsts) <= 3 * np.exp(-abs(cfg.c) * u / 2) + 1e-12


def test_complex_profile_sums_to_continued_closed_form():
    cfg = make_config(3, -2.0)
    k = 1j * cfg.c / 2
    for x, y in ((2.0, 0.5), (1.1, 4.0)):
        (sample,) = complex_momentum_profile(cfg, 0.5, [(x, y)])
        want = closed_form(cfg, k, 0.5, x, y)
        assert sample.total == pytest.approx(want, abs=1e-12)


def test_complex_momentum_tensor_matches_profile():
    # the same plane-wave machinery evaluates at complex on-shell pairs:
    # with the sum-coordinate momentum at i*c/2 the assembled sym_diag
    # tensor equals the two-term decomposition on its diagonal quadrant
    cfg = make_config(3, -2.0)
    k = 1j * cfg.c / 2
    kp = np.sqrt(1.5)  # keeps k1^2 + k2^2 = 1
    m = MomentumPair(k + kp, k - kp)
    el = [b for b in build_basis(cfg, m) if b.family == "sym_diag" and b.indices == (1,)][0]
    for x, y in ((2.0, 0.5), (1.2, 3.0), (4.0, 4.0), (0.3, 6.0)):
        sector = ABOVE if x >= y else BELOW
        got = el.tensor.value_array(1, 1, sector, x, y, m)[0]
        (sample,) = complex_momentum_profile(cfg, kp, [(x, y)])
        assert got == pytest.approx(sample.total, rel=1e-12, abs=1e-12)


def _per_element_basis(cfg, m):
    """Every element's table from products of single factors, one element
    at a time, as T0 + (k1/c) T1 + (k2/c) T2."""
    n = cfg.n
    psis = [scattering_wave(cfg, i) for i in range(1, n + 1)]
    phis = [phi(cfg, i) for i in range(n + 1)]
    xi = xi_solution(cfg)
    s1, s2 = m.k1 / cfg.c, m.k2 / cfg.c
    zero = np.zeros_like(product_tensor(xi, xi, 1).amps)
    completer = combine(
        term for i in range(1, n + 1) for term in (
            (1.0, product_tensor(phis[i], phis[i % n + 1], 1)), (-1.0, product_tensor(phis[i % n + 1], phis[i], 1)))).amps
    tables = [(product_tensor(f, g, -1).amps, zero, zero) for f in psis for g in psis]
    tables += [(product_tensor(phis[i], phis[j], 1).amps, zero, zero)
               for i in range(1, n + 1) for j in range(1, n + 1) if circular_distance(i, j, n) >= 2]
    tables += [(product_tensor(phis[i], xi, 1).amps - product_tensor(xi, phis[i], 1).amps + (1.0 / n) * completer,
                -n * product_tensor(phis[0], phis[i], 1).amps, n * product_tensor(phis[i], phis[0], 1).amps)
               for i in range(1, n + 1)]
    return np.array([t0 + s1 * t1 + s2 * t2 for t0, t1, t2 in tables])


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("c", [1.7, -0.4])
def test_stacked_build_equals_the_per_element_products(n, c):
    cfg, m = make_config(n, c), MomentumPair.from_k1(0.3)
    elements = build_basis(cfg, m)
    assert np.array_equal(elements[0].stack.amps, _per_element_basis(cfg, m))


def test_stacked_factors_give_the_products_row_by_row():
    cfg = make_config(4, 1.0)
    phis = [phi(cfg, i) for i in range(1, 5)]
    stacked = OneParticleSolution(np.stack([f.coeff for f in phis]))
    xi = xi_solution(cfg)
    assert stacked.n == 4
    for sign in (1, -1):
        rows = product_tensor(stacked, xi, sign).amps
        assert rows.shape == (4, 4, 5, 2, 2, 2)
        for f, row in zip(phis, rows):
            assert np.array_equal(row, product_tensor(f, xi, sign).amps)
        pairs = product_tensor(stacked, OneParticleSolution(np.roll(stacked.coeff, 1, axis=0)), sign).amps
        for f, g, row in zip(phis, phis[-1:] + phis[:-1], pairs):
            assert np.array_equal(row, product_tensor(f, g, sign).amps)


def test_build_basis_peak_memory_stays_near_its_table():
    # the families are written into the stacked table a chunk at a time
    cfg, m = make_config(12, 1.3), MomentumPair.from_k1(0.3)
    build_basis(cfg, m)
    tracemalloc.start()
    try:
        elements = build_basis(cfg, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * elements[0].stack.amps.nbytes


def test_build_basis_at_n20_peaks_under_50_mib():
    # one cell per quadrant sector: the n = 20 table is 39.0 MiB, where two
    # sector planes per quadrant would take 74.2 MiB on their own
    cfg, m = make_config(20, 2.1), MomentumPair.from_k1(0.2)
    tracemalloc.start()
    try:
        elements = build_basis(cfg, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elements[0].stack.amps.nbytes == 760 * 20 * 21 * 8 * 16
    assert peak <= 50 * 2**20


@pytest.mark.parametrize("n", range(3, 13))
def test_cycle_completer_equals_the_interleaved_sum_of_pair_products(n):
    # the oracle: per pair, S+(phi^i, phi^{i+1}) then minus
    # S+(phi^{i+1}, phi^i), added in that order
    cfg = make_config(n, 1.0)
    phis = [phi(cfg, i) for i in range(n + 1)]
    pairs = [(i, i % n + 1) for i in range(1, n + 1)]
    products = [product_tensor(phis[i], phis[j], 1) for i, j in pairs + [(j, i) for i, j in pairs]]
    # every entry is 0, +-1/4 or +-1/2, so every partial sum is exact in any order
    for table in products:
        assert set(np.unique(np.concatenate([table.amps.real, table.amps.imag]).ravel())) <= {0.0, 0.25, -0.25, 0.5, -0.5}
    interleaved = combine(term for k in range(n) for term in ((1.0, products[k]), (-1.0, products[n + k])))
    assert np.array_equal(cycle_completing_tensor(cfg, phi_stack(cfg)).amps, interleaved.amps)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("part", [slice(None), slice(0, 1), slice(3, 9), slice(7, 7), slice(2, None, 3), slice(5, 100)])
def test_family_rows_over_any_slice_are_the_row_products(sign, part):
    cfg = make_config(4, 1.3)
    factors = [scattering_wave(cfg, i) for i in range(1, 5)] + [phi(cfg, 0), phi(cfg, 2)]
    stacked = np.stack([f.coeff for f in factors])
    pairs = [(i, j) for i in range(len(factors)) for j in range(len(factors)) if (i + 2 * j) % 3]
    rows = family_rows(stacked, pairs, sign)(part)
    expected = [product_tensor(factors[i], factors[j], sign).amps for i, j in pairs[part]]
    assert rows.shape == (len(expected), 4, 5, 2, 2, 2)
    assert all(np.array_equal(row, table) for row, table in zip(rows, expected))


@pytest.mark.parametrize("n, c, k1", [(3, 1.0, 0.6), (6, 2.1, 0.2), (7, 1e-200, 0.3), (10, -0.7, 0.9)])
def test_basis_rows_are_the_rows_of_build_basis_however_sliced(n, c, k1):
    # bit for bit, the coupling terms of the sym_diag rows included, each
    # slice on a read-only table of its own
    cfg, m = make_config(n, c), MomentumPair.from_k1(k1)
    elements = build_basis(cfg, m)
    table = elements[0].stack.amps
    heads, factors, rows = basis_rows(cfg, m)
    assert heads == [(el.family, el.indices) for el in elements]
    for size in (1, 5, 17, len(heads)):
        for start in range(0, len(heads), size):
            part = rows(slice(start, start + size))
            stack = part[0].stack
            assert stack.amps.tobytes() == table[start:start + size].tobytes() and not stack.amps.flags.writeable
            assert [(el.label, el.stack, el.row) for el in part] == [(el.label, stack, row) for row, el in
                                                                      enumerate(elements[start:start + size])]
    assert np.array_equal(factors["antisym"], np.stack([scattering_wave(cfg, i).coeff for i in range(1, n + 1)]))
    assert np.array_equal(factors["sym_offdiag"], phi_stack(cfg))


@pytest.mark.parametrize("cfg, k1, tag", [
    (make_config(3, 0.0), 0.6, "c=0"), (make_config(3, 1.0), 0.7071068, "singularity"),
])
def test_basis_rows_refuses_what_build_basis_refuses(cfg, k1, tag):
    for build in (build_basis, basis_rows):
        with pytest.raises(Refusal) as refusal:
            build(cfg, MomentumPair.from_k1(k1))
        assert refusal.value.tag == tag


@pytest.mark.parametrize("refuse, tag", [
    (lambda: check_coupling_scale(make_config(3, 0.0)), "c=0"),
    (lambda: check_coupling_scale(make_config(3, 1e-310)), "overflow"),
    (lambda: check_pole(1.0 / np.sqrt(2.0), 1.0), "singularity"),
])
def test_refusals_carry_their_sweep_tag(refuse, tag):
    with pytest.raises(Refusal) as refusal:
        refuse()
    assert refusal.value.tag == tag and isinstance(refusal.value, ValueError)
