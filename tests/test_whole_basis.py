"""Stacked whole-basis checks against the one-at-a-time oracles.

``verify_full_basis`` and ``mutation_sweep`` evaluate every check family
for a stack of elements (or mutants) at once.  Their reports must be the
bytes that the per-element loops of ``helpers.py`` give, over several
stacks, at the edge points and at extreme couplings.
"""

import json
import tracemalloc

import numpy as np
import pytest

from stardelta import domain
from stardelta import transforms as tr
from stardelta import verifier as vf
from stardelta.basis import build_basis
from stardelta.domain import ABOVE, AmplitudeTensor, MomentumPair, make_config
from helpers import mutation_sweep_oracle, verify_full_basis_oracle

CFG4 = make_config(4, 1.0)
M3 = MomentumPair.from_k1(0.3)


def _bytes(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


@pytest.mark.parametrize(
    "n,c,k1", [(3, 1.0, 0.6), (4, -1.5, 0.28), (5, 2.2, 0.45), (6, 0.7, 0.33), (7, -0.3, 0.9), (8, 1.3, 0.12)]
)
def test_verify_full_basis_matches_per_element_loop(n, c, k1):
    cfg, m = make_config(n, c), MomentumPair.from_k1(k1)
    assert _bytes(vf.verify_full_basis(cfg, m)) == _bytes(verify_full_basis_oracle(cfg, m))


def test_verify_full_basis_matches_loop_over_several_stacks():
    cfg, m = make_config(12, 2.1), MomentumPair.from_k1(0.2)
    assert len(vf._stacks(cfg.basis_size, cfg.n, 60)) > 1
    got = vf.verify_full_basis(cfg, m, samples=60)
    assert _bytes(got) == _bytes(verify_full_basis_oracle(cfg, m, samples=60))


@pytest.mark.parametrize("n,c,k1", [(3, 1e-6, 0.6), (3, 1.0, 1.0), (3, 1e6, 0.6), (3, -1e6, 0.6)])
def test_verify_full_basis_matches_loop_at_edge_points(n, c, k1):
    cfg, m = make_config(n, c), MomentumPair.from_k1(k1)
    assert _bytes(vf.verify_full_basis(cfg, m)) == _bytes(verify_full_basis_oracle(cfg, m))


@pytest.mark.parametrize("per_element", [1, 3])
@pytest.mark.parametrize("n,c,k1", [(3, 1.0, 0.6), (5, -2.0, 0.3), (8, 1.1, 0.45)])
def test_mutation_sweep_matches_per_mutant_loop(n, c, k1, per_element):
    cfg, m = make_config(n, c), MomentumPair.from_k1(k1)
    got = vf.mutation_sweep(cfg, m, per_element=per_element, seed=11)
    assert got == mutation_sweep_oracle(cfg, m, per_element=per_element, seed=11)
    assert all(r["detected"] for r in got)


def test_mutation_sweep_spans_several_stacks():
    cfg = make_config(8, 1.1)
    assert len(vf._stacks(3 * cfg.basis_size, cfg.n, vf.MUTATION_SAMPLES)) > 1


def test_verify_full_basis_peak_memory():
    # the stacks are views of the basis rows, so the checks add no copy of
    # the basis (9.3 MiB of tables here); one stack of all rows at once
    # peaked at 32 MiB
    cfg, m = make_config(12, 2.1), MomentumPair.from_k1(0.2)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        vf.verify_full_basis(cfg, m, samples=60)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 21 * 2 ** 20


def test_one_phase_table_per_boundary_family(monkeypatch):
    # the value and derivative sums of a family share one table: vertex
    # x = 0, vertex y = 0 and the diagonals, for the whole stack
    tables = []
    build = domain._phase_table
    monkeypatch.setattr(domain, "_phase_table", lambda *args: tables.append(args) or build(*args))
    elements = build_basis(CFG4, M3)
    reports = vf.verify_element(elements[:10], offset=7 * np.arange(10))
    assert len(tables) == 3 and len(reports) == 10


def test_no_phase_table_is_kept_after_the_checks_return():
    # each boundary family frees its table when the check is done with it,
    # so none outlives a verify or a mutation sweep
    vf.verify_full_basis(CFG4, M3, samples=60)
    assert domain._kept == {}
    vf.mutation_sweep(CFG4, M3)
    assert domain._kept == {}


def test_a_stacked_table_is_one_block(monkeypatch):
    # eight waves are the least a block takes, so a stack of tables sums in
    # one block with one phase table, at any WAVE_POINTS
    elements = build_basis(CFG4, M3)
    sol = vf.TensorSolution(elements[0].stack, M3)
    xs = np.linspace(0.0, 5.0, 50)
    args = (np.array([[1], [2]]), 3, ABOVE, xs, xs + 1.0)
    whole = sol.value_array(*args)
    monkeypatch.setattr(domain, "WAVE_POINTS", 8)
    monkeypatch.setattr(domain, "_kept", {})
    tables = []
    build = domain._phase_table
    monkeypatch.setattr(domain, "_phase_table", lambda *args: tables.append(args) or build(*args))
    got = sol.value_array(*args)
    assert len(tables) == 1 and got.shape == (24, 2, 50) and np.array_equal(got, whole)


def test_reports_do_not_depend_on_earlier_evaluations():
    # A, then B, then A again in one process: the phase table kept between
    # calls serves only the waves and points it was built for
    def report(cfg, m):
        return json.dumps(vf.verify_full_basis(cfg, m, samples=60).to_dict())

    first = report(CFG4, M3)
    report(CFG4, MomentumPair.from_k1(0.45))
    vf.TensorSolution.from_element(build_basis(CFG4, M3)[3]).value_array(1, 2, ABOVE, np.linspace(0, 3, 7), 1.0)
    assert report(CFG4, M3) == first


def test_stacked_element_reports_match_single_elements():
    elements = build_basis(CFG4, M3)
    stacked = vf.verify_element(elements[5:11], offset=7 * np.arange(5, 11))
    for k, (el, rep) in enumerate(zip(elements[5:11], stacked), 5):
        assert rep.to_dict() == vf.verify_element([el], offset=7 * k)[0].to_dict()


@pytest.mark.parametrize("k1", [0.3, 0.8])
def test_stacked_transform_residuals_match_each_element(k1):
    # every residual component, not only the worst one a report keeps
    m = MomentumPair.from_k1(k1)
    elements = build_basis(make_config(5, -0.7), m)
    tv = tr.extract_transforms(elements[0].stack, m)
    kir, diag = tr.check_kirchhoff_transforms(tv), tr.check_diagonal_conditions(tv, -0.7)
    for k, el in enumerate(elements):
        one = tr.extract_transforms(el.tensor, m)
        pairs = ((kir, tr.check_kirchhoff_transforms(one)), (diag, tr.check_diagonal_conditions(one, -0.7)))
        for stacked, single in pairs:
            for name, value in vars(single).items():
                assert getattr(stacked, name)[k] == value, (el.label, name)


def test_stack_must_be_consecutive_rows_of_one_basis():
    elements = build_basis(CFG4, M3)
    other = build_basis(CFG4, M3)
    with pytest.raises(ValueError):
        vf.verify_element([elements[0], elements[2]], offset=np.array([0, 14]))
    with pytest.raises(ValueError):
        vf.verify_element([elements[0], other[1]], offset=np.array([0, 7]))


def test_basis_elements_are_read_only_rows_of_one_stack():
    elements = build_basis(CFG4, M3)
    stack = elements[0].stack
    assert stack.amps.shape == (len(elements), 4, 4, 2, 2, 2, 2)
    for row, el in enumerate(elements):
        assert el.stack is stack and el.row == row
        assert np.shares_memory(el.tensor.amps, stack.amps) and not el.tensor.amps.flags.writeable


def test_amplitude_tensor_copies_writable_input_and_shares_read_only():
    amps = np.zeros((3, 3, 2, 2, 2, 2), dtype=complex)
    tensor = AmplitudeTensor(amps)
    amps[0, 0, 0, 0, 0, 0] = 1.0
    assert tensor.amps[0, 0, 0, 0, 0, 0] == 0
    frozen = amps.copy()
    frozen.setflags(write=False)
    assert AmplitudeTensor(frozen).amps is frozen


def test_stacked_tables_evaluate_like_each_table():
    rng = np.random.default_rng(2)
    amps = rng.normal(size=(5, 3, 3, 2, 2, 2, 2)) + 1j * rng.normal(size=(5, 3, 3, 2, 2, 2, 2))
    stack = AmplitudeTensor(amps)
    assert stack.n == 3
    # points per table and quadrant row: (table, 1, point)
    xs = rng.uniform(0.0, 5.0, size=(5, 1, 4))
    rows = np.arange(1, 4)[:, None]
    values = stack.value_array(rows, 2, ABOVE, xs, 0.5 * xs, M3)
    slopes = stack.derivative_array(rows, 2, ABOVE, xs, 0.5 * xs, M3, "dy")
    assert values.shape == slopes.shape == (5, 3, 4)
    for e in range(5):
        one = AmplitudeTensor(amps[e])
        assert np.array_equal(values[e], one.value_array(rows, 2, ABOVE, xs[e], 0.5 * xs[e], M3))
        assert np.array_equal(slopes[e], one.derivative_array(rows, 2, ABOVE, xs[e], 0.5 * xs[e], M3, "dy"))
