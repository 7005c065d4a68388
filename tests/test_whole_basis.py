"""Stacked whole-basis checks against the one-at-a-time oracles.

``verify_full_basis`` and ``mutation_sweep`` evaluate every check family
for a stack of elements (or mutants) at once.  Their reports must be the
bytes that the per-element loops of ``helpers.py`` give, over several
stacks, at the edge points and at extreme couplings.  A basis of several
stacks is checked by the calling thread and one worker, on one CPU by
the calling thread alone; the reports are the same bytes either way.
"""

import dataclasses
import json
import os
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from stardelta import domain
from stardelta import transforms as tr
from stardelta import verifier as vf
from stardelta.basis import build_basis
from stardelta.domain import ABOVE, BELOW, AmplitudeTensor, MomentumPair, make_config
from helpers import entry_index, mutation_sweep_oracle, verify_full_basis_oracle

CFG4 = make_config(4, 1.0)
M3 = MomentumPair.from_k1(0.3)


def _bytes(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


def _cpus(monkeypatch, count):
    """Make the checks see ``count`` CPUs to run on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.fixture
def thread_starts(monkeypatch):
    """Names of the threads started while the test runs."""
    starts = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: starts.append(self.name) or start(self))
    return starts


@pytest.mark.parametrize(
    "n,c,k1", [(3, 1.0, 0.6), (4, -1.5, 0.28), (5, 2.2, 0.45), (6, 0.7, 0.33), (7, -0.3, 0.9), (8, 1.3, 0.12)]
)
def test_verify_full_basis_matches_per_element_loop(n, c, k1):
    cfg, m = make_config(n, c), MomentumPair.from_k1(k1)
    assert _bytes(vf.verify_full_basis(cfg, m)) == _bytes(verify_full_basis_oracle(cfg, m))


def test_verify_full_basis_matches_loop_over_several_stacks(monkeypatch, thread_starts):
    cfg, m = make_config(12, 2.1), MomentumPair.from_k1(0.2)
    _cpus(monkeypatch, 2)
    assert len(vf._stacks(cfg.basis_size, cfg.n, 60)) > 1
    got = vf.verify_full_basis(cfg, m, samples=60)
    assert thread_starts == ["stardelta-stacks"]
    assert _bytes(got) == _bytes(verify_full_basis_oracle(cfg, m, samples=60))


def test_one_cpu_verifies_several_stacks_in_the_calling_thread(monkeypatch, thread_starts):
    cfg, m = make_config(12, 2.1), MomentumPair.from_k1(0.2)
    _cpus(monkeypatch, 1)
    got = vf.verify_full_basis(cfg, m, samples=60)
    assert thread_starts == []
    assert _bytes(got) == _bytes(verify_full_basis_oracle(cfg, m, samples=60))


@pytest.mark.parametrize("cpus, per_element", [(1, 1), (2, 1), (1, 3), (2, 3)],
                         ids=["1", "2", "1-per_element_3", "2-per_element_3"])
def test_mutation_sweep_matches_per_mutant_loop_over_several_stacks(monkeypatch, thread_starts, cpus, per_element):
    cfg, m = make_config(12, 2.1), MomentumPair.from_k1(0.2)
    _cpus(monkeypatch, cpus)
    assert len(vf._stacks(cfg.basis_size, cfg.n, vf.MUTATION_SAMPLES)) > 1
    got = vf.mutation_sweep(cfg, m, per_element=per_element, seed=5)
    assert thread_starts == ["stardelta-stacks"] * (cpus - 1)
    assert got == mutation_sweep_oracle(cfg, m, per_element=per_element, seed=5)
    assert all(r["detected"] for r in got)


@pytest.mark.parametrize("n, stacks", [(4, 1), (10, 7)])
def test_mutants_differ_from_their_rows_only_at_the_picked_entry(monkeypatch, n, stacks):
    # each checked mutant is its element's row with the picked entry, one
    # value, times exactly 1 + rel, and the basis table the sweep drew from
    # is left as it was built
    cfg, m, rel = make_config(n, 1.3), MomentumPair.from_k1(0.6), 1e-3
    _cpus(monkeypatch, 1)  # the calling thread checks the stacks in order
    built, checked = [], []
    build, solution = vf.build_basis, vf.TensorSolution
    monkeypatch.setattr(vf, "build_basis", lambda *args: built.append(build(*args)) or built[-1])
    monkeypatch.setattr(vf, "TensorSolution", lambda tensor, mm: checked.append(tensor.amps) or solution(tensor, mm))
    records = vf.mutation_sweep(cfg, m, rel=rel, per_element=2, seed=3)
    (elements,) = built
    table = elements[0].stack.amps
    assert table.tobytes() == build_basis(cfg, m)[0].stack.amps.tobytes()
    assert len(checked) == stacks and len(records) == 2 * len(elements)
    rows = {el.label: el.row for el in elements}
    for mutant, rec in zip(np.concatenate(checked), records, strict=True):
        row = table[rows[rec["element"]]]
        at = entry_index(n, tuple(rec["entry"]))
        picked = np.zeros(row.shape, dtype=bool)
        picked[at] = True
        assert np.array_equal(mutant != row, picked)
        assert mutant[at].tobytes() == (row[at] * (1.0 + rel)).tobytes()


@pytest.mark.parametrize("n, samples", [(10, 60), (8, vf.DEFAULT_SAMPLES)], ids=["n10", "n8_default_samples"])
def test_a_basis_of_several_stacks_is_verified_on_two_threads(monkeypatch, thread_starts, n, samples):
    cfg, m = make_config(n, 1.3), MomentumPair.from_k1(0.6)
    _cpus(monkeypatch, 2)
    assert vf.verify_full_basis(cfg, m, samples=samples).overall
    assert thread_starts == ["stardelta-stacks"]


@pytest.mark.parametrize("n", range(3, 9))
def test_a_basis_of_one_stack_starts_no_thread(monkeypatch, thread_starts, n):
    # every n <= 8 at 60 samples, and its mutation sweep, fits one stack
    cfg, m = make_config(n, 1.3), MomentumPair.from_k1(0.6)
    _cpus(monkeypatch, 2)
    assert len(vf._stacks(cfg.basis_size, n, 60)) == len(vf._stacks(cfg.basis_size, n, vf.MUTATION_SAMPLES)) == 1
    assert vf.verify_full_basis(cfg, m, samples=60).overall
    assert all(r["detected"] for r in vf.mutation_sweep(cfg, m))
    assert thread_starts == []


def test_a_basis_of_many_stacks_is_checked_on_two_threads(monkeypatch, thread_starts):
    # no stack count keeps a basis on one thread: n = 26 at 60 samples
    # takes more than 48 stacks, and those are handed out in order to the
    # calling thread and one worker like any other basis's
    _cpus(monkeypatch, 2)
    stacks = vf._stacks(2 * 26 * 25, 26, 60)
    assert len(stacks) > 48
    for parts in (stacks, [slice(k, k + 1) for k in range(49)]):
        assert vf._each_stack(lambda part: [part.start], parts) == [part.start for part in parts]
    assert thread_starts == ["stardelta-stacks"] * 2


def test_an_error_on_either_thread_is_raised_and_stops_the_stacks(monkeypatch):
    _cpus(monkeypatch, 2)
    parts = [slice(k, k + 1) for k in range(40)]
    checked = []

    def check(part):
        checked.append(part.start)
        if part.start == 3:
            raise ValueError("bad stack")
        time.sleep(0.005)
        return [part.start]

    with pytest.raises(ValueError, match="bad stack"):
        vf._each_stack(check, parts)
    assert 3 in checked and len(checked) < len(parts)
    assert not any(t.name == "stardelta-stacks" for t in threading.enumerate())
    assert vf._each_stack(check, parts[4:]) == list(range(4, 40))


@pytest.mark.parametrize("n,c,k1", [(3, 1e-6, 0.6), (3, 1.0, 1.0), (3, 1e6, 0.6), (3, -1e6, 0.6)])
def test_verify_full_basis_matches_loop_at_edge_points(n, c, k1):
    cfg, m = make_config(n, c), MomentumPair.from_k1(k1)
    assert _bytes(vf.verify_full_basis(cfg, m)) == _bytes(verify_full_basis_oracle(cfg, m))


def _streamed(monkeypatch):
    """From six edges on, verify builds each stack's rows alone: any build
    of the whole table fails, and the slices of rows built are recorded."""
    def whole_table(*args):
        raise AssertionError("the whole table was built")

    built = []
    rows = vf.basis_rows

    def recorded(cfg, m):
        heads, factors, elements = rows(cfg, m)
        return heads, factors, lambda part: built.append(part.indices(len(heads))[:2]) or elements(part)

    monkeypatch.setattr(vf, "build_basis", whole_table)
    monkeypatch.setattr(vf, "basis_rows", recorded)
    return built


@pytest.mark.parametrize("cpus", [1, 2])
def test_each_stack_builds_its_own_rows_once(monkeypatch, cpus):
    cfg, m = make_config(12, 2.1), MomentumPair.from_k1(0.2)
    want = _bytes(verify_full_basis_oracle(cfg, m, samples=60))
    _cpus(monkeypatch, cpus)
    built = _streamed(monkeypatch)
    assert _bytes(vf.verify_full_basis(cfg, m, samples=60)) == want
    parts = [part.indices(cfg.basis_size)[:2] for part in vf._stacks(cfg.basis_size, cfg.n, 60)]
    assert sorted(built) == parts


@pytest.mark.parametrize("n,c,k1,fallback", [
    (6, 1.0, 1.0, True), (6, 1.0, 0.0, True), (6, 1e-13, 0.6, True), (7, 1e-200, 0.3, False),
])
def test_streamed_reports_are_the_whole_table_reports_where_the_rank_falls_back(monkeypatch, n, c, k1, fallback):
    # at the endpoints and at c = 1e-13 the even block's structure decides
    # nothing, so that block rebuilds its own rows, and only those, for its
    # table SVD; at (7, 1e-200, 0.3) both blocks read the structure
    cfg, m = make_config(n, c), MomentumPair.from_k1(k1)
    want = _bytes(verify_full_basis_oracle(cfg, m))
    built = _streamed(monkeypatch)
    svds = []
    table_rank = vf._table_rank
    monkeypatch.setattr(vf, "_table_rank", lambda block: svds.append(len(block)) or table_rank(block))
    assert _bytes(vf.verify_full_basis(cfg, m)) == want
    even = (n * n, cfg.basis_size)
    assert svds == ([even[1] - even[0]] if fallback else [])
    assert built.count(even) == fallback


def _crafted_rows(monkeypatch, craft):
    """Make verify build its rows by ``basis_rows`` with
    ``craft(row, amps, elements)`` applied to each row it builds, and
    return that crafted ``basis_rows``."""
    rows = vf.basis_rows

    def crafted(cfg, m):
        heads, factors, elements = rows(cfg, m)

        def built(part):
            start, stop, _ = part.indices(len(heads))
            amps = elements(part)[0].stack.amps.copy()
            for row in range(start, stop):
                craft(row, amps[row - start], elements)
            amps.setflags(write=False)
            stack = AmplitudeTensor(amps)
            return [dataclasses.replace(el, stack=stack) for el in elements(part)]

        return heads, factors, built

    monkeypatch.setattr(vf, "basis_rows", crafted)
    return crafted


def test_a_crafted_basis_whose_even_block_falls_back_reads_its_rebuilt_rows(monkeypatch):
    # sym_diag(1)'s row written into sym_diag(2)'s: each stack's rows pass
    # their checks of parity, but the family's sum reaches a diagonal
    # quadrant, so the even block rebuilds its rows for its table SVD and
    # reads rank 59 of 60, as the whole crafted table reads it
    cfg, m = make_config(6, 1.3), MomentumPair.from_k1(0.6)
    first = cfg.basis_size - cfg.n

    def craft(row, amps, elements):
        if row == first + 1:
            amps[...] = elements(slice(first, first + 1))[0].tensor.amps

    whole = _crafted_rows(monkeypatch, craft)(cfg, m)[2](slice(None))
    rank, svals = vf.basis_rank(whole)
    assert rank == 59
    svds = []
    table_rank = vf._table_rank
    monkeypatch.setattr(vf, "_table_rank", lambda block: svds.append(len(block)) or table_rank(block))
    monkeypatch.setattr(vf, "build_basis", lambda *args: pytest.fail("the whole table was built"))
    report = vf.verify_full_basis(cfg, m)
    assert svds == [cfg.basis_size - cfg.n * cfg.n]
    assert (report.extras["rank"], report.extras["singular_value_ratio"]) == (rank, float(svals[-1] / svals[0]))


def test_a_sym_diag_row_that_fails_its_parity_reads_the_whole_table(monkeypatch):
    # the largest entry of sym_diag(3)'s row doubled: its stack finds it,
    # and the rank is one SVD of the whole rebuilt table, as basis_rank
    # reads a table that fails its parity pass, with no product check
    cfg, m = make_config(6, 1.3), MomentumPair.from_k1(0.6)
    row_of = cfg.basis_size - cfg.n + 2

    def craft(row, amps, _elements):
        if row == row_of:
            amps.flat[np.argmax(np.abs(amps))] *= 2.0

    whole = _crafted_rows(monkeypatch, craft)(cfg, m)[2](slice(None))
    assert vf.exchange_blocks(whole) == [whole]
    svds = []
    table_rank = vf._table_rank
    monkeypatch.setattr(vf, "_table_rank", lambda block: svds.append(len(block)) or table_rank(block))
    monkeypatch.setattr(vf, "_product_factors", lambda *args: pytest.fail("the product rows were read again"))
    report = vf.verify_full_basis(cfg, m)
    assert svds == [cfg.basis_size]
    monkeypatch.undo()
    rank, svals = vf.basis_rank(whole)
    assert (report.extras["rank"], report.extras["singular_value_ratio"]) == (rank, float(svals[-1] / svals[0]))


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


def _traced_peak(call) -> int:
    """Peak bytes traced while ``call()`` runs, above what was held before."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def test_verify_full_basis_peak_memory():
    # each stack builds its own rows and drops them once checked, so no
    # table of the whole basis (4.6 MiB here) is held; one stack of all
    # rows at once peaked at 32 MiB
    cfg, m = make_config(12, 2.1), MomentumPair.from_k1(0.2)
    assert _traced_peak(lambda: vf.verify_full_basis(cfg, m, samples=60)) <= 21 * 2 ** 20


def test_verify_full_basis_at_n20_holds_no_whole_table(monkeypatch):
    # on one CPU, one stack at a time: the n = 20 table alone is 39.0 MiB,
    # and the verify that held it peaked at 48.4 MiB
    _cpus(monkeypatch, 1)
    cfg, m = make_config(20, 2.1), MomentumPair.from_k1(0.2)
    assert _traced_peak(lambda: vf.verify_full_basis(cfg, m, samples=60)) <= 24 * 2 ** 20


def test_mutation_sweep_peak_memory():
    # each stack is one gathered copy of its mutants' rows, and the entries
    # are drawn on one row's mask at a time: a whole-table mask raised this
    # peak from 14.0 to 14.6 MiB on one thread
    cfg, m = make_config(12, 2.1), MomentumPair.from_k1(0.2)
    assert _traced_peak(lambda: vf.mutation_sweep(cfg, m)) <= 21 * 2 ** 20


def test_one_phase_table_per_boundary_family(monkeypatch):
    # the value and derivative sums of a family share one table: vertex
    # x = 0, vertex y = 0 and the diagonals, for the whole stack
    tables = []
    build = domain._phase_table
    monkeypatch.setattr(domain, "_phase_table", lambda *args: tables.append(args) or build(*args))
    elements = build_basis(CFG4, M3)
    reports = vf.verify_element(elements[:10], offset=7 * np.arange(10))
    assert len(tables) == 3 and len(reports) == 10


def test_no_phase_table_is_kept_after_the_checks_return(monkeypatch):
    # each boundary family frees its table when the check is done with it,
    # so none outlives a verify or a mutation sweep, in the calling thread
    # or in the worker that checks an n = 10 basis with it
    tables = []
    build = domain._phase_table

    def tracked(*args):
        table = build(*args)
        tables.append(weakref.ref(table))
        return table

    monkeypatch.setattr(domain, "_phase_table", tracked)
    _cpus(monkeypatch, 2)
    cfg10 = make_config(10, 1.3)
    for check in (lambda cfg: vf.verify_full_basis(cfg, M3, samples=60), lambda cfg: vf.mutation_sweep(cfg, M3)):
        for cfg in (CFG4, cfg10):
            tables.clear()
            check(cfg)
            assert domain._kept.table is None and tables
            assert all(table() is None for table in tables)


def test_a_stacked_table_is_one_block(monkeypatch):
    # eight waves are the least a block takes, so a stack of tables sums in
    # one block with one phase table, at any WAVE_POINTS
    elements = build_basis(CFG4, M3)
    sol = vf.TensorSolution(elements[0].stack, M3)
    xs = np.linspace(0.0, 5.0, 50)
    args = (np.array([[1], [2]]), 3, ABOVE, xs, xs + 1.0)
    whole = sol.value_array(*args)
    monkeypatch.setattr(domain, "WAVE_POINTS", 8)
    monkeypatch.setattr(domain, "_kept", domain._Kept())
    tables = []
    build = domain._phase_table
    monkeypatch.setattr(domain, "_phase_table", lambda *args: tables.append(args) or build(*args))
    got = sol.value_array(*args)
    assert len(tables) == 1 and got.shape == (24, 2, 50) and np.array_equal(got, whole)


def test_reports_do_not_depend_on_earlier_evaluations():
    # A, then B, then A again in one process: the phase table each thread
    # keeps between calls serves only the waves and points it was built
    # for; an n = 10 basis is checked on two threads where two CPUs exist
    def report(cfg, m):
        return json.dumps(vf.verify_full_basis(cfg, m, samples=60).to_dict())

    for cfg in (CFG4, make_config(10, 1.3)):
        first = report(cfg, M3)
        report(cfg, MomentumPair.from_k1(0.45))
        el = build_basis(cfg, M3)[3]
        vf.TensorSolution(el.tensor, el.momentum).value_array(1, 2, ABOVE, np.linspace(0, 3, 7), 1.0)
        assert report(cfg, M3) == first


def test_threads_never_read_each_others_phase_table(monkeypatch):
    # four threads, more than the cores, each sum one family of boundary
    # points of one stacked basis 200 times over, with frequent thread
    # switches: value then slope, then the table is dropped, as the checks
    # do.  Each result is bit for bit its single-threaded one, and each
    # round builds one table: a kept table shared by all threads would be
    # dropped or replaced by another thread between the two sums
    sol = vf.TensorSolution(build_basis(CFG4, M3)[0].stack, M3)
    rows = np.arange(1, 5)[:, None]
    families = []
    for k, (sector, direction) in enumerate([(ABOVE, "dx"), (BELOW, "dy"), (ABOVE, "dy"), (BELOW, "dx")]):
        ts = vf.kronecker_points(12, offset=12 * k, hi=vf.SPAN)
        families.append((rows, rows if k % 2 else 2, sector, ts, 0.5 * ts, direction))

    def evaluate(i, j, sector, x, y, direction):
        return sol.value_array(i, j, sector, x, y), sol.derivative_array(i, j, sector, x, y, direction)

    want = [evaluate(*family) for family in families]
    domain.drop_phases()
    built, wrong = [], []
    build = domain._phase_table
    monkeypatch.setattr(domain, "_phase_table", lambda *args: built.append(None) or build(*args))

    def run(k):
        try:
            for _ in range(200):
                if not all(np.array_equal(a, b) for a, b in zip(evaluate(*families[k]), want[k])):
                    wrong.append(k)
                domain.drop_phases()
        except Exception as exc:  # a table of another shape fails the sum
            wrong.append(exc)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(families))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == [] and len(built) == 200 * len(families)


@pytest.mark.parametrize("n, count", [(4, 10), (8, 112)])
def test_a_stacked_vertex_family_sums_each_table_bit_for_bit(n, count):
    # 10 tables at n = 4 take the layout of one table; 112 at n = 8, past
    # STACK_INNER_PAIRS wave-point pairs, take the stack axis next to the
    # waves, in the rows and in the phases of points per table; each table
    # sums as it sums alone in either layout
    elements = build_basis(make_config(n, 1.3), M3)[:count]
    stack = vf.TensorSolution(AmplitudeTensor(elements[0].stack.amps[:count]), M3)
    edges = np.arange(1, n + 1)
    quad, line = edges[:, None, None], edges[None, :, None]
    ts = vf.kronecker_points(3, offset=np.add.outer(7 * np.arange(count), 3 * edges), hi=vf.SPAN)[:, None]

    def families(points):
        return [(quad, line, BELOW, 0.0, points, "dx"), (line, quad, ABOVE, points, 0.0, "dy")]

    for k, args in enumerate(families(ts)):
        values, slopes = stack.value_array(*args[:-1]), stack.derivative_array(*args)
        for e, el in enumerate(elements):
            one, single = vf.TensorSolution(el.tensor, M3), families(ts[e])[k]
            assert values[e].tobytes() == one.value_array(*single[:-1]).tobytes()
            assert slopes[e].tobytes() == one.derivative_array(*single).tobytes()


def test_stacked_element_reports_match_single_elements():
    elements = build_basis(CFG4, M3)
    stacked = vf.verify_element(elements[5:11], offset=7 * np.arange(5, 11))
    for k, (el, rep) in enumerate(zip(elements[5:11], stacked), 5):
        assert rep == vf.verify_element([el], offset=7 * k)[0]


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
    assert stack.amps.shape == (len(elements), 4, 5, 2, 2, 2)
    for row, el in enumerate(elements):
        assert el.stack is stack and el.row == row
        assert np.shares_memory(el.tensor.amps, stack.amps) and not el.tensor.amps.flags.writeable


def test_amplitude_tensor_copies_writable_input_and_shares_read_only():
    amps = np.zeros((3, 4, 2, 2, 2), dtype=complex)
    tensor = AmplitudeTensor(amps)
    amps[0, 0, 0, 0, 0] = 1.0
    assert tensor.amps[0, 0, 0, 0, 0] == 0
    frozen = amps.copy()
    frozen.setflags(write=False)
    assert AmplitudeTensor(frozen).amps is frozen


def test_stacked_tables_evaluate_like_each_table():
    rng = np.random.default_rng(2)
    amps = rng.normal(size=(5, 3, 4, 2, 2, 2)) + 1j * rng.normal(size=(5, 3, 4, 2, 2, 2))
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
