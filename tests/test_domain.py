"""Configuration-space types and amplitude-tensor evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stardelta.domain import (
    ABOVE,
    BELOW,
    OFFDIAG,
    TABLE_CHUNK,
    AmplitudeTensor,
    MomentumPair,
    cell,
    cell_keys,
    cell_quadrant,
    entry_key,
    make_config,
    table_parts,
    table_shape,
    wave_momenta,
    wave_phases,
)
from helpers import cell_column, combine, entry_index, from_entries, table_entries


def test_make_config_valid():
    cfg = make_config(3, 1.0)
    assert cfg.n == 3 and cfg.c == 1.0
    assert cfg.basis_size == 12  # 2*9 - 6
    assert make_config(5, -2.0).basis_size == 40


def test_make_config_rejects_small_n():
    with pytest.raises(ValueError):
        make_config(2, 1.0)


def test_make_config_rejects_nonfinite_coupling():
    with pytest.raises(ValueError):
        make_config(4, float("inf"))
    with pytest.raises(ValueError):
        make_config(4, float("nan"))


def test_momentum_pair_energy_shell():
    m = MomentumPair.from_k1(0.6)
    assert m.k2 == pytest.approx(0.8)
    with pytest.raises(ValueError):
        MomentumPair(0.6, 0.9)
    # complex pairs on the shell are allowed at the type level
    MomentumPair(1j, math.sqrt(2.0))


@given(st.floats(min_value=0.0, max_value=1.0))
def test_momentum_partner_roundtrip(k1):
    m = MomentumPair.from_k1(k1)
    assert abs(m.k1**2 + m.k2**2 - 1.0) <= 1e-12


def test_empty_tensor_evaluates_to_zero():
    t = from_entries(3, {})
    m = MomentumPair.from_k1(0.6)
    assert t.value_array(1, 2, OFFDIAG, 1.0, 2.0, m)[0] == 0
    assert t.derivative_array(1, 2, OFFDIAG, 1.0, 2.0, m, "dx")[0] == 0


def test_single_entry_at_origin():
    t = from_entries(3, {(1, 2, OFFDIAG, 1, 1, 1): 1.0})
    m = MomentumPair.from_k1(0.6)
    assert t.value_array(1, 2, OFFDIAG, 0.0, 0.0, m)[0] == pytest.approx(1.0)


def test_single_entry_derivative_at_origin():
    # d/dx exp(i*0.6*x + i*0.8*y) at the origin is 0.6i
    t = from_entries(3, {(1, 2, OFFDIAG, 1, 1, 1): 1.0})
    m = MomentumPair.from_k1(0.6)
    assert t.derivative_array(1, 2, OFFDIAG, 0.0, 0.0, m, "dx")[0] == pytest.approx(0.6j)
    assert t.derivative_array(1, 2, OFFDIAG, 0.0, 0.0, m, "dy")[0] == pytest.approx(0.8j)


def test_assignment_slot_swaps_momenta():
    t = from_entries(3, {(1, 2, OFFDIAG, 1, 1, 2): 1.0})
    m = MomentumPair.from_k1(0.6)
    # slot 2 means x carries k2 = 0.8
    assert t.value_array(1, 2, OFFDIAG, 1.0, 0.0, m)[0] == pytest.approx(np.exp(0.8j))


def test_offdiagonal_sector_collapses():
    # an off-diagonal quadrant has one cell, which every sector tag reads
    t = from_entries(3, {(1, 2, OFFDIAG, 1, 1, 1): 2.0})
    m = MomentumPair.from_k1(0.6)
    assert t.amps[0, 2, 1, 1, 0] == 2.0 and np.count_nonzero(t.amps) == 1
    va = t.value_array(1, 2, ABOVE, [1.0], [2.0], m)
    vb = t.value_array(1, 2, BELOW, [1.0], [2.0], m)
    assert va[0] == vb[0]


def test_array_quadrants_match_scalar_calls():
    rng = np.random.default_rng(5)
    t = _random_tensor(rng, n=4, entries=40)
    m = MomentumPair.from_k1(0.37)
    i = np.arange(1, 5)[:, None, None]
    j = np.arange(1, 5)[None, :, None]
    xs = rng.uniform(0.0, 9.0, size=(4, 4, 3))
    ys = rng.uniform(0.0, 9.0, size=3)
    for sector in (ABOVE, BELOW):
        vals = t.value_array(i, j, sector, xs, ys, m)
        dxs = t.derivative_array(i, j, sector, xs, ys, m, "dx")
        dys = t.derivative_array(i, j, sector, xs, ys, m, "dy")
        assert vals.shape == dxs.shape == dys.shape == (4, 4, 3)
        for a in range(4):
            for b in range(4):
                tag = sector if a == b else OFFDIAG
                args = (a + 1, b + 1, tag, xs[a, b], ys, m)
                assert np.allclose(vals[a, b], t.value_array(*args), rtol=0, atol=1e-13)
                assert np.allclose(dxs[a, b], t.derivative_array(*args, "dx"), rtol=0, atol=1e-13)
                assert np.allclose(dys[a, b], t.derivative_array(*args, "dy"), rtol=0, atol=1e-13)


def test_array_offdiagonal_quadrants_ignore_sector_tag():
    rng = np.random.default_rng(6)
    t = _random_tensor(rng, n=3, entries=30)
    m = MomentumPair.from_k1(0.52)
    i, j = np.array([1, 2, 3, 3]), np.array([2, 1, 1, 2])
    xs, ys = rng.uniform(0.0, 9.0, size=(2, 4))
    by_tag = [t.value_array(i, j, tag, xs, ys, m) for tag in (ABOVE, BELOW, OFFDIAG)]
    assert np.array_equal(by_tag[0], by_tag[1]) and np.array_equal(by_tag[0], by_tag[2])


def test_array_quadrants_are_validated():
    t = from_entries(3, {(1, 2, OFFDIAG, 1, 1, 1): 1.0})
    m = MomentumPair.from_k1(0.6)
    for i, j in (([1, 4], [2, 2]), ([1, 2], [0, 1]), (np.array([[3], [-1]]), [1, 2])):
        with pytest.raises(IndexError):
            t.value_array(np.array(i), np.array(j), ABOVE, [1.0], [2.0], m)
        with pytest.raises(IndexError):
            t.derivative_array(np.array(i), np.array(j), ABOVE, [1.0], [2.0], m, "dx")
    # a diagonal quadrant needs a sector, in an array as for a scalar index
    for i, j in ((np.array([1, 2]), np.array([2, 2])), (2, 2)):
        with pytest.raises(ValueError):
            t.value_array(i, j, OFFDIAG, [1.0], [2.0], m)
        with pytest.raises(ValueError):
            t.derivative_array(i, j, OFFDIAG, [1.0], [2.0], m, "dy")


def _random_tensor(rng, n=3, entries=8):
    table = {}
    for _ in range(entries):
        i, j = rng.integers(1, n + 1, size=2)
        sector = OFFDIAG if i != j else (ABOVE if rng.random() < 0.5 else BELOW)
        key = (
            int(i),
            int(j),
            sector,
            int(rng.choice([-1, 1])),
            int(rng.choice([-1, 1])),
            int(rng.choice([1, 2])),
        )
        table[key] = complex(rng.normal(), rng.normal())
    return from_entries(n, table)


def test_linearity_of_evaluation():
    rng = np.random.default_rng(7)
    m = MomentumPair.from_k1(0.37)
    t1 = _random_tensor(rng)
    t2 = _random_tensor(rng)
    combo = combine([(2.0 - 1.0j, t1), (0.5j, t2)])
    for _ in range(20):
        i, j = rng.integers(1, 4, size=2)
        sector = OFFDIAG if i != j else ABOVE
        x, y = rng.uniform(0, 10, size=2)
        lhs = combo.value_array(int(i), int(j), sector, x, y, m)[0]
        rhs = (2.0 - 1.0j) * t1.value_array(int(i), int(j), sector, x, y, m)[0] + 0.5j * t2.value_array(
            int(i), int(j), sector, x, y, m
        )[0]
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(11)
    m = MomentumPair.from_k1(0.45)
    t = _random_tensor(rng, entries=10)
    h = 1e-5
    for i, j, sector in sorted({key[:3] for key, _amp in table_entries(t)}):
        x, y = rng.uniform(1.0, 8.0, size=2)
        for direction in ("dx", "dy"):
            exact = t.derivative_array(i, j, sector, x, y, m, direction)[0]
            if direction == "dx":
                plus = t.value_array(i, j, sector, x + h, y, m)[0]
                minus = t.value_array(i, j, sector, x - h, y, m)[0]
            else:
                plus = t.value_array(i, j, sector, x, y + h, m)[0]
                minus = t.value_array(i, j, sector, x, y - h, m)[0]
            approx = (plus - minus) / (2 * h)
            assert abs(exact - approx) <= 1e-7 * max(1.0, abs(exact))


@settings(max_examples=30)
@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.0, max_value=9.0),
    st.floats(min_value=0.0, max_value=9.0),
)
def test_eigen_equation_per_plane_wave(k1, x, y):
    # every stored wave satisfies -(dxx + dyy) psi = psi because
    # k1^2 + k2^2 = 1 on the shell
    t = from_entries(3, {(1, 1, ABOVE, 1, -1, 2): 1.5 - 0.5j})
    m = MomentumPair.from_k1(k1)
    k_x = m.k2
    k_y = -m.k1
    v = t.value_array(1, 1, ABOVE, x, y, m)[0]
    laplacian = -(1j * k_x) ** 2 * v - (1j * k_y) ** 2 * v
    assert laplacian == pytest.approx(v, rel=1e-12, abs=1e-12)


def test_with_scaled_entry():
    t = from_entries(3, {(1, 2, OFFDIAG, 1, 1, 1): 2.0})
    t2 = t.with_scaled_entry((1, 2, OFFDIAG, 1, 1, 1), 1.001)
    assert dict(t2.items()) == {(1, 2, OFFDIAG, 1, 1, 1): pytest.approx(2.002)}
    assert dict(t.items()) == {(1, 2, OFFDIAG, 1, 1, 1): 2.0}
    with pytest.raises(KeyError):
        t.with_scaled_entry((2, 2, ABOVE, 1, 1, 1), 2.0)


@pytest.mark.parametrize("n", [3, 4, 7])
def test_cells_hold_the_quadrant_sectors_in_key_order(n):
    # row i: the quadrants (i, j < i), the diagonal's above then below
    # sector, then the quadrants (i, j > i); cell_quadrant undoes cell
    i, j = np.arange(1, n + 1)[:, None], np.arange(1, n + 1)
    for sector in (ABOVE, BELOW):
        cols = cell(i, j, sector)
        assert np.array_equal(cols, cell_column(i - 1, j - 1, sector == BELOW))
        back_i, back_j, below = cell_quadrant(i - 1, cols)
        assert np.all(back_i == i) and np.all(back_j == j) and np.all(below == ((i == j) & (sector == BELOW)))
    # every cell once: its key maps back to its own column
    ki, kj, below = cell_keys(n)
    assert ki.shape == kj.shape == below.shape == (n, n + 1)
    assert np.array_equal(np.where(below, cell(ki, kj, BELOW), cell(ki, kj, ABOVE)), np.indices((n, n + 1))[1])


@pytest.mark.parametrize("n", [3, 4, 7])
def test_entry_keys_round_trip_in_array_order(n):
    # over a full mask the keys rise strictly in array order, each is the
    # key of its own index, and scaling a key scales exactly its one cell
    index = np.argwhere(np.ones(table_shape(n), dtype=bool)).tolist()
    keys = [entry_key(at) for at in index]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert [list(entry_index(n, key)) for key in keys] == index
    table = AmplitudeTensor(np.arange(1.0, 1.0 + 8 * n * (n + 1)).reshape(table_shape(n)) * (1 - 2j))
    assert [key for key, _amp in table.items()] == keys
    for key, at in zip(keys, index):
        changed = np.argwhere(table.with_scaled_entry(key, 1.5).amps != table.amps).tolist()
        assert changed == [at]


@pytest.mark.parametrize("n", [3, 4, 7])
def test_malformed_keys_raise_key_error(n):
    table = AmplitudeTensor(np.ones(table_shape(n), dtype=complex))
    malformed = [
        (2, 2, OFFDIAG, 1, 1, 1),  # a diagonal key needs its sector
        (n, n, OFFDIAG, -1, 1, 2),
        (1, 2, ABOVE, 1, 1, 1),  # an off-diagonal key has none
        (n, 1, BELOW, -1, -1, 2),
        (1, n + 1, OFFDIAG, 1, 1, 1),
        (1, 2, OFFDIAG, 0, 1, 1),
        (1, 2, OFFDIAG, 1, 1, 3),
    ]
    for key in malformed:
        with pytest.raises(KeyError):
            table.with_scaled_entry(key, 2.0)
        with pytest.raises(KeyError):
            entry_index(n, key)


def test_phase_tables_are_read_only_and_kept_for_a_repeat_call():
    kx, ky = wave_momenta(0.6, 0.8)
    xs = np.linspace(0.0, 1.0, 5)
    table = wave_phases(kx, ky, xs, 0.5)
    with pytest.raises(ValueError):
        table[0, 0] = 0.0
    assert wave_phases(kx, ky, xs.copy(), 0.5) is table
    assert wave_phases(-kx, ky, xs, 0.5) is not table
    assert wave_phases(kx, ky, xs, 0.25) is not table


@pytest.mark.parametrize("count, row_size", [(0, 64), (1, 64), (760, 6400), (513, 64), (5, 1 << 16), (7, 0)])
def test_table_parts_walk_every_row_once_a_chunk_at_a_time(count, row_size):
    parts = table_parts(count, row_size)
    covered = [k for part in parts for k in range(count)[part]]
    assert covered == list(range(count))
    sizes = [len(range(count)[part]) for part in parts]
    assert all(size >= 1 and (size == 1 or size * row_size <= TABLE_CHUNK) for size in sizes)
    assert all(size == sizes[0] for size in sizes[:-1])
