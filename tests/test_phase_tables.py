"""Phase tables: points first, waves last, one exp per conjugate wave pair.

At real momenta only the sig = +1 waves of each block of eight take an
exp; each partner (-sig, -tau) takes the conjugate.  These tests hold the
table bit for bit to an exp per wave, on the boundary families the checks
evaluate and at generic points."""

import numpy as np
import pytest

from stardelta import domain
from stardelta import synthesis as syn
from stardelta.domain import MomentumPair, make_config, wave_momenta

# arguments k_x x + k_y y reach |theta| ~ 50 at coordinates up to 35
SPAN = 35.0


def point_families():
    """The x = 0, y = 0 and x = y families and generic points, some of
    them on a 2-d point shape."""
    rng = np.random.default_rng(3)
    line = np.concatenate([[0.0], rng.uniform(0.0, SPAN, 60), [SPAN]])
    return {
        "x=0": (0.0, line),
        "y=0": (line, 0.0),
        "x=y": (line, line),
        "generic": (rng.uniform(0.0, SPAN, (3, 40)), rng.uniform(0.0, SPAN, (3, 40))),
    }


def exp_per_wave(kx, ky, x, y) -> np.ndarray:
    """One exp per wave and point, wave axis moved last."""
    x, y = np.broadcast_arrays(np.atleast_1d(np.asarray(x, dtype=float)), np.asarray(y, dtype=float))
    return np.moveaxis(np.exp(1j * (np.multiply.outer(kx, x) + np.multiply.outer(ky, y))), 0, -1)


def synthesis_momenta(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    sol = syn.synthesize_eigensolution(make_config(3, 1.0), {9: syn.gaussian_bump(0.35, 0.08)},
                                       syn.gauss_rule(nodes))
    return sol.kx, sol.ky


@pytest.fixture
def exp_sizes(monkeypatch):
    """The number of entries of every array np.exp is called on."""
    sizes = []
    exp = np.exp
    monkeypatch.setattr(np, "exp", lambda z, *args, **kwargs: sizes.append(np.size(z)) or exp(z, *args, **kwargs))
    return sizes


@pytest.mark.parametrize("family", list(point_families()))
@pytest.mark.parametrize("k1", [0.6, 0.2, 0.05, 0.0, 1.0])
def test_a_single_table_is_an_exp_per_wave_bit_for_bit(family, k1):
    m = MomentumPair.from_k1(k1)
    kx, ky = wave_momenta(m.k1, m.k2)  # complex momenta with zero imaginary parts
    x, y = point_families()[family]
    table = domain._phase_table(kx, ky, x, y)
    want = exp_per_wave(kx, ky, x, y)
    assert table.shape == want.shape and table.shape[-1] == 8
    assert table.tobytes() == want.tobytes()


@pytest.mark.parametrize("family", list(point_families()))
def test_a_synthesis_table_is_an_exp_per_wave_bit_for_bit(family):
    kx, ky = synthesis_momenta(32)
    x, y = point_families()[family]
    table = domain._phase_table(kx, ky, x, y)
    want = exp_per_wave(kx, ky, x, y)
    assert table.shape[-1] == 8 * 32
    assert table.tobytes() == want.tobytes()


def test_wave_phases_sums_over_the_last_axis():
    kx, ky = wave_momenta(0.6, 0.8)
    xs = np.linspace(0.0, 3.0, 7)
    table = domain.wave_phases(kx, ky, xs, 0.5)
    assert table.shape == (7, 8)
    assert table[3].tobytes() == exp_per_wave(kx, ky, xs[3], 0.5)[0].tobytes()


def test_a_real_table_takes_an_exp_on_at_most_half_its_waves(exp_sizes):
    x, y = point_families()["generic"]
    for kx, ky in (wave_momenta(0.6, 0.8), synthesis_momenta(16)):
        exp_sizes.clear()
        table = domain._phase_table(kx, ky, x, y)
        assert 0 < sum(exp_sizes) <= table.size // 2


def test_complex_momenta_take_an_exp_per_wave(exp_sizes):
    k = 1j * -2.0 / 2
    m = MomentumPair(k + np.sqrt(1.5), k - np.sqrt(1.5))
    kx, ky = wave_momenta(m.k1, m.k2)
    x, y = point_families()["generic"]
    x, y = x / 10, y / 10  # keeps the growing waves finite
    table = domain._phase_table(kx, ky, x, y)
    assert sum(exp_sizes) == table.size
    exp_sizes.clear()
    assert table.tobytes() == exp_per_wave(kx, ky, x, y).tobytes()


def test_real_momenta_without_conjugate_partners_take_an_exp_per_wave(exp_sizes):
    # the pair rule holds only where each partner carries the negated momenta
    kx, ky = np.random.default_rng(5).uniform(-1.0, 1.0, (2, 16))
    x, y = point_families()["generic"]
    table = domain._phase_table(kx, ky, x, y)
    assert sum(exp_sizes) == table.size
    exp_sizes.clear()
    assert table.tobytes() == exp_per_wave(kx, ky, x, y).tobytes()
