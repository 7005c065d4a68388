"""The rank by exchange parity: its premise, checked on the tables, and
its agreement with one SVD of all the rows."""

import dataclasses
import warnings

import numpy as np
import pytest

from helpers import basis_rank_oracle, table_coefficients
from stardelta import verifier as vf
from stardelta.basis import EXCHANGE_SIGN, build_basis, product_tensor
from stardelta.domain import ABOVE, BELOW, OFFDIAG, AmplitudeTensor, MomentumPair, exchange_image, make_config
from stardelta.oneparticle import phi, scattering_wave, xi_solution

M68 = MomentumPair.from_k1(0.6)


def _block_rank(block):
    """One block's rank by the rank rule of ``basis_rank``."""
    s = np.linalg.svd(vf.sample_matrix(block), compute_uv=False)
    return int(np.sum(s > vf.GRAM_GAP * s[0])), s


@pytest.mark.parametrize("n, c, k1", [
    (3, 1.0, 0.6), (4, -1.5, 0.28), (6, 1e-8, 0.33), (5, 1e6, 0.45), (8, 2.0, 0.9), (3, 1.0, 1.0),
])
def test_every_family_is_exactly_even_or_odd(n, c, k1):
    elements = build_basis(make_config(n, c), MomentumPair.from_k1(k1))
    for el in elements:
        assert np.array_equal(exchange_image(el.tensor.amps), EXCHANGE_SIGN[el.family] * el.tensor.amps), el.label
    odd, even = vf.exchange_blocks(elements)
    assert {el.family for el in odd} == {"antisym"}
    assert len(odd) == n * n and len(even) == n * n - 2 * n


def test_exchange_image_swaps_the_particles():
    # the image evaluates at (y, x) on quadrant (b, a) to what the table
    # gives at (x, y) on (a, b), with the sector flipped on the diagonal
    n = 3
    rng = np.random.default_rng(5)
    amps = rng.normal(size=(n, n, 2, 2, 2, 2)) + 1j * rng.normal(size=(n, n, 2, 2, 2, 2))
    table, image = AmplitudeTensor(amps), AmplitudeTensor(exchange_image(amps))
    x, y = rng.uniform(0.0, 9.0, size=(2, 16))
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            pairs = ((ABOVE, BELOW), (BELOW, ABOVE)) if a == b else ((OFFDIAG, OFFDIAG),)
            for sector, image_sector in pairs:
                want = table.value_array(a, b, sector, x, y, M68)
                got = image.value_array(b, a, image_sector, y, x, M68)
                assert got == pytest.approx(want, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("family", ["sym_offdiag", "sym_diag"])
def test_an_antisym_row_with_an_even_part_fails_the_check(family):
    # 1e-3 of an even row, relative to the row's own size, breaks the
    # parity; the rank then takes one block, which is the joint rank
    elements = build_basis(make_config(5, 1.0), M68)
    amps = elements[0].stack.amps.copy()
    even = next(k for k, el in enumerate(elements) if el.family == family)
    amps[0] += 1e-3 * np.abs(amps[0]).max() / np.abs(amps[even]).max() * amps[even]
    stack = AmplitudeTensor(amps)
    mixed = [dataclasses.replace(el, stack=stack) for el in elements]
    blocks = vf.exchange_blocks(mixed)
    assert len(blocks) == 1 and blocks[0] is mixed
    assert vf.basis_rank(mixed)[0] == basis_rank_oracle(mixed, seed=17)[0] == len(mixed)


@pytest.mark.parametrize("row", [0, 40, -1])
def test_a_broken_row_in_any_parity_step_gives_one_block(row):
    # at n = 8 the check reads 32 rows per step; a row of either parity
    # that carries 1e-3 of a row of the other parity is found in any step
    elements = build_basis(make_config(8, 1.0), M68)
    amps = elements[0].stack.amps.copy()
    other = len(elements) - 1 if elements[row].family == "antisym" else 0
    amps[row] += 1e-3 * amps[other]
    stack = AmplitudeTensor(amps)
    broken = [dataclasses.replace(el, stack=stack) for el in elements]
    assert vf.exchange_blocks(broken) == [broken]


@pytest.mark.parametrize("sign", [1, -1])
def test_product_tensor_is_its_signed_exchange_image(sign):
    # exactly, for products outside the three families too
    cfg = make_config(4, 1.0)
    for f, g in ((scattering_wave(cfg, 2), xi_solution(cfg)), (xi_solution(cfg), phi(cfg, 0))):
        amps = product_tensor(f, g, sign).amps
        assert np.array_equal(exchange_image(amps), sign * amps)


def _divisor(size):
    """Row sizes as a column of divisors, with 1 for a zero row."""
    return np.where(size > 0, size, 1.0)[:, None]


@pytest.mark.parametrize("n, c, k1", [(4, -1.5, 0.28), (3, 1e-200, 0.6), (3, 1.0, 1.0)])
def test_sample_matrix_gathers_the_coefficients_of_each_table(n, c, k1):
    # without the whole sym_diag family the rows are only scaled, by their
    # largest |coefficient| and then to unit length; a list of both
    # parities is read on the full table, a checked parity block on its
    # half; at k1 = 1 the waves whose momenta coincide are summed
    elements = build_basis(make_config(n, c), MomentumPair.from_k1(k1))[:-1]
    for block, half in [(elements, False)] + [(block, True) for block in vf.exchange_blocks(elements)]:
        want = np.stack([table_coefficients(el, half) for el in block])
        want /= _divisor(np.abs(want).max(axis=1))
        want /= _divisor(np.linalg.norm(want, axis=1))
        assert np.array_equal(vf.sample_matrix(block), want)


@pytest.mark.parametrize("n", [4, 5])
def test_an_even_row_labelled_antisym_keeps_the_rank_deficit(n):
    # the first antisym element repeats a sym_offdiag row: the check sees
    # it is even, so the rank stays one short
    elements = build_basis(make_config(n, 1.0), M68)
    copied = next(el for el in elements if el.family == "sym_offdiag")
    elements[0] = dataclasses.replace(elements[0], row=copied.row)
    assert vf.exchange_blocks(elements) == [elements]
    assert vf.basis_rank(elements)[0] == len(elements) - 1
    # split by the labels alone, the copy is independent of the odd rows
    # beside it, and the rank would read full
    odd = [el for el in elements if el.family == "antisym"]
    even = [el for el in elements if el.family != "antisym"]
    assert _block_rank(odd)[0] + _block_rank(even)[0] == len(elements)


@pytest.mark.parametrize("n", range(3, 9))
def test_split_rank_equals_the_joint_rank(n):
    # the sampled joint rank is the reference inside the momentum range; at
    # the endpoints the basis spans n functions, where the samples of the
    # zero functions are rounding noise that the sampled rank counts
    for c in (1.0, -2.0, 1e-3, 1e-8, 1e-12, 1e6, -1e6, 1e-200):
        for k1 in (0.0, 0.05, 0.3, 0.6, 0.9, 1.0):
            elements = build_basis(make_config(n, c), MomentumPair.from_k1(k1))
            rank = vf.basis_rank(elements)[0]
            if k1 in (0.0, 1.0):
                assert rank == n, (c, k1)
                continue
            for seed in range(3):
                assert rank == basis_rank_oracle(elements, seed)[0], (c, k1, seed)


def test_singular_values_are_the_block_ratios():
    elements = build_basis(make_config(5, 1.3), M68)
    rank, svals = vf.basis_rank(elements)
    per_block = [_block_rank(block) for block in vf.exchange_blocks(elements)]
    assert rank == sum(r for r, _s in per_block) == len(elements)
    assert len(svals) == len(elements) and svals[0] == 1.0
    assert np.all(np.diff(svals) <= 0)
    assert svals[-1] / svals[0] == pytest.approx(min(s[-1] / s[0] for _r, s in per_block), rel=1e-12)


def test_rank_at_tiny_coupling_does_not_overflow():
    # the sym_diag values are of size 1/c; scaled before their norms are
    # taken, c = 1e-200, and c = 1e-307 just above the overflow bound, lose
    # the same one direction as c = 1e-20
    ranks = []
    for c in (1e-20, 1e-200, 1e-307):
        with np.errstate(over="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            ranks.append(vf.basis_rank(build_basis(make_config(3, c), M68))[0])
    assert ranks == [11, 11, 11]


def test_rank_refuses_elements_of_two_bases():
    cfg = make_config(3, 1.0)
    elements = build_basis(cfg, M68)[:6] + build_basis(cfg, M68)[6:]
    for check in (vf.basis_rank, vf.exchange_blocks, vf.sample_matrix):
        with pytest.raises(ValueError):
            check(elements)
