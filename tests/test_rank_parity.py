"""The rank by exchange parity: its premise, checked on the tables, and
its agreement with one SVD of all the rows."""

import dataclasses
import warnings

import numpy as np
import pytest

from helpers import basis_rank_oracle
from stardelta import verifier as vf
from stardelta.basis import EXCHANGE_SIGN, build_basis
from stardelta.domain import ABOVE, BELOW, OFFDIAG, AmplitudeTensor, MomentumPair, exchange_image, make_config

M68 = MomentumPair.from_k1(0.6)


def _block_rank(block, seed):
    """One block's rank by the rank rule of ``basis_rank``."""
    size = len(block)
    s = np.linalg.svd(vf.sample_matrix(block, max(4 * size, 2 * size + 16), seed), compute_uv=False)
    return int(np.sum(s > vf.GRAM_GAP * s[0])), s


@pytest.mark.parametrize("n, c, k1", [
    (3, 1.0, 0.6), (4, -1.5, 0.28), (6, 1e-8, 0.33), (5, 1e6, 0.45), (8, 2.0, 0.9), (3, 1.0, 1.0),
])
def test_every_family_is_exactly_even_or_odd(n, c, k1):
    elements = build_basis(make_config(n, c), MomentumPair.from_k1(k1))
    for el in elements:
        assert np.array_equal(exchange_image(el.tensor.amps), EXCHANGE_SIGN[el.family] * el.tensor.amps), el.label
    assert not np.any(vf.parity_defect(elements))
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
    defect = vf.parity_defect(mixed)
    assert defect[0] >= 5e-4
    assert not np.any(defect[1:])
    blocks = vf.exchange_blocks(mixed)
    assert len(blocks) == 1 and blocks[0] is mixed
    assert vf.basis_rank(mixed, seed=17)[0] == basis_rank_oracle(mixed, seed=17)[0] == len(mixed)


@pytest.mark.parametrize("n", [4, 5])
def test_an_even_row_labelled_antisym_keeps_the_rank_deficit(n):
    # the first antisym element repeats a sym_offdiag row: the check sees
    # it is even, so the rank stays one short
    elements = build_basis(make_config(n, 1.0), M68)
    copied = next(el for el in elements if el.family == "sym_offdiag")
    elements[0] = dataclasses.replace(elements[0], row=copied.row)
    assert vf.parity_defect(elements)[0] == pytest.approx(2.0)
    assert vf.basis_rank(elements, seed=17)[0] == len(elements) - 1
    # split by the labels alone, the copy is independent of the odd rows
    # beside it, and the rank would read full
    odd = [el for el in elements if el.family == "antisym"]
    even = [el for el in elements if el.family != "antisym"]
    assert _block_rank(odd, 17)[0] + _block_rank(even, 17)[0] == len(elements)


@pytest.mark.parametrize("n", range(3, 9))
def test_split_rank_equals_the_joint_rank(n):
    for c in (1.0, -2.0, 1e-3, 1e-8, 1e-12, 1e6, -1e6):
        for k1 in (0.05, 0.3, 0.6, 0.9, 1.0):
            elements = build_basis(make_config(n, c), MomentumPair.from_k1(k1))
            for seed in range(3):
                assert vf.basis_rank(elements, seed)[0] == basis_rank_oracle(elements, seed)[0], (c, k1, seed)


def test_singular_values_are_the_block_ratios():
    elements = build_basis(make_config(5, 1.3), M68)
    rank, svals = vf.basis_rank(elements, seed=3)
    per_block = [_block_rank(block, 3) for block in vf.exchange_blocks(elements)]
    assert rank == sum(r for r, _s in per_block) == len(elements)
    assert len(svals) == len(elements) and svals[0] == 1.0
    assert np.all(np.diff(svals) <= 0)
    assert svals[-1] / svals[0] == pytest.approx(min(s[-1] / s[0] for _r, s in per_block), rel=1e-12)


def test_rank_at_tiny_coupling_does_not_overflow():
    # the sym_diag values are of size 1/c; scaled before their norms are
    # taken, c = 1e-200 loses the same one direction as c = 1e-20
    ranks = []
    for c in (1e-20, 1e-200):
        with np.errstate(over="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            ranks.append(vf.basis_rank(build_basis(make_config(3, c), M68), seed=0)[0])
    assert ranks == [11, 11]


def test_rank_refuses_elements_of_two_bases():
    cfg = make_config(3, 1.0)
    elements = build_basis(cfg, M68)[:6] + build_basis(cfg, M68)[6:]
    for check in (vf.basis_rank, vf.parity_defect, lambda els: vf.sample_matrix(els, 20, 0)):
        with pytest.raises(ValueError):
            check(elements)
