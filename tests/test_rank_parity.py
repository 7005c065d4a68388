"""The rank by exchange parity: its premise, checked on the tables, and
its agreement with one SVD of all the rows; the rank read from the product
structure, and its agreement with the tables' own SVDs."""

import dataclasses
import warnings

import numpy as np
import pytest

from helpers import basis_rank_oracle, phi_stack, table_coefficients, table_rank
from stardelta import verifier as vf
from stardelta.basis import EXCHANGE_SIGN, build_basis, cycle_completing_tensor, product_tensor
from stardelta.domain import ABOVE, BELOW, OFFDIAG, AmplitudeTensor, MomentumPair, exchange_image, make_config
from stardelta.oneparticle import OneParticleSolution, phi, scattering_wave, xi_solution

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
    amps = rng.normal(size=(n, n + 1, 2, 2, 2)) + 1j * rng.normal(size=(n, n + 1, 2, 2, 2))
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


def _factor_ratios(factors):
    """The singular values of the factors as n x 2n rows at an interior
    momentum, each divided by the largest."""
    s = np.linalg.svd(factors.reshape(len(factors), -1), compute_uv=False)
    return s / s[0]


def test_singular_values_are_the_block_ratios():
    # on the structure path they are the ratios of the small SVDs: the odd
    # block's factors at k1 and k2 (one matrix at interior momenta), the
    # even block's factors (without the zero of their relation
    # sum_i phi^i = 0) and its diagonal-quadrant matrix with the cycle test
    n = 6
    elements = build_basis(make_config(n, 1.3), M68)
    rank, svals = vf.basis_rank(elements)
    odd, even = vf.exchange_blocks(elements)
    odd_ratios = _factor_ratios(odd.factors)
    even_rank, even_ratios = vf._product_rank(even)
    assert vf._product_rank(odd)[0] + even_rank == rank == len(elements)
    assert even_ratios[:n - 1] == pytest.approx(_factor_ratios(even.factors)[:n - 1], rel=1e-12)
    want = np.concatenate([odd_ratios, odd_ratios, even_ratios])
    assert svals[0] == 1.0 and np.all(np.diff(svals) <= 0)
    assert np.array_equal(svals, np.sort(want)[::-1])
    assert svals[-1] == pytest.approx(0.2679, abs=1e-4)


def _counting_sample_matrix(monkeypatch):
    calls = []
    table = vf.sample_matrix

    def counted(elements):
        calls.append(len(elements))
        return table(elements)

    monkeypatch.setattr(vf, "sample_matrix", counted)
    return calls


@pytest.mark.parametrize("n", [3, 4, 5])
def test_below_six_edges_the_tables_give_the_rank(n, monkeypatch):
    # there the table SVDs cost less than the product checks; the rank
    # reads each block through sample_matrix
    elements = build_basis(make_config(n, 1.3), M68)
    assert [type(block) for block in vf.exchange_blocks(elements)] == [vf.ParityBlock, vf.ParityBlock]
    calls = _counting_sample_matrix(monkeypatch)
    assert vf.basis_rank(elements)[0] == len(elements)
    assert calls == [n * n, n * n - 2 * n]


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


def _paths(elements):
    """Per parity block, "structure" where the product structure gives its
    rank, else "table"."""
    return ["structure" if isinstance(block, vf.ProductBlock) and vf._product_rank(block) is not None else "table"
            for block in vf.exchange_blocks(elements)]


@pytest.mark.parametrize("n, c, k1", [(6, 1.0, 0.6), (7, -1.5, 0.28), (10, 2.1, 0.2), (12, 1e-6, 0.9)])
def test_a_fresh_basis_takes_the_structure_path(n, c, k1, monkeypatch):
    # the rank never reads a table matrix; the odd block's rank is that of
    # two n x 2n factor matrices, and its table matrix is its half table,
    # as for any parity block
    elements = build_basis(make_config(n, c), MomentumPair.from_k1(k1))
    calls = _counting_sample_matrix(monkeypatch)
    assert vf.basis_rank(elements)[0] == len(elements)
    assert calls == []
    odd, even = vf.exchange_blocks(elements)
    assert [type(odd), type(even)] == [vf.ProductBlock, vf.ProductBlock]
    assert _paths(elements) == ["structure", "structure"]
    rank, ratios = vf._product_rank(odd)
    assert rank == n * n and ratios.shape == (2 * n,)
    table = vf.sample_matrix(odd)
    assert table.shape == (n * n, 4 * n * n + 4 * n)
    assert np.array_equal(table, vf.sample_matrix(vf.ParityBlock(odd)))


@pytest.mark.parametrize("k1", [0.0, 1.0])
def test_at_the_endpoints_only_the_even_block_reads_its_table(k1):
    # the odd factors at momentum 0 have rank 1, which gives n; the even
    # block is exactly zero there and has no interior momenta
    elements = build_basis(make_config(6, 1.0), MomentumPair.from_k1(k1))
    assert _paths(elements) == ["structure", "table"]
    assert vf.basis_rank(elements)[0] == table_rank(elements) == 6


@pytest.mark.parametrize("n", range(3, 9))
def test_structure_rank_equals_the_table_rank(n):
    for c in (1.0, -2.0, 1e-3, 1e-8, 1e-12, 1e6, -1e6, 1e-200):
        for k1 in (0.0, 0.05, 0.3, 0.6, 0.9, 1.0):
            elements = build_basis(make_config(n, c), MomentumPair.from_k1(k1))
            assert vf.basis_rank(elements)[0] == table_rank(elements), (c, k1)


@pytest.mark.parametrize("n", [12, 16])
@pytest.mark.parametrize("c", [2.1, -0.7, 1e-6])
def test_structure_rank_equals_the_table_rank_at_large_n(n, c):
    elements = build_basis(make_config(n, c), MomentumPair.from_k1(0.3))
    assert _paths(elements) == ["structure", "structure"]
    assert vf.basis_rank(elements)[0] == table_rank(elements) == len(elements)


@pytest.mark.parametrize("n", range(3, 9))
def test_structure_rank_equals_the_table_rank_at_tiny_coupling(n):
    # near the threshold where the sym_diag sum sinks into rounding, the
    # even block reads its table, so the threshold stays where it is
    for c in np.logspace(-16, -10, 25):
        for k1 in (0.3, 0.6, 0.9):
            elements = build_basis(make_config(n, c), MomentumPair.from_k1(k1))
            assert vf.basis_rank(elements)[0] == table_rank(elements), (c, k1)


def _with_table(elements, amps):
    stack = AmplitudeTensor(amps)
    return [dataclasses.replace(el, stack=stack) for el in elements]


def _one_ulp(elements, family):
    # the real part of the largest entry of the family's first row, one ulp up
    row = next(el.row for el in elements if el.family == family)
    amps = elements[0].stack.amps.copy()
    idx = (row,) + np.unravel_index(np.argmax(np.abs(amps[row].real)), amps[row].shape)
    amps[idx] = complex(np.nextafter(amps[idx].real, np.inf), amps[idx].imag)
    return _with_table(elements, amps)


@pytest.mark.parametrize("family", ["antisym", "sym_offdiag"])
def test_a_one_ulp_change_to_a_product_row_reads_the_tables(family):
    elements = _one_ulp(build_basis(make_config(6, 1.3), M68), family)
    assert "structure" not in _paths(elements)
    assert vf.basis_rank(elements)[0] == table_rank(elements) == len(elements)


@pytest.mark.parametrize("family", ["antisym", "sym_offdiag"])
def test_a_product_row_changed_with_its_exchange_partner_reads_its_table(family):
    # the parity holds, so only the product check sees the change
    elements = build_basis(make_config(6, 1.3), M68)
    row = next(el.row for el in elements if el.family == family)
    amps = elements[0].stack.amps.copy()
    amps[row] *= 1.0 + 1e-12
    changed = _with_table(elements, amps)
    blocks = vf.exchange_blocks(changed)
    assert [type(block) for block in blocks].count(vf.ProductBlock) == 1
    assert vf.basis_rank(changed)[0] == table_rank(changed) == len(elements)


def _duplicated(elements):
    diag = [k for k, el in enumerate(elements) if el.family == "sym_diag"]
    elements[diag[-1]] = dataclasses.replace(elements[diag[-1]], row=elements[diag[0]].row)
    return elements


def _dropped(elements, family):
    return [el for el in elements if el is not next(e for e in elements if e.family == family)]


def _without_completer(elements, cfg):
    amps = elements[0].stack.amps.copy()
    diag = [k for k, el in enumerate(elements) if el.family == "sym_diag"]
    amps[diag] -= cycle_completing_tensor(cfg, phi_stack(cfg)).amps / cfg.n
    return _with_table(elements, amps)


def _even_row_labelled_antisym(elements):
    copied = next(el for el in elements if el.family == "sym_offdiag")
    elements[0] = dataclasses.replace(elements[0], row=copied.row)
    return elements


@pytest.mark.parametrize("n, c", [(6, 1.0), (7, -2.0), (8, 1e-8)])
@pytest.mark.parametrize("control", ["duplicated", "antisym", "sym_offdiag", "sym_diag", "no_completer", "mislabelled"])
def test_the_structural_controls_keep_their_deficit(n, c, control):
    # each reads E - 1 for the E elements of a whole basis, as the tables
    # read it; a list that is not a whole basis takes no product structure,
    # and without the completer the sym_diag sum is far below SUM_FLOOR,
    # where the structure reads the lost direction itself
    cfg = make_config(n, c)
    elements = build_basis(cfg, M68)
    size = len(elements)
    changed = {
        "duplicated": lambda: _duplicated(elements),
        "no_completer": lambda: _without_completer(elements, cfg),
        "mislabelled": lambda: _even_row_labelled_antisym(elements),
    }.get(control, lambda: _dropped(elements, control))()
    if control == "no_completer":
        assert _paths(changed) == ["structure", "structure"]
    else:
        assert all(type(block) is not vf.ProductBlock for block in vf.exchange_blocks(changed))
    assert vf.basis_rank(changed)[0] == table_rank(changed) == size - 1


def _rebuilt(elements, family, factors):
    """The family's rows rewritten as the products of ``factors``, exactly
    as the basis builds them, on a table of their own."""
    rows = [el for el in elements if el.family == family]
    ij = np.array([el.indices for el in rows]) - 1
    amps = elements[0].stack.amps.copy()
    amps[[el.row for el in rows]] = product_tensor(OneParticleSolution(factors[ij[:, 0]]),
                                                   OneParticleSolution(factors[ij[:, 1]]), EXCHANGE_SIGN[family]).amps
    return _with_table(elements, amps)


def _near_the_gap(ratios):
    return np.any((vf.GRAM_GAP / vf.RANK_MARGIN < ratios) & (ratios < vf.RANK_MARGIN * vf.GRAM_GAP))


def _ratio_near_the_gap(f):
    # psi^2 := psi^3 + 1e-8 psi^2: a ratio lies within RANK_MARGIN of GRAM_GAP
    f[1] = f[2] + 1e-8 * f[1]
    return _near_the_gap(_factor_ratios(f))


def _weak_product(f):
    # psi^2 := psi^3 + 1e-4 psi^2: each ratio is clear of GRAM_GAP, their
    # product at k1 and k2 is not
    f[1] = f[2] + 1e-4 * f[1]
    ratios = _factor_ratios(f)
    return not _near_the_gap(ratios) and _near_the_gap(ratios[-1] ** 2)


def _sum_not_zero(f):
    f[5] *= 2.0
    return np.any(f.sum(axis=0) != 0)


def _far_pair_shares_an_edge(f):
    # phi^5 += phi^1, phi^6 -= phi^1: the sum stays zero, and the far pair
    # (5, 1) shares edges 1 and 2
    f[4] += f[0]
    f[5] -= f[0]
    return not np.any(f.sum(axis=0)) and np.any((f[4] != 0).any(axis=-1) & (f[0] != 0).any(axis=-1))


def _factor_rank_short(f):
    # phi^5 and phi^6 scaled by 1e12 on their shared edge 6: the sum and
    # the supports stay, but the factors read rank 1, not n - 1
    f[4:, 5] *= 1e12
    return not np.any(f.sum(axis=0)) and np.sum(_factor_ratios(f) > vf.GRAM_GAP) == 1


@pytest.mark.parametrize("family, craft", [
    ("antisym", _ratio_near_the_gap), ("antisym", _weak_product), ("sym_offdiag", _sum_not_zero),
    ("sym_offdiag", _far_pair_shares_an_edge), ("sym_offdiag", _factor_rank_short),
])
def test_every_exit_of_the_structure_rank_reads_the_table(family, craft):
    # each craft changes, in place, only factors that no product row is
    # read against (psi^2, phi^5 and phi^6 at n = 6), so both families
    # pass their product checks, and confirms the flaw that its exit of
    # _product_rank finds; that block then reads its table
    n = 6
    cfg = make_config(n, 1.3)
    one = scattering_wave if family == "antisym" else phi
    factors = np.stack([one(cfg, i).coeff for i in range(1, n + 1)])
    assert craft(factors)
    changed = _rebuilt(build_basis(cfg, M68), family, factors)
    blocks = vf.exchange_blocks(changed)
    assert [type(block) for block in blocks] == [vf.ProductBlock, vf.ProductBlock]
    assert np.array_equal(blocks[family == "sym_offdiag"].factors, factors)
    assert _paths(changed) == (["table", "structure"] if family == "antisym" else ["structure", "table"])
    assert vf.basis_rank(changed)[0] == table_rank(changed)


def test_a_sym_diag_sum_on_a_diagonal_quadrant_reads_the_table():
    # sym_diag(1)'s table in sym_diag(2)'s row: every row passes the
    # parity and product checks, but the family's sum no longer vanishes
    # on the diagonal quadrants, so the even block reads its table
    elements = build_basis(make_config(6, 1.3), M68)
    diag = [el.row for el in elements if el.family == "sym_diag"]
    amps = elements[0].stack.amps.copy()
    amps[diag[1]] = amps[diag[0]]
    changed = _with_table(elements, amps)
    assert [type(b) for b in vf.exchange_blocks(changed)] == [vf.ProductBlock, vf.ProductBlock]
    assert _paths(changed) == ["structure", "table"]
    assert vf.basis_rank(changed)[0] == table_rank(changed) == len(elements) - 1 == 59
