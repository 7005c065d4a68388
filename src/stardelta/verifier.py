"""Residual verification of the vertex and diagonal boundary conditions.

Checks operate on anything that can evaluate itself and its first
derivatives on a quadrant/sector (amplitude tensors bound to a momentum
pair, or quadrature-synthesised superpositions); each check evaluates a
whole family of boundary lines per call.  A stack of amplitude tensors
is checked in one pass: every family is evaluated for all of them at
once, each at its own sample offset, and the whole-basis checks and the
mutation sweep walk the basis in stacks sized by ``WAVE_POINTS``.
Every stacked value is the one the tensor alone gives.  The value and
derivative sums of one family share its phase table, which
:func:`~stardelta.domain.wave_phases` keeps until the check is done with
the family's points.  All residuals are exact analytic evaluations
sampled at deterministic low-discrepancy points; one-sided limits at the
diagonal evaluate the sector-tagged branches exactly at x = y, since each
branch is an entire function.

The basis rank is read from the tables, unsampled: a parity block whose
product structure an exact check shows (:func:`exchange_blocks`) takes
it from small SVDs of its one-particle factors and diagonal-quadrant
rows (:func:`_product_rank`), any other block from one SVD of its
plane-wave coefficients (:func:`sample_matrix`).  Boundary coordinates
come from the golden ratio Kronecker sequence; NumPy's PCG64 generator,
seeded by an integer, draws only the entries :func:`mutation_sweep`
perturbs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Protocol

import numpy as np

from .basis import EXCHANGE_SIGN, BasisElement, basis_heads, build_basis, family_counts, product_tensor
from .domain import (
    ABOVE,
    BELOW,
    SCHEMA,
    TABLE_CHUNK,
    WAVE_POINTS,
    AmplitudeTensor,
    MomentumPair,
    StarConfig,
    drop_phases,
    entry_key,
    entry_mask,
    exchange_image,
    partner_momentum,
    wave_momenta,
)
from .oneparticle import OneParticleSolution
from . import transforms as tr
from .transforms import TRANSFORM_TOL

GOLDEN_FRAC = (math.sqrt(5.0) - 1.0) / 2.0

DEFAULT_TOL = 1e-9
DEFAULT_SAMPLES = 100  # boundary samples per check family
MUTATION_SAMPLES = 60  # boundary samples per check family of each mutant
DEFAULT_REL = 1e-3  # mutation size, relative to the amplitude
DEFAULT_DETECT_ABOVE = 1e-5  # worst residual that counts as a detected mutation
GRAM_GAP = 1e-8
SUM_FLOOR = 64 * np.finfo(float).eps  # a row sum this small, relative to its terms, is zero
SPAN = 10.0
SIGN_PAIRS = {(sig, tau) for sig in (-1, 1) for tau in (-1, 1)}  # the channels of the norm limit


def kronecker_points(count: int, offset: int | np.ndarray = 0, hi: float = 1.0) -> np.ndarray:
    """Golden-ratio low-discrepancy sequence on [0, hi).

    An int array of offsets gives one sequence per offset, stacked along
    the leading axes.
    """
    idx = np.add.outer(offset, np.arange(1, count + 1)).astype(float)
    u = np.mod(0.5 + idx * GOLDEN_FRAC, 1.0)
    return hi * u


@functools.lru_cache(maxsize=32)
def _leggauss(count: int) -> tuple[np.ndarray, np.ndarray]:
    """``leggauss(count)`` on [-1, 1], solved once per count and shared
    read-only by every later rule of that count."""
    x, w = np.polynomial.legendre.leggauss(count)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(count: int, lo=0.0, hi=1.0) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of ``count`` points on [lo, hi].

    Arrays of ends give one rule per interval, on a new last axis.  The
    rule on [-1, 1] is solved once per count (the 32 counts used last are
    kept); the map to [lo, hi] runs on every call, so each call returns
    arrays of its own.
    """
    x, w = _leggauss(count)
    lo, hi = np.asarray(lo)[..., None], np.asarray(hi)[..., None]
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def check_sampling(samples: int, tol: float) -> None:
    """Raise unless a check gets a positive, finite tolerance and at least one sample."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got tol={tol}")
    if samples < 1:
        raise ValueError(f"need at least one sample per check, got samples={samples}")


class PointSolution(Protocol):
    """Anything evaluable with one-sided analytic derivatives per sector.

    Quadrant indices ``i, j`` are ints or int arrays that broadcast against
    ``x, y``; off-diagonal quadrants ignore the sector tag.  ``n`` is the
    solution's edge count.
    """

    n: int

    def value_array(self, i, j, sector: str, x, y) -> np.ndarray: ...

    def derivative_array(self, i, j, sector: str, x, y, direction: str) -> np.ndarray: ...


def check_edges(sol: PointSolution, n: int) -> None:
    """Raise unless a boundary check's edge count is the solution's own."""
    if sol.n != n:
        raise ValueError(f"an n = {sol.n} solution cannot be checked with n = {n} edges")


class TensorSolution:
    """An amplitude tensor, or a stack of them, bound to its momentum pair."""

    def __init__(self, tensor: AmplitudeTensor, momentum: MomentumPair):
        self.tensor = tensor
        self.momentum = momentum
        self.n = tensor.n

    @classmethod
    def from_element(cls, el: BasisElement) -> "TensorSolution":
        return cls(el.tensor, el.momentum)

    def value_array(self, i, j, sector, x, y):
        return self.tensor.value_array(i, j, sector, x, y, self.momentum)

    def derivative_array(self, i, j, sector, x, y, direction):
        return self.tensor.derivative_array(i, j, sector, x, y, self.momentum, direction)


@dataclass(frozen=True)
class CheckResult:
    """One check's worst residual; on a stack of solutions, an array of one
    worst residual per solution (``passed`` then is an array too)."""

    name: str
    max_abs_residual: float
    sample_count: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_abs_residual <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max_abs_residual": float(self.max_abs_residual),
            "sample_count": self.sample_count,
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
        }


@dataclass
class ResidualReport:
    solution_id: str
    checks: list
    extras: dict = field(default_factory=dict)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "solution": self.solution_id,
            "checks": [c.to_dict() for c in self.checks],
            "overall": bool(self.overall),
            **{k: v for k, v in sorted(self.extras.items())},
        }


def check_vertex_bc(
    sol: PointSolution,
    n: int,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
    offset: int | np.ndarray = 0,
) -> list[CheckResult]:
    """Continuity and derivative-sum residuals on the quadrant boundaries.

    For each boundary sample the solution must take a common value
    across the n quadrants meeting at the vertex edge, and the outgoing
    derivatives must sum to zero.  Each family of boundary lines (x = 0
    on edge j, y = 0 on edge i) is evaluated in one call, with the n
    quadrants of a line on axis -3 and the lines on axis -2.  A stack of
    solutions takes one offset for all or an array of one per solution,
    and gives one worst residual per solution.
    """
    check_edges(sol, n)
    check_sampling(samples, tol)
    per_line = _per_line(samples, 2 * n)
    edges = np.arange(1, n + 1)
    quad, line = edges[:, None, None], edges[None, :, None]

    def points(first):  # per stacked offset, if any, and line: ([E,] 1, line, point)
        ts = kronecker_points(per_line, offset=np.add.outer(offset, (first + edges) * per_line), hi=SPAN)
        return ts[..., None, :, :]

    ts = points(0)
    # the x = 0 edge of a diagonal quadrant lies in the x < y sector
    vals_x0 = sol.value_array(quad, line, BELOW, 0.0, ts)
    dsum_x0 = sol.derivative_array(quad, line, BELOW, 0.0, ts, "dx").sum(axis=-3)
    ts = points(n)
    vals_y0 = sol.value_array(line, quad, ABOVE, ts, 0.0)
    dsum_y0 = sol.derivative_array(line, quad, ABOVE, ts, 0.0, "dy").sum(axis=-3)
    worst_match = np.maximum(*(np.abs(v - v[..., :1, :, :]).max(axis=(-3, -2, -1)) for v in (vals_x0, vals_y0)))
    worst_sum = np.maximum(*(np.abs(d).max(axis=(-2, -1)) for d in (dsum_x0, dsum_y0)))
    drop_phases()
    used = 2 * n * per_line
    return [
        CheckResult("vertex_value_match", worst_match, used, tol),
        CheckResult("vertex_derivative_sum", worst_sum, used, tol),
    ]


def check_diagonal_bc(
    sol: PointSolution,
    n: int,
    c: float,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
    offset: int | np.ndarray = 0,
) -> list[CheckResult]:
    """Continuity and derivative-jump residuals across each diagonal.

    The jump condition ties the one-sided normal derivatives to c times
    the boundary value:
    (d/dx - d/dy)/2 from above minus the same from below = c * value.
    All n diagonals are evaluated in one call per sector and derivative;
    a stack of solutions takes offsets as in :func:`check_vertex_bc`.
    """
    check_edges(sol, n)
    check_sampling(samples, tol)
    per_line = _per_line(samples, n)
    edges = np.arange(1, n + 1)
    ts = kronecker_points(per_line, offset=np.add.outer(offset, edges * per_line), hi=SPAN)
    quad = edges[:, None]
    v_above = sol.value_array(quad, quad, ABOVE, ts, ts)
    v_below = sol.value_array(quad, quad, BELOW, ts, ts)
    worst_cont = np.abs(v_above - v_below).max(axis=(-2, -1))

    def normal(sector):  # (d/dx - d/dy)/2 on one side of the diagonals
        return 0.5 * (sol.derivative_array(quad, quad, sector, ts, ts, "dx")
                      - sol.derivative_array(quad, quad, sector, ts, ts, "dy"))

    jump = normal(ABOVE) - normal(BELOW) - c * 0.5 * (v_above + v_below)
    worst_jump = np.abs(jump).max(axis=(-2, -1))
    drop_phases()
    used = n * per_line
    return [
        CheckResult("diagonal_continuity", worst_cont, used, tol),
        CheckResult("diagonal_jump", worst_jump, used, tol),
    ]


# ---------------------------------------------------------------------------
# whole-basis checks


def _one_basis(elements: list[BasisElement]) -> tuple[AmplitudeTensor, MomentumPair]:
    """The stacked table and momentum pair that all the elements share."""
    stack, m = elements[0].stack, elements[0].momentum
    if any(el.stack is not stack or (el.momentum is not m and el.momentum != m) for el in elements):
        raise ValueError("the rank needs elements of one basis, built at one momentum pair")
    return stack, m


class ParityBlock(list):
    """Elements of one exchange sign whose tables :func:`exchange_blocks`
    has checked to be that sign times their exchange images."""


class ProductBlock(ParityBlock):
    """A parity block of a whole basis whose ``family`` rows are exactly
    S+-(f^i, f^j) of the one-particle ``factors`` f^1..f^n, per edge the
    coefficients of exp(-ikx) and exp(ikx) (shape (n, n, 2)), read off
    their tables."""

    def __init__(self, elements, family: str, factors: np.ndarray):
        super().__init__(elements)
        self.family = family
        self.factors = factors


# The families whose rows are products of one factor family, odd first.
PRODUCT_FAMILIES = ("antisym", "sym_offdiag")
# The incoming coefficient, on its own edge j, of the factor of each
# product family: 1 for the scattering wave psi^j, 1/(2i) for
# phi^j = (psi^j - psi^{j+1})/(2i).  Dividing by either is exact.
INCOMING = {"antisym": 1.0, "sym_offdiag": 0.5 / 1j}
# A small SVD, or the sym_diag sum, decides the rank only this far from
# GRAM_GAP or SUM_FLOOR; nearer, the block takes its table SVD.
RANK_MARGIN = 16.0
# The product structure gives the rank from this many edges on.  Below,
# the table SVDs (at most 40 x 120 at n = 5) cost less than the checks the
# structure needs: basis_rank took 0.26 ms by the tables against 0.63 ms by
# the structure at n = 3, 1.04 against 1.12 ms at n = 5 and 1.68 against
# 1.51 ms at n = 6 (one thread, 2-vCPU Xeon VM).
PRODUCT_RANK_EDGES = 6


def _whole_basis(elements: list[BasisElement], n: int) -> bool:
    """True when the elements are every element of an n-edge basis once,
    each on a row of its own."""
    heads = basis_heads(n)
    return (len(elements) == len(heads) and {(el.family, el.indices) for el in elements} == set(heads)
            and len({el.row for el in elements}) == len(elements))


def _product_factors(elements: list[BasisElement], family: str, stack: AmplitudeTensor) -> np.ndarray | None:
    """The factors f^1..f^n of a product family read off its tables, or
    None unless every row of the family is exactly S+-(f^i, f^j).

    Factor i is read from the family's first row (i, j): slot 1 of its
    above plane on the quadrants (a, j) holds f^i times the partner's
    incoming wave on edge j, whose coefficient is ``INCOMING[family]``.
    The products are rebuilt by :func:`~stardelta.basis.product_tensor`,
    ``TABLE_CHUNK`` entries at a time, and compared bit for bit; a row
    that passes is its family's sign times its exchange image by
    construction.  Every index must lead some row of the family.
    """
    rows = [el for el in elements if el.family == family]
    first: dict[int, BasisElement] = {}
    for el in rows:
        first.setdefault(el.indices[0], el)
    lead = [first[i] for i in range(1, stack.n + 1)]
    partner = np.array([el.indices[1] for el in lead]) - 1
    factors = stack.amps[[el.row for el in lead], :, partner, 0, :, 0, 0] / INCOMING[family]
    ij = np.array([el.indices for el in rows]) - 1
    table_rows = np.array([el.row for el in rows])
    size = max(1, TABLE_CHUNK // stack.amps[0].size)
    for start in range(0, len(rows), size):
        part = slice(start, start + size)
        built = product_tensor(OneParticleSolution(factors[ij[part, 0]]), OneParticleSolution(factors[ij[part, 1]]),
                               EXCHANGE_SIGN[family]).amps
        if not np.array_equal(built, stack.amps[table_rows[part]]):
            return None
    return factors


def exchange_blocks(elements: list[BasisElement]) -> list[list[BasisElement]]:
    """The elements split by exchange parity, odd block first.

    The split is checked, not assumed.  In a whole basis of at least
    ``PRODUCT_RANK_EDGES`` edges the ``antisym`` and ``sym_offdiag`` rows
    are first checked to be the products
    S-(psi^i, psi^j) and S+(phi^i, phi^j) of factors read off the tables
    (:func:`_product_factors`); a family that passes has its parity by
    construction, and its block is a :class:`ProductBlock`.  Every other
    element's table must equal its family's sign times its exchange image
    exactly, which one pass of ``TABLE_CHUNK`` entries per step decides;
    a block whose product check failed is then a plain
    :class:`ParityBlock`.  The odd and the even elements span independent
    spaces of functions, so the rank is the sum of the blocks' ranks.  At
    the first table that fails the parity pass, the list itself is the
    one block.
    """
    stack, _m = _one_basis(elements)
    factors = {}
    if stack.n >= PRODUCT_RANK_EDGES and _whole_basis(elements, stack.n):
        for family in PRODUCT_FAMILIES:
            found = _product_factors(elements, family, stack)
            if found is not None:
                factors[family] = found
    rest = [el for el in elements if el.family not in factors]
    rows = np.array([el.row for el in rest], dtype=int)
    signs = np.array([EXCHANGE_SIGN[el.family] for el in rest]).reshape((-1,) + (1,) * 6)
    size = max(1, TABLE_CHUNK // stack.amps[0].size)
    for start in range(0, len(rows), size):
        part = slice(start, start + size)
        table = stack.amps[rows[part]]
        image = exchange_image(table)
        image *= signs[part]  # in place, on the image's own copy
        if not np.array_equal(image, table):
            return [elements]
    blocks = []
    for family in PRODUCT_FAMILIES:
        block = [el for el in elements if EXCHANGE_SIGN[el.family] == EXCHANGE_SIGN[family]]
        if block:
            blocks.append(ProductBlock(block, family, factors[family]) if family in factors else ParityBlock(block))
    return blocks


def _coefficients(elements: list[BasisElement], half: bool) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the elements' plane-wave coefficients, unscaled, with the
    diagonal-quadrant mask of the columns: per cell read, the summed
    amplitudes of each distinct wave momentum.  The half table reads
    quadrants a <= b of plane 0, the full one every quadrant of plane 0 and
    the diagonal quadrants of plane 1 too."""
    stack, m = _one_basis(elements)
    n = stack.n
    kx, ky = wave_momenta(m.k1, m.k2)
    same = (kx[:, None] == kx) & (ky[:, None] == ky)
    # column w of ``merge`` adds the waves that share the momenta of wave w,
    # for each w whose momenta no earlier wave has
    merge = same[:, ~np.tril(same, -1).any(axis=1)].astype(float)
    plane0 = np.arange(2) == 0  # the (quadrant, quadrant, sector plane) cells read
    cells = (np.triu(np.ones((n, n), dtype=bool))[..., None] & plane0 if half
             else np.eye(n, dtype=bool)[..., None] | plane0)
    a, b, s = np.nonzero(cells)
    rows = np.array([el.row for el in elements])[:, None]
    mat = (stack.amps[rows, a, b, s].reshape(-1, 8) @ merge).reshape(len(elements), -1)
    return mat, np.repeat(a == b, merge.shape[1])


def _normalise(mat: np.ndarray, elements: list[BasisElement], n: int) -> float:
    """Scale the coefficient rows in place as the rank reads them; return
    the ``sym_diag`` sum's size over ``SUM_FLOOR`` times its largest term
    (0 when the family does not hold exactly n rows)."""
    scale = np.abs(mat).max(axis=1)
    diag = [row for row, el in enumerate(elements) if el.family == "sym_diag"]
    if len(diag) == n:
        scale[diag] = scale[diag].max()
    mat /= np.where(scale > 0, scale, 1.0)[:, None]
    size = 0.0
    if len(diag) == n:
        total = mat[diag].sum(axis=0)
        # a sum at the rounding level of its largest term is zero, so
        # normalisation cannot make a lost direction out of noise
        floor = SUM_FLOOR * np.linalg.norm(mat[diag], axis=1).max()
        mat[diag[-1]] = total if np.linalg.norm(total) > floor else 0.0
        size = np.linalg.norm(total) / floor if floor > 0 else 0.0
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    mat /= np.where(norms > 0, norms, 1.0)
    return size


def _factor_matrix(factors: np.ndarray, k: float, width: int) -> np.ndarray:
    """The factors as functions at momentum k: per edge, the coefficients
    of exp(-ikx) and exp(ikx), added where k = 0, when the two coincide;
    zero columns pad the rows to ``width``."""
    merged = (factors.sum(axis=-1) if k == 0 else factors).reshape(len(factors), -1)
    out = np.zeros((len(factors), width), dtype=complex)
    out[:, :merged.shape[1]] = merged
    return out


def _cycle_functional(factors: np.ndarray) -> np.ndarray:
    """Weights on the half-table columns of a functional that reads
    sum_i X_{i,i+1} - X_{i+1,i} on every even table that vanishes on the
    diagonal quadrants and whose slot 1 is sum_ij X_ij f^i(x) f^j(y), so
    that it vanishes where X is zero off the pairs at distance >= 2.

    ``Z`` holds the cycle pattern, whose rows and columns sum to zero, so
    it vanishes on the relations X = u 1^T + 1 w^T of the factors
    (sum_i f^i = 0); pinv(F) reads X back from slot 1 up to them.  On the
    half table the slot-1 values of quadrant (b, a), b > a, stand in slot 2
    of (a, b) with the signs swapped; diagonal quadrants get no weight.
    """
    n = len(factors)
    i = np.arange(n)
    Z = np.zeros((n, n))
    Z[i, (i + 1) % n], Z[(i + 1) % n, i] = 1.0, -1.0
    P = np.linalg.pinv(factors.reshape(n, -1), rcond=GRAM_GAP)  # without the relation's direction
    W = (P @ Z @ P.T).reshape(n, 2, n, 2)
    a, b = np.nonzero(np.triu(np.ones((n, n), dtype=bool)))  # the half table's quadrants
    weights = np.stack([W[a, :, b, :], W[b, :, a, :].swapaxes(-1, -2)], axis=-1).reshape(len(a), 8)
    weights[a == b] = 0.0
    return weights.reshape(-1)


def sample_matrix(elements: list[BasisElement]) -> np.ndarray:
    """The normalised rows of the elements' plane-wave coefficients, whose
    SVD gives their rank.

    All elements must be rows of one stacked table, built at one momentum
    pair.  Waves of distinct frequency vectors are independent functions,
    so the coefficients decide the rank exactly: per quadrant and sector
    plane read, a row holds the summed amplitudes of each distinct wave
    momentum (waves coincide where k1 or k2 is 0).  A :class:`ParityBlock`,
    a :class:`ProductBlock` too, is read on quadrants a <= b of plane 0
    (4n^2 + 4n columns), which fix the rest of its tables; any other list,
    such as the one-block fallback of :func:`exchange_blocks`, on every
    quadrant and both diagonal planes (8n^2 + 8n columns).  Before
    normalisation the last ``sym_diag`` row is replaced by the sum of the
    family's rows, when the family holds exactly n of them.  Their O(1/c)
    coupling parts cancel in that sum, which leaves the O(1)
    cycle-completing solution, so the rank stays resolvable at small |c|;
    the row operation is unimodular and keeps the exact rank.  A sum no
    larger than ``SUM_FLOOR`` times its largest term is rounding noise and
    becomes a zero row.  Each row is first divided by its largest
    |coefficient|, the family's rows by one common factor, which keeps
    their sum and the norms finite at any c.
    """
    mat, _on_diag = _coefficients(elements, half=isinstance(elements, ParityBlock))
    _normalise(mat, elements, elements[0].stack.n)
    return mat


def _product_rank(block: ProductBlock) -> tuple[int, np.ndarray] | None:
    """A product block's rank from the SVDs of two small matrices, with
    their ratios, or None where they decide nothing.

    The odd block's rows are the Kronecker products of its factors psi^i
    at k1 and at k2, so its rank is the product of the ranks of the two
    n x 2n factor matrices.  The even block's ``sym_offdiag`` rows, the
    products of pairs at distance >= 2, are independent when the factors'
    one relation is sum_i phi^i = 0 (rank n - 1; k1 and k2 are interior,
    so the matrix at k1 serves k2), and they vanish on every diagonal
    quadrant, where the first n - 1 ``sym_diag`` rows, read as by
    :func:`sample_matrix`, must be independent and their sum vanishes.  So
    the rank is the number of ``sym_offdiag`` rows, plus n - 1, plus 1
    when the cycle test (:func:`_cycle_functional`), a lower bound on the
    normalised sum's distance from the ``sym_offdiag`` span (0 for a sum
    at rounding level), finds it outside.  Both even matrices are
    n x (8n + 1); the second holds the n - 1 rows on the diagonal quadrants
    (8n columns) and, in a row and column of its own, that bound.  The
    factors' relation is left out of the ratios.  None where waves coincide, the sum lies within
    ``RANK_MARGIN`` of ``SUM_FLOOR``, the factors do not sum to zero or a
    far pair's share an edge, the sum reaches a diagonal quadrant, a ratio
    or the odd block's weakest product of ratios lies within
    ``RANK_MARGIN`` of ``GRAM_GAP``, or the even counts fall short.
    """
    stack, m = _one_basis(block)
    n = stack.n
    factors = block.factors
    if block.family == "antisym":
        small = np.stack([_factor_matrix(factors, k, 2 * n) for k in (m.k1.real, m.k2.real)])
    else:
        diag = [el for el in block if el.family == "sym_diag"]
        mat, on_diag = _coefficients(diag, half=True)
        if mat.shape[1] != 8 * n * (n + 1) // 2:  # waves coincide: k1 or k2 is 0
            return None
        size = _normalise(mat, diag, n)
        if 1.0 / RANK_MARGIN < size < RANK_MARGIN:
            return None
        support = (factors != 0).any(axis=-1)  # factor, edge
        far = np.array([el.indices for el in block if el.family == "sym_offdiag"]) - 1
        if np.any(factors.sum(axis=0) != 0) or np.any(support[far[:, 0]] & support[far[:, 1]]):
            return None
        cycle = 0.0
        if size > 1.0:
            if np.any(mat[-1, on_diag] != 0):
                return None
            weights = _cycle_functional(factors)
            cycle = abs(weights @ mat[-1]) / np.linalg.norm(weights)
        small = np.zeros((2, n, 8 * n + 1), dtype=complex)
        small[0] = _factor_matrix(factors, m.k1.real, 8 * n + 1)
        small[1, :-1, :-1] = mat[:-1][:, on_diag]
        small[1, -1, -1] = cycle
    s = np.linalg.svd(small, compute_uv=False)
    ratio = s / np.where(s[:, :1] > 0, s[:, :1], 1.0)
    live = ratio > GRAM_GAP
    if np.any(np.where(live, ratio < RANK_MARGIN * GRAM_GAP, ratio > GRAM_GAP / RANK_MARGIN)):
        return None
    count = live.sum(axis=1)
    if block.family == "antisym":
        weakest = ratio[0, count[0] - 1] * ratio[1, count[1] - 1]
        if count.min() and weakest < RANK_MARGIN * GRAM_GAP:
            return None
        return int(count[0] * count[1]), ratio.reshape(-1)
    if count[0] != n - 1 or count[1] < n - 1:
        return None
    return len(block) - n + int(count[1]), np.concatenate([ratio[0, :n - 1], ratio[1]])


def basis_rank(elements: list[BasisElement]) -> tuple[int, np.ndarray]:
    """Exact numerical rank of the basis, with its singular values.

    A :class:`ProductBlock` of :func:`exchange_blocks` takes its rank from
    :func:`_product_rank`; every other block, and a product block whose
    structure decides nothing, from one SVD of its :func:`sample_matrix`:
    its rank counts the singular values above ``GRAM_GAP`` times its
    largest, and a block whose rows are all zero has rank 0.  The rank is
    the sum over the blocks.  The singular values are each SVD's own,
    divided by its largest (all zero for a zero matrix), in descending
    order, so the smallest is the smallest ratio of any of them.
    """
    rank, ratios = 0, []
    for block in exchange_blocks(elements):
        got = _product_rank(block) if isinstance(block, ProductBlock) else None
        if got is None:
            s = np.linalg.svd(sample_matrix(block), compute_uv=False)
            got = int(np.sum(s > GRAM_GAP * s[0])), s / (s[0] or 1.0)  # a zero block: rank 0, ratios 0
        rank += got[0]
        ratios.append(got[1])
    return rank, np.sort(np.concatenate(ratios))[::-1]


def verify_element(
    elements: list[BasisElement],
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
    offset: int | np.ndarray = 0,
) -> list[ResidualReport]:
    """All per-element checks: pointwise boundary conditions + transforms.

    The edge count, momentum pair and coupling are the elements' own.  The
    list holds consecutive elements of one basis, with one sample offset
    for all or an array of one each; it is checked as one stack, a view of
    their rows, and gives one report per element.
    """
    first = elements[0]
    if any(e.stack is not first.stack or e.row != first.row + k for k, e in enumerate(elements)):
        raise ValueError("a stack of elements must be consecutive elements of one basis")
    n, m, c = first.stack.n, first.momentum, first.coupling
    tensor = AmplitudeTensor(first.stack.amps[first.row:first.row + len(elements)])
    sol = TensorSolution(tensor, m)
    checks = check_vertex_bc(sol, n, samples=samples, tol=tol, offset=offset)
    checks += check_diagonal_bc(sol, n, c, samples=samples, tol=tol, offset=offset)
    tv = tr.extract_transforms(tensor, m)
    kir = tr.check_kirchhoff_transforms(tv)
    diag = tr.check_diagonal_conditions(tv, c)
    checks.append(CheckResult("transform_kirchhoff", kir.max, 4 * n * n, TRANSFORM_TOL))
    checks.append(CheckResult("transform_diagonal", diag.max, 8 * n, TRANSFORM_TOL))
    pointwise_diag = [ch for ch in checks if ch.name == "diagonal_jump"][0]
    agree = pointwise_diag.passed == (diag.max <= tol)
    checks.append(CheckResult("transform_pointwise_agreement", np.where(agree, 0.0, 1.0), 1, 0.5))
    return [
        ResidualReport(e.label, [CheckResult(ch.name, float(ch.max_abs_residual[k]), ch.sample_count, ch.tolerance)
                                 for ch in checks])
        for k, e in enumerate(elements)
    ]


def _per_line(samples: int, lines: int) -> int:
    """Sample points on each boundary line of a family of ``lines`` lines."""
    return max(1, samples // lines)


def _stacks(count: int, n: int, samples: int) -> list[slice]:
    """Slices of a stack of ``count`` solutions whose boundary checks keep
    every call under WAVE_POINTS wave-point pairs.  A vertex family is the
    largest: 8 waves at n values per point of its n lines, per solution."""
    size = max(1, WAVE_POINTS // (8 * n * n * _per_line(samples, 2 * n)))
    return [slice(start, start + size) for start in range(0, count, size)]


def verify_full_basis(
    cfg: StarConfig,
    m: MomentumPair,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
) -> ResidualReport:
    """Verify every basis element and the basis rank at this momentum.

    Element ``idx`` samples at offset ``7 * idx``; the elements are
    checked in stacks, each stack in one pass.
    """
    check_sampling(samples, tol)
    elements = build_basis(cfg, m)
    offsets = 7 * np.arange(len(elements))
    sub_reports = []
    for part in _stacks(len(elements), cfg.n, samples):
        sub_reports += verify_element(elements[part], samples=samples, tol=tol, offset=offsets[part])
    checks: list[CheckResult] = []
    for el, rep in zip(elements, sub_reports):
        # aggregate row per element: worst residual normalised by each
        # sub-check's own tolerance, so <= 1 means the element passed
        worst_ratio = max(c.max_abs_residual / c.tolerance for c in rep.checks)
        checks.append(CheckResult(f"element:{el.label}", worst_ratio, samples, 1.0))
    rank, svals = basis_rank(elements)
    checks.append(CheckResult("basis_rank", 0.0 if rank == len(elements) else 1.0, len(elements), 0.5))
    return ResidualReport(
        solution_id=f"basis(n={cfg.n}, c={cfg.c}, k1={m.k1.real})",
        checks=checks,
        extras={
            "element_count": len(elements),
            "family_counts": family_counts(elements),
            "rank": rank,
            "rank_expected": len(elements),
            "singular_value_ratio": float(svals[-1] / svals[0]),
            "elements": [rep.to_dict() for rep in sub_reports],
        },
    )


# ---------------------------------------------------------------------------
# mutation sweeps (negative controls as first-class operations)


def mutation_sweep(
    cfg: StarConfig,
    m: MomentumPair,
    rel: float = DEFAULT_REL,
    per_element: int = 1,
    detect_above: float = DEFAULT_DETECT_ABOVE,
    seed: int = 0,
) -> list[dict]:
    """Perturb single amplitudes and record the worst triggered residual.

    Returns one record per mutation with the worst vertex or diagonal
    residual at ``MUTATION_SAMPLES`` samples and whether the perturbation
    was detected (residual above ``detect_above``).  A healthy verifier
    detects every mutation; silent records mean the checks are vacuous
    somewhere.  The entries are drawn element by element, each among the
    entries ``items`` lists, in its order; the mutants are then checked in
    stacks, all at offset 0.
    """
    if rel == 0 or not math.isfinite(rel):
        raise ValueError(f"mutation size must be non-zero and finite, got rel={rel}")
    if not 0.0 < detect_above < math.inf:
        raise ValueError(f"detection threshold must be positive and finite, got detect_above={detect_above}")
    if per_element < 1:
        raise ValueError(f"need at least one mutation per element, got {per_element}")
    rng = np.random.default_rng(seed)
    mutants = []  # (element, entry key) in draw order
    for el in build_basis(cfg, m):
        # the element's entries in the order of its items(); only the picked become keys
        keep = entry_mask(el.tensor.amps)
        where = np.flatnonzero(keep)
        picks = where[rng.choice(len(where), size=min(per_element, len(where)), replace=False)]
        mutants += [(el, entry_key(index)) for index in np.transpose(np.unravel_index(picks, keep.shape)).tolist()]
    out = []
    for part in _stacks(len(mutants), cfg.n, MUTATION_SAMPLES):
        batch = mutants[part]
        bad = AmplitudeTensor([el.tensor.with_scaled_entry(key, 1.0 + rel).amps for el, key in batch])
        sol = TensorSolution(bad, m)
        checks = check_vertex_bc(sol, cfg.n, samples=MUTATION_SAMPLES)
        checks += check_diagonal_bc(sol, cfg.n, cfg.c, samples=MUTATION_SAMPLES)
        worst = np.maximum.reduce([c.max_abs_residual for c in checks])
        out += [
            {
                "element": el.label,
                "entry": list(key),
                "relative_change": rel,
                "max_residual": float(w),
                "detected": bool(w > detect_above),
            }
            for (el, key), w in zip(batch, worst)
        ]
    return out


# ---------------------------------------------------------------------------
# the growth-rate identity for transform densities


@dataclass(frozen=True)
class NormLimitResult:
    R: float
    lhs: float
    rhs: float
    quadrature_change: float

    @property
    def relative_error(self) -> float:
        if self.rhs == 0.0:
            return abs(self.lhs)
        return abs(self.lhs / self.rhs - 1.0)

    @property
    def converged(self) -> bool:
        scale = max(abs(self.lhs), abs(self.rhs), 1e-30)
        return self.quadrature_change <= 0.02 * scale


def profile_values(profile: Callable, nodes: np.ndarray) -> np.ndarray:
    """A coefficient profile on a node grid, one complex value per node;
    refuses a profile that gives any other shape."""
    values = np.atleast_1d(np.asarray(profile(nodes)))
    if values.shape != nodes.shape:
        raise ValueError("profile must return one coefficient per quadrature node")
    return values.astype(complex)


def _wave_gram(q: np.ndarray, starts: np.ndarray, t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """G[a, b] = sum over the nodes x = start + t of w * exp(i (q_a - q_b) x),
    as a Gram over the panel starts times a Gram over the one-panel rule."""
    shift = np.exp(1j * np.outer(starts, q))
    local = np.exp(1j * np.outer(t, q))
    gram = shift.T @ shift.conj()
    gram *= (local.T * w) @ local.conj()
    return gram


def _norm_lhs(
    values: Mapping[tuple[int, int], np.ndarray], knots: np.ndarray, kweights: np.ndarray, R: float, panel: float
) -> float:
    # channels and knots that vanish add nothing to the form
    live = {key: v for key, v in values.items() if np.any(v)}
    if not live:
        return 0.0
    keep = np.any(list(live.values()), axis=0)
    k, kappa = knots[keep], partner_momentum(knots[keep])
    # composite 8-point Gauss panels of equal width at most ``panel`` on [0, R]
    count = max(1, math.ceil(R / panel))
    starts = np.arange(count) * (R / count)
    t, w = gauss_legendre(8, 0.0, R / count)
    # one Gram per axis over the signed wave numbers of the channels present
    sx, sy = sorted({sig for sig, _ in live}), sorted({tau for _, tau in live})
    m = k.size
    gx = _wave_gram(np.outer(sx, k).ravel(), starts, t, w).reshape(len(sx), m, len(sx), m)
    gy = _wave_gram(np.outer(sy, kappa).ravel(), starts, t, w).reshape(len(sy), m, len(sy), m)
    coeff = {(sig, tau): (-sig * tau) * kweights[keep] * v[keep] for (sig, tau), v in live.items()}
    total = 0.0
    for (sig, tau), c in coeff.items():
        for (sig2, tau2), d in coeff.items():
            block = gx[sx.index(sig), :, sx.index(sig2)] * gy[sy.index(tau), :, sy.index(tau2)]
            total += c @ block @ d.conj()
    return float(total.real) / R


def check_norm_limit(profiles: Mapping[tuple[int, int], Callable], R: float) -> NormLimitResult:
    """Compare (1/R) * integral of |psi|^2 over [0, R]^2 against the channel sum.

    ``profiles`` maps sign pairs (sig, tau) in {-1, 1}^2 to
    square-integrable transform functions g on [0, 1]; psi is the
    plane-wave superposition they generate on one quadrant,

        psi(x, y) = sum over channels and momentum knots k of
                    c * exp(i (sig k x + tau kappa(k) y)),
        c = -sig tau w_k g(k),  kappa(k) = sqrt(1 - k^2).

    The right-hand side is 2*pi * sum of the channel L2 norms, on a
    400-node Gauss rule.  The left-hand side takes a Gauss rule of
    max(256, 3.2 R) momentum knots and composite 8-point Gauss panels of
    width 1.4 in x and y; a refined pass (panels of width 1.4/1.5)
    estimates the remaining quadrature error, exposed as
    ``quadrature_change`` and the ``converged`` flag.

    No grid of psi is built.  Indexing the non-vanishing (channel, knot)
    pairs by a, with wave numbers p_a = sig k and q_a = tau kappa(k),

        sum over x, y of w_x w_y |psi|^2 = sum over a, b of
            c_a conj(c_b) Gx[a, b] Gy[a, b],
        Gx[a, b] = sum over x of w_x exp(i (p_a - p_b) x),

    and Gy likewise with q.  Every panel has the same width, so each node
    is start + t for one 8-point rule t, and Gx is the elementwise
    product of a Gram over the panel starts and one over the panel rule.
    Each axis takes one Gram over the signed wave numbers of the channels
    present: with K knots and s signs per axis, about 2 (s K)^2 (panels
    + 8) complex multiply-adds and (panels + 8) s K exponentials per
    axis, and a few (s K)^2 arrays, where the X x X grid (X = 8 panels)
    of C channels took C X^2 K multiply-adds and 2 C X K exponentials
    and held X^2 values.  Every
    rule comes from :func:`gauss_legendre`, which solves each node count
    once: both passes, and later calls, share the 8-point, momentum and
    400-point rules.

    Raises ``ValueError`` before any sum for an R that is not positive
    and finite, a key outside {-1, 1}^2, or a profile that does not give
    one finite value per node; a profile that is zero everywhere is
    allowed.
    """
    if not 0.0 < R < math.inf:
        raise ValueError(f"R must be positive and finite, got R={R}")
    for key in profiles:
        if key not in SIGN_PAIRS:
            raise ValueError(f"channel key must be a sign pair (sig, tau) in {{-1, 1}}^2, got {key!r}")
    knots, kweights = gauss_legendre(max(256, int(3.2 * R)))
    qx, qw = gauss_legendre(400)
    on_knots, on_rhs = {}, []
    for key, g in profiles.items():
        on_knots[key], gv = profile_values(g, knots), profile_values(g, qx)
        if not (np.all(np.isfinite(on_knots[key])) and np.all(np.isfinite(gv))):
            raise ValueError("profile must be finite at every quadrature node")
        on_rhs.append(gv)
    # right-hand side: 2 pi * sum of channel norms
    rhs = 2.0 * math.pi * sum(float(qw @ (np.abs(gv) ** 2)) for gv in on_rhs)
    lhs = _norm_lhs(on_knots, knots, kweights, R, 1.4)
    lhs_fine = _norm_lhs(on_knots, knots, kweights, R, 1.4 / 1.5)
    return NormLimitResult(R=R, lhs=lhs, rhs=rhs, quadrature_change=abs(lhs - lhs_fine))
