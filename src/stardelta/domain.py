"""Configuration-space primitives for two particles on a star graph.

A star graph is a bundle of n half-line edges glued at a single vertex.
Two-particle configurations decompose into n^2 quadrants
Q_ij = {(x, y) : x on edge i, y on edge j}.  Diagonal quadrants Q_ii are
cut along x = y into an "above" sector (x > y) and a "below" sector
(x < y); the point interaction lives on that cut, so solutions may kink
there while staying smooth elsewhere.

Wavefunctions at fixed energy are finite sums of plane waves

    A * exp(1j * (sig * k_x * x + tau * k_y * y)),

where (k_x, k_y) is one of the two orderings of a momentum pair
(k1, k2) with k1^2 + k2^2 = 1 and sig, tau are signs.  The coefficient
table of such a sum is an :class:`AmplitudeTensor`: one dense array
with a cell per quadrant sector (:func:`cell`), indexed by that cell,
sign pair and momentum assignment.
Evaluation is exact (analytic), never discretised.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass
from typing import Iterator

import numpy as np

ABOVE = "above"  # x > y inside a diagonal quadrant
BELOW = "below"  # x < y
OFFDIAG = "off"  # i != j, no sector split

SECTORS = (ABOVE, BELOW)

ENERGY_TOL = 1e-12

SCHEMA = 1  # the "schema" field of every JSON report

# The fold interval [0, POLE) carries the momentum k = min(k1, k2) of a
# real pair.  The diagonal coupling scalar c_minus = -1j*c/(k - kappa),
# kappa = sqrt(1 - k^2), has a pole at k = POLE; momenta within MARGIN of
# it are refused.
POLE = 1.0 / math.sqrt(2.0)
MARGIN = 1e-6

# Entry key layout: (i, j, sector, sig, tau, slot) with 1-based edge
# indices, sig/tau in {-1, +1} and slot in {1, 2} naming which momentum
# of the pair rides on x (slot 1 means x carries k1 and y carries k2).
EntryKey = tuple[int, int, str, int, int, int]


def check_edge_count(n: int) -> None:
    """Raise unless the star has at least 3 edges, the least the basis needs."""
    if n < 3:
        raise ValueError(f"need at least 3 edges, got n={n}")


@dataclass(frozen=True)
class StarConfig:
    """Problem instance: edge count n >= 3, coupling c, energy fixed to 1."""

    n: int
    c: float

    def __post_init__(self):
        check_edge_count(self.n)
        if not math.isfinite(self.c):
            raise ValueError(f"coupling must be finite, got c={self.c}")

    @property
    def basis_size(self) -> int:
        return 2 * self.n ** 2 - 2 * self.n


def make_config(n: int, c: float) -> StarConfig:
    """Validated problem instance; rejects n < 3 and non-finite c."""
    if int(n) != n:
        raise ValueError(f"edge count must be an integer, got {n!r}")
    return StarConfig(n=int(n), c=float(c))


@dataclass(frozen=True)
class MomentumPair:
    """Momentum pair constrained to the unit energy shell k1^2 + k2^2 = 1.

    Components may be complex at the type level; real-momentum workflows
    additionally require both in [0, 1].
    """

    k1: complex
    k2: complex

    def __post_init__(self):
        defect = abs(self.k1 * self.k1 + self.k2 * self.k2 - 1.0)
        if defect > ENERGY_TOL:
            raise ValueError(
                f"momentum pair off the energy shell: |k1^2+k2^2-1| = {defect:.3e}"
            )

    @classmethod
    def from_k1(cls, k1: float) -> "MomentumPair":
        """Real pair (k1, sqrt(1 - k1^2)); requires 0 <= k1 <= 1."""
        return cls(complex(k1), complex(partner_momentum(k1)))

    @property
    def fold(self) -> float:
        """Fold momentum min(k1, k2) of a real pair."""
        return min(self.k1.real, self.k2.real)


def partner_momentum(k1):
    """k2 = sqrt(1 - k1^2) of real momenta 0 <= k1 <= 1, elementwise."""
    k1 = np.asarray(k1, dtype=float)
    if not np.all((0.0 <= k1) & (k1 <= 1.0)):
        raise ValueError(f"real momentum must lie in [0, 1], got {k1}")
    return np.sqrt(np.maximum(0.0, 1.0 - k1 * k1))


def near_pole(k):
    """True where k lies within MARGIN of the pole; elementwise on arrays."""
    return np.abs(np.asarray(k) - POLE) < MARGIN


class Refusal(ValueError):
    """A refused input, with the ``tag`` a sweep writes as SKIPPED(tag)."""

    def __init__(self, message: str, tag: str):
        super().__init__(message)
        self.tag = tag


def check_pole(k, c: float) -> None:
    """Raise when c != 0 and the fold momentum k lies within MARGIN of the pole."""
    if c != 0.0 and near_pole(k):
        raise Refusal(f"fold momentum k = {k} is inside the exclusion zone around 1/sqrt(2) for c != 0",
                      "singularity")


def check_fold(k) -> None:
    """Raise unless 0 <= k < 1/sqrt(2), for every entry of an array."""
    k_arr = np.asarray(k)
    if not np.all((0.0 <= k_arr) & (k_arr < POLE)):
        raise ValueError(f"fold momentum must lie in [0, 1/sqrt(2)), got {k}")


def table_shape(n: int) -> tuple[int, ...]:
    """Shape of one n-edge amplitude table: n rows of n + 1 cells, each
    cell the eight waves (sig, tau, slot) of one quadrant sector."""
    return (n, n + 1, 2, 2, 2)


def cell(i, j, sector: str):
    """Column of the cell of quadrant (i, j), sector in row i of an
    amplitude table; 1-based edge indices, elementwise on quadrant index
    arrays.  Row i holds its n + 1 cells in key order: the quadrants
    (i, j < i), the diagonal quadrant's above then below sector, then the
    quadrants (i, j > i).  Off-diagonal quadrants ignore the sector tag."""
    i, j = np.asarray(i), np.asarray(j)
    if sector not in SECTORS and np.any(i == j):
        raise ValueError(f"diagonal quadrant needs sector above/below, got {sector!r}")
    return j - 1 + (j > i) + ((i == j) & (sector == BELOW))


def cell_quadrant(row, col):
    """The inverse of :func:`cell`: the 1-based quadrant (i, j) of the cell
    at 0-based ``row``, ``col``, and whether it is a below sector;
    elementwise, on ints as on arrays."""
    return row + 1, col + (col <= row), col == row + 1


@functools.lru_cache(maxsize=None)
def cell_keys(n: int) -> tuple[np.ndarray, ...]:
    """:func:`cell_quadrant` of every cell of an n-edge table, (n, n + 1)
    arrays of i, j and below, built once per n and never written."""
    return tuple(np.broadcast_arrays(*cell_quadrant(np.arange(n)[:, None], np.arange(n + 1))))


class AmplitudeTensor:
    """Plane-wave coefficient table of a piecewise-analytic wavefunction.

    One read-only complex array ``amps`` of shape (n, n + 1, 2, 2, 2)
    (:func:`table_shape`) holds one cell per quadrant sector: the
    amplitude of key (i, j, sector, sig, tau, slot) sits at
    ``amps[i-1, cell(i, j, sector), (sig+1)//2, (tau+1)//2, slot-1]``.
    A diagonal quadrant has an above and a below cell, an off-diagonal
    quadrant one (:func:`cell`).  Evaluation at a point sums the eight
    waves of the point's cell; the sum is linear in the entries.

    A leading axis, shape (E, n, n + 1, 2, 2, 2), stacks E tables that are
    evaluated together: every evaluation then carries that axis first (see
    :func:`plane_wave_sum`).  Keyed access to a single table (``items``,
    ``with_scaled_entry``) has no caller but ``perfbench/selftest.py``.
    """

    __slots__ = ("amps",)

    def __init__(self, amps):
        # a read-only complex array (a row or rows of a stack) is shared;
        # anything else is copied and frozen
        if not (isinstance(amps, np.ndarray) and amps.dtype == complex and not amps.flags.writeable):
            amps = np.array(amps, dtype=complex)
            amps.setflags(write=False)
        if amps.ndim not in (5, 6) or amps.shape[-5:] != table_shape(amps.shape[-5]):
            raise ValueError(f"expected an ([E,] n, n + 1, 2, 2, 2) amplitude array, got {amps.shape}")
        self.amps = amps

    @property
    def n(self) -> int:
        return self.amps.shape[-5]

    # -- construction helpers -------------------------------------------------

    def with_scaled_entry(self, key: EntryKey, factor: complex) -> "AmplitudeTensor":
        """Copy with a single amplitude multiplied by ``factor`` (mutation tests)."""
        idx = _entry_index(self.n, key)
        if self.amps[idx] == 0:
            raise KeyError(f"no amplitude stored at {key}")
        amps = self.amps.copy()
        amps[idx] *= factor
        return AmplitudeTensor(amps)

    # -- inspection ------------------------------------------------------------

    def items(self) -> Iterator[tuple[EntryKey, complex]]:
        """Nonzero entries sorted by key; off-diagonal quadrants tagged OFFDIAG."""
        keep = self.amps != 0
        for index, amp in zip(np.argwhere(keep).tolist(), self.amps[keep].tolist()):
            yield entry_key(index), amp

    # -- evaluation ------------------------------------------------------------

    def value_array(self, i, j, sector: str, x, y, m: MomentumPair) -> np.ndarray:
        """Evaluate at arrays of coordinates within quadrant (i, j), sector.

        ``i`` and ``j`` are ints, or int arrays that broadcast against ``x``
        and ``y`` to evaluate many quadrants in one call.  Off-diagonal
        quadrants ignore the sector tag, so one tag serves a line of
        quadrants that crosses the diagonal.
        """
        return plane_wave_sum(self._waves(), *wave_momenta(m.k1, m.k2), i, j, sector, x, y)

    def derivative_array(self, i, j, sector: str, x, y, m: MomentumPair, direction: str) -> np.ndarray:
        """Exact analytic partial derivative, vectorised like value_array."""
        return plane_wave_sum(self._waves(), *wave_momenta(m.k1, m.k2), i, j, sector, x, y, direction)

    def _waves(self) -> np.ndarray:
        """The table with the eight waves of a cell on one axis."""
        return self.amps.reshape(self.amps.shape[:-3] + (8,))


def entry_key(index) -> EntryKey:
    """The key of a single table's array index (row, column, p, q, r)."""
    a, col, p, q, r = index
    i, j, below = cell_quadrant(a, col)
    return (i, j, SECTORS[below] if i == j else OFFDIAG, 2 * p - 1, 2 * q - 1, r + 1)


def _entry_index(n: int, key: EntryKey) -> tuple:
    """Array index of a key; a diagonal key names its sector, an
    off-diagonal one is tagged OFFDIAG."""
    i, j, sector, sig, tau, slot = key
    if (not (1 <= i <= n and 1 <= j <= n) or sector not in (SECTORS if i == j else (OFFDIAG,))
            or sig not in (-1, 1) or tau not in (-1, 1) or slot not in (1, 2)):
        raise KeyError(f"{key} is not an entry of an n = {n} amplitude table")
    return (i - 1, int(cell(i, j, sector)), (sig + 1) // 2, (tau + 1) // 2, slot - 1)


@functools.lru_cache(maxsize=None)
def _exchange_order(n: int) -> np.ndarray:
    """Flat positions in an n-edge table of what :func:`exchange_image`
    gathers per entry: the cell of quadrant (j, i), with the other sector
    on the diagonal, and the wave of signs (tau, sig) in the other slot."""
    i, j, below = cell_keys(n)
    cells = (j - 1) * (n + 1) + np.where(below, cell(j, i, ABOVE), cell(j, i, BELOW))
    waves = np.arange(8).reshape(2, 2, 2).transpose(1, 0, 2)[..., ::-1].reshape(-1)
    return (cells[..., None] * 8 + waves).reshape(-1)


def exchange_image(amps: np.ndarray) -> np.ndarray:
    """Table of the exchanged wavefunction psi(y, x), given the table of
    psi(x, y), with any leading stack axes kept: a new array, one gather.

    Exchange maps quadrant (a, b) to (b, a) and the wave of signs
    (sig, tau) to the wave of signs (tau, sig) in the other slot, since x
    now carries the other momentum.  On a diagonal quadrant the above
    sector becomes the below one.  An exchange-symmetric table equals its
    image, an antisymmetric one minus it.
    """
    order = _exchange_order(amps.shape[-5])
    return np.take(amps.reshape(amps.shape[:-5] + order.shape), order, axis=-1).reshape(amps.shape)


# Table entries per step of a pass over a stacked table (512 KiB of
# complex entries): the basis build writes its rows, and the rank's parity
# and product checks read them, this many entries at a time.
TABLE_CHUNK = 1 << 15


def table_parts(count: int, row_size: int) -> list[slice]:
    """Consecutive slices of ``count`` stacked rows of ``row_size`` entries
    each, at most ``TABLE_CHUNK`` entries per slice but at least one row:
    the one walk of every pass over a stacked table."""
    size = max(1, TABLE_CHUNK // max(1, row_size))
    return [slice(start, start + size) for start in range(0, count, size)]

# The most wave-point pairs (waves times sample points) one block of a
# plane_wave_sum takes: a sum over more waves streams them in blocks of
# about this size, and callers split stacks of tables into calls of it.
# Where two threads check one basis at once, they share this budget.
WAVE_POINTS = 1 << 18

# Signs and slots of the eight waves of one quadrant/sector, in the
# (sig, tau, slot) order of the amplitude array's last three axes.
_SIG = np.repeat([-1.0, 1.0], 4)
_TAU = np.tile(np.repeat([-1.0, 1.0], 2), 2)
_SLOT1 = np.tile([True, False], 4)


def wave_momenta(k1, k2) -> tuple[np.ndarray, np.ndarray]:
    """Momenta (k_x, k_y) of the eight waves of a quadrant/sector at the
    pair (k1, k2); a column of P pairs gives a (P, 8) array of each.  The
    partner of wave w, position w ^ 6 of its eight, has signs (-sig, -tau)
    in the same slot, so it carries the negated momenta."""
    kx = _SIG * np.where(_SLOT1, k1, k2)
    ky = _TAU * np.where(_SLOT1, k2, k1)
    return kx, ky


# The partners (w ^ 6) of the sig = +1 waves 4..7 of a block of eight
_PARTNERS = np.arange(4, 8) ^ 6


def _phase_table(kx, ky, x, y) -> np.ndarray:
    """A new read-only table of :func:`wave_phases`.

    Real momenta give real arguments k_x x + k_y y.  Where, in addition,
    each block of eight waves holds four conjugate pairs, every sig = +1
    wave's partner carrying exactly its negated momenta (as
    :func:`wave_momenta` gives them), only the sig = +1 waves take an exp
    and each partner takes its conjugate.  The partner's argument is the
    exact negation and sin/cos are odd/even, so the table is bit for bit
    the one of an exp per wave.  Complex momenta take an exp per wave.
    """
    x, y = np.broadcast_arrays(np.atleast_1d(np.asarray(x, dtype=float)), np.asarray(y, dtype=float))
    kx, ky = np.asarray(kx), np.asarray(ky)
    if not (np.any(kx.imag) or np.any(ky.imag)):
        kx, ky = kx.real, ky.real
    k = np.stack([kx, ky]).reshape(2, -1, 8) if kx.size % 8 == 0 else None
    if k is None or np.iscomplexobj(k) or not np.array_equal(k[..., _PARTNERS], -k[..., 4:]):
        table = np.exp(1j * (x[..., None] * kx + y[..., None] * ky))
    else:
        table = np.empty(x.shape + k.shape[1:], dtype=complex)
        half = 1j * (x[..., None, None] * k[0, :, 4:] + y[..., None, None] * k[1, :, 4:])
        table[..., 4:] = np.exp(half, out=half)
        # + 0 turns the -0 imaginary part that a conjugate gives at a zero
        # argument into the +0 that an exp gives there
        np.conjugate(half, out=half)
        half += 0
        table[..., :2] = half[..., 2:]
        table[..., 2:4] = half[..., :2]
        table = table.reshape(x.shape + (-1,))
    table.setflags(write=False)
    return table


class _Kept(threading.local):
    """The key and table of the last wave_phases call, one pair per thread."""

    key = None
    table = None


_kept = _Kept()


def wave_phases(kx: np.ndarray, ky: np.ndarray, x, y) -> np.ndarray:
    """exp(1j(k_x x + k_y y)) per point (the broadcast shape of ``x`` and
    ``y``, at least 1-d) and wave (the last axis), read-only.

    The table of the thread's previous call is kept: a call whose wave
    momenta and points are bit for bit those of that call gets the kept
    table, so the value and derivative sums of one family of points build
    one table.  Any other call drops the kept table before it builds its
    own, so at most one table per thread stays alive between calls, and
    :func:`drop_phases` frees it.  Each thread keeps its own table, so
    threads that evaluate at once never read each other's.
    """
    key = tuple((a.shape, a.dtype.str, a.tobytes()) for a in map(np.asarray, (kx, ky, x, y)))
    if _kept.key != key:
        drop_phases()
        _kept.table = _phase_table(kx, ky, x, y)
        _kept.key = key
    return _kept.table


def drop_phases() -> None:
    """Free the table :func:`wave_phases` keeps for this thread; a family
    of sums that is done with its points calls this, so no table outlives
    it."""
    _kept.key = _kept.table = None


# The wave-point pairs from which a vertex family of a stack sums faster
# with the stack axis next to the waves.  check_vertex_bc on the first
# stack of a basis (one CPU, 2-vCPU Xeon VM), old layout against this one:
# n = 3, 13,824 pairs, 0.68 against 0.87 ms; n = 4, 36,864 pairs, 1.17
# against 1.31 ms; n = 5, 80,000 pairs, 2.37 against 2.35 ms; n = 12 at 60
# samples, 129,024 pairs, 6.50 against 3.63 ms.
STACK_INNER_PAIRS = WAVE_POINTS // 4


@functools.lru_cache(maxsize=64)
def _stack_inner(shape: tuple, i: tuple, j: tuple, points: tuple) -> bool:
    """Whether :func:`plane_wave_sum` gathers a stack of tables of this
    ``shape``, at quadrant indices of shapes ``i`` and ``j`` and points of
    shape ``points``, with the stack axis next to the waves: for a vertex
    family, whose points broadcast over a quadrant axis of the rows, of at
    least ``STACK_INNER_PAIRS`` wave-point pairs.  Decided once per shape."""
    quads = np.broadcast_shapes(i, j)
    aligned = ((1,) * len(quads) + points)[len(points):]  # the point axes against the quadrant axes
    vertex = any(q > 1 and p == 1 for q, p in zip(quads, aligned))
    return vertex and math.prod(np.broadcast_shapes(shape[:1] + quads, points)) * shape[-1] >= STACK_INNER_PAIRS


def plane_wave_sum(waves: np.ndarray, kx, ky, i, j, sector: str, x, y, direction: str | None = None) -> np.ndarray:
    """Sum of the waves of quadrant (i, j), sector at the points (x, y), or
    its exact partial derivative along ``direction`` ("dx" or "dy").

    ``waves`` has shape (..., n, n + 1, W): the W waves of every cell
    (:func:`cell`), with momenta ``kx, ky`` in the same order.  That is one
    amplitude table (W = 8), or P of them side by side for P momentum pairs
    (W = 8P, one sum of 8P waves).  Rows of waves for many quadrants
    broadcast against the points.  Leading axes stack tables evaluated
    together; they lead the quadrant rows, and the points broadcast
    against both, so points that differ per stacked table carry an axis
    for the stack in front of their quadrant axes.  The wave axis is
    summed in blocks of at most ``WAVE_POINTS`` wave-point pairs, down to
    one table's eight waves, so a single table is always one block; each
    block's phases come from :func:`wave_phases`, points first and waves
    last, and the block is summed over that last, contiguous axis.  A
    large vertex family of a stack (:func:`_stack_inner`) gathers its rows,
    and builds its phases, with the stack axis next to the waves, so that
    einsum's inner loop runs over the stack rather than over a cell's eight
    waves; the sums are the same bits in either layout.  Callers size
    stacks of tables by ``WAVE_POINTS``.
    """
    i, j = np.asarray(i), np.asarray(j)
    n = waves.shape[-3]
    if np.any((i < 1) | (i > n) | (j < 1) | (j > n)):
        raise IndexError(f"quadrant ({i}, {j}) outside an n = {n} star")
    if direction not in (None, "dx", "dy"):
        raise ValueError(f"direction must be 'dx' or 'dy', got {direction!r}")
    points = np.broadcast(x, y).shape
    inner = waves.ndim == 4 and _stack_inner(waves.shape, i.shape, j.shape, points)
    if inner:
        rows = np.moveaxis(np.moveaxis(waves, 0, -2)[i - 1, cell(i, j, sector)], -2, 0)
    else:
        rows = waves[..., i - 1, cell(i, j, sector), :]
    if direction is not None:
        rows = rows * (1j * (kx if direction == "dx" else ky))
    moved = inner and len(points) == rows.ndim - 1  # points with the stack axis take it last
    if moved:
        x, y = (np.moveaxis(a, 0, -1) for a in np.broadcast_arrays(x, y))
    step = 8 * max(1, WAVE_POINTS // max(8 * math.prod(points), 1))
    # an empty wave axis still makes one block, which gives zeros of the right shape
    blocks = [slice(w, w + step) for w in range(0, max(len(kx), 1), step)]
    return functools.reduce(operator.add, (
        np.einsum("...w,...w->...", rows[..., b],
                  np.moveaxis(wave_phases(kx[b], ky[b], x, y), -2, 0) if moved else wave_phases(kx[b], ky[b], x, y))
        for b in blocks))
