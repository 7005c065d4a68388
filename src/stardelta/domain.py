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
table of such a sum is an :class:`AmplitudeTensor`, keyed by quadrant,
sector, sign pair and momentum assignment.  Evaluation is exact
(analytic), never discretised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

ABOVE = "above"  # x > y inside a diagonal quadrant
BELOW = "below"  # x < y
OFFDIAG = "off"  # i != j, no sector split

SECTORS = (ABOVE, BELOW)

ENERGY_TOL = 1e-12

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


def canonical_sector(i: int, j: int, sector: str) -> str:
    """Normalise a sector tag: off-diagonal quadrants have one slot."""
    if i != j:
        return OFFDIAG
    if sector not in (ABOVE, BELOW):
        raise ValueError(f"diagonal quadrant needs sector above/below, got {sector!r}")
    return sector


@dataclass(frozen=True)
class StarConfig:
    """Problem instance: edge count n >= 3, coupling c, energy fixed to 1."""

    n: int
    c: float

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"need at least 3 edges, got n={self.n}")
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
        if not 0.0 <= k1 <= 1.0:
            raise ValueError(f"real momentum must lie in [0, 1], got {k1}")
        return cls(complex(k1), complex(math.sqrt(max(0.0, 1.0 - k1 * k1))))

    @property
    def fold(self) -> float:
        """Fold momentum min(k1, k2) of a real pair."""
        return min(self.k1.real, self.k2.real)

    def swapped(self) -> "MomentumPair":
        return MomentumPair(self.k2, self.k1)


def near_pole(k):
    """True where k lies within MARGIN of the pole; elementwise on arrays."""
    return np.abs(np.asarray(k) - POLE) < MARGIN


def check_fold(k) -> None:
    """Raise unless 0 <= k < 1/sqrt(2), for every entry of an array."""
    k_arr = np.asarray(k)
    if not np.all((0.0 <= k_arr) & (k_arr < POLE)):
        raise ValueError(f"fold momentum must lie in [0, 1/sqrt(2)), got {k}")


class AmplitudeTensor:
    """Plane-wave coefficient table of a piecewise-analytic wavefunction.

    Entries map :data:`EntryKey` to a complex amplitude.  Evaluation at a
    point sums all entries matching the point's quadrant and sector; the
    sum is linear in the entries.  Instances are immutable after
    construction.
    """

    __slots__ = ("_blocks", "_arrays")

    def __init__(self, entries: Mapping[EntryKey, complex] | Iterable[tuple[EntryKey, complex]] = ()):
        blocks: dict[tuple[int, int, str], dict[tuple[int, int, int], complex]] = {}
        items = entries.items() if isinstance(entries, Mapping) else entries
        for (i, j, sector, sig, tau, slot), amp in items:
            amp = complex(amp)
            if amp == 0:
                continue
            sector = canonical_sector(i, j, sector)
            if sig not in (-1, 1) or tau not in (-1, 1) or slot not in (1, 2):
                raise ValueError(f"bad sign/slot key ({sig}, {tau}, {slot})")
            block = blocks.setdefault((i, j, sector), {})
            block[(sig, tau, slot)] = block.get((sig, tau, slot), 0j) + amp
        self._blocks = {key: blk for key, blk in blocks.items() if any(v != 0 for v in blk.values())}
        # evaluation arrays are built eagerly so instances never mutate
        # after construction (safe to share across threads)
        self._arrays: dict[tuple[int, int, str], tuple] = {}
        for key, block in self._blocks.items():
            keys = sorted(block)
            self._arrays[key] = (
                np.array([block[k] for k in keys], dtype=complex),
                np.array([k[0] for k in keys], dtype=float),
                np.array([k[1] for k in keys], dtype=float),
                np.array([k[2] == 1 for k in keys], dtype=bool),
            )

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls) -> "AmplitudeTensor":
        return cls()

    @classmethod
    def combine(cls, terms: Iterable[tuple[complex, "AmplitudeTensor"]]) -> "AmplitudeTensor":
        """Linear combination sum(coeff * tensor) as a new tensor."""
        acc: dict[EntryKey, complex] = {}
        for coeff, tensor in terms:
            if coeff == 0:
                continue
            for key, amp in tensor.items():
                acc[key] = acc.get(key, 0j) + coeff * amp
        return cls(acc)

    def __add__(self, other: "AmplitudeTensor") -> "AmplitudeTensor":
        return AmplitudeTensor.combine([(1.0, self), (1.0, other)])

    def __sub__(self, other: "AmplitudeTensor") -> "AmplitudeTensor":
        return AmplitudeTensor.combine([(1.0, self), (-1.0, other)])

    def with_scaled_entry(self, key: EntryKey, factor: complex) -> "AmplitudeTensor":
        """Copy with a single amplitude multiplied by ``factor`` (mutation tests)."""
        i, j, sector, sig, tau, slot = key
        sector = canonical_sector(i, j, sector)
        norm = (i, j, sector, sig, tau, slot)
        entries = dict(self.items())
        if norm not in entries:
            raise KeyError(f"no amplitude stored at {norm}")
        entries[norm] = entries[norm] * factor
        return AmplitudeTensor(entries)

    # -- inspection ------------------------------------------------------------

    def items(self) -> Iterator[tuple[EntryKey, complex]]:
        for (i, j, sector), block in sorted(self._blocks.items()):
            for (sig, tau, slot), amp in sorted(block.items()):
                yield (i, j, sector, sig, tau, slot), amp

    def __len__(self) -> int:
        return sum(len(b) for b in self._blocks.values())

    def support(self) -> list[tuple[int, int, str]]:
        return sorted(self._blocks)

    def get(self, i: int, j: int, sector: str, sig: int, tau: int, slot: int) -> complex:
        block = self._blocks.get((i, j, canonical_sector(i, j, sector)))
        if not block:
            return 0j
        return block.get((sig, tau, slot), 0j)

    def to_rows(self) -> list[dict]:
        """Flat serialisable amplitude table."""
        rows = []
        for (i, j, sector, sig, tau, slot), amp in self.items():
            rows.append(
                {
                    "quadrant": [i, j],
                    "sector": sector,
                    "sig": sig,
                    "tau": tau,
                    "assignment": [slot, 3 - slot],
                    "re": amp.real,
                    "im": amp.imag,
                }
            )
        return rows

    @classmethod
    def from_rows(cls, rows: Iterable[Mapping]) -> "AmplitudeTensor":
        entries = {}
        for row in rows:
            i, j = row["quadrant"]
            key = (int(i), int(j), row["sector"], int(row["sig"]), int(row["tau"]), int(row["assignment"][0]))
            entries[key] = entries.get(key, 0j) + complex(row["re"], row["im"])
        return cls(entries)

    # -- evaluation ------------------------------------------------------------

    def _momenta(self, key, m: MomentumPair):
        arrays = self._arrays.get(key)
        if arrays is None:
            return None
        amps, sig, tau, slot1 = arrays
        kx = sig * np.where(slot1, m.k1, m.k2)
        ky = tau * np.where(slot1, m.k2, m.k1)
        return amps, kx, ky

    def value_array(self, i: int, j: int, sector: str, x, y, m: MomentumPair) -> np.ndarray:
        """Evaluate at arrays of coordinates within one quadrant/sector."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        data = self._momenta((i, j, canonical_sector(i, j, sector)), m)
        if data is None:
            return np.zeros(np.broadcast(x, y).shape, dtype=complex)
        amps, kx, ky = data
        phases = np.exp(1j * (np.multiply.outer(kx, x) + np.multiply.outer(ky, y)))
        return np.tensordot(amps, phases, axes=1)

    def derivative_array(self, i: int, j: int, sector: str, x, y, m: MomentumPair, direction: str) -> np.ndarray:
        """Exact analytic partial derivative, vectorised like value_array."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        data = self._momenta((i, j, canonical_sector(i, j, sector)), m)
        if data is None:
            return np.zeros(np.broadcast(x, y).shape, dtype=complex)
        amps, kx, ky = data
        if direction == "dx":
            pref = 1j * kx
        elif direction == "dy":
            pref = 1j * ky
        else:
            raise ValueError(f"direction must be 'dx' or 'dy', got {direction!r}")
        phases = np.exp(1j * (np.multiply.outer(kx, x) + np.multiply.outer(ky, y)))
        return np.tensordot(amps * pref, phases, axes=1)
