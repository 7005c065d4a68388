"""One-particle solutions on the star graph.

Every solution here solves -f'' = k^2 f on each edge and satisfies the
standard vertex matching (common value at the vertex, outgoing
derivatives summing to zero).  They are stored as per-edge coefficient
pairs (a_l, b_l) for exp(-1j*k*x) and exp(+1j*k*x):

* scattering waves: unit incoming wave on edge i, scattered by the
  vertex matrix S = 2P - I with P the rank-one projection onto
  (1, ..., 1)^t; this is the unique vertex-compatible solution with
  unit incoming amplitude,
* phi^0 = (1/2) * sum_j psi^j, which collapses to cos(k x) on every
  edge, and phi^j = (1/(2i)) * (psi^j - psi^{j+1}) for j = 1..n
  (indices wrap mod n), equal to -sin on edge j and +sin on edge j+1;
  :func:`phi` builds both,
* xi, a sine wave whose amplitude jumps across the diagonal of the
  two-particle configuration space.

xi is one-particle data with a two-particle branch rule: evaluated in a
diagonal quadrant it is sin(k x) when its own variable is the larger of
the pair and (1 - n) sin(k x) when it is the smaller; off the diagonal
quadrants it is plain sin(k x).  (The mirrored rule for the second
particle is what makes the vertex derivative sums cancel: at x = 0 the
diagonal quadrant is always in the "smaller" branch, contributing
(1 - n) k against k from each of the n - 1 off-diagonal quadrants.)
A solution carries the rule as two branch scales, and
:func:`~stardelta.basis.product_tensor` applies them when it expands a
product of two factors into sector-tagged plane waves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import StarConfig

# Branch of a solution relative to the diagonal cut: is its own variable
# the larger or the smaller coordinate of the pair?  Off-diagonal
# quadrants are untagged.
LARGER = "larger"
SMALLER = "smaller"
NEUTRAL = "off"

_SIN = (0.5j, -0.5j)   # sin(kx) = (i/2) e^{-ikx} - (i/2) e^{ikx}
_COS = (0.5, 0.5)


EDGE = "edge"          # physical basis: P is dense, diagonal entries are Q_ii
SPECTRAL = "spectral"  # S-eigenbasis: S = diag(1, -1, ..., -1)


def s_matrix(n: int, basis: str = EDGE) -> np.ndarray:
    """The vertex scattering matrix S = 2P - I, P = (1/n) * ones((n, n))."""
    if basis == EDGE:
        return 2.0 / n * np.ones((n, n)) - np.eye(n)
    if basis == SPECTRAL:
        d = -np.ones(n)
        d[0] = 1.0
        return np.diag(d)
    raise ValueError(f"unknown basis {basis!r}")


@dataclass(frozen=True)
class OneParticleSolution:
    """Per-edge plane-wave coefficients with an optional branch scale.

    ``coeff[l] = (a_l, b_l)`` are the amplitudes of exp(-1j k x) and
    exp(+1j k x) on edge l+1.  ``scale_larger`` / ``scale_smaller``
    multiply the whole solution depending on the branch tag; both are 1
    except for xi.  A leading axis, shape (B, n, 2), stacks B solutions
    that share the branch scales, for products built B at a time.
    """

    coeff: np.ndarray
    scale_larger: float = 1.0
    scale_smaller: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "coeff", np.asarray(self.coeff, dtype=complex))
        self.coeff.setflags(write=False)

    @property
    def n(self) -> int:
        return self.coeff.shape[-2]

    def branch_scale(self, branch: str) -> float:
        if branch == LARGER:
            return self.scale_larger
        if branch == SMALLER:
            return self.scale_smaller
        if branch == NEUTRAL:
            return 1.0
        raise ValueError(f"unknown branch {branch!r}")


def scattering_wave(cfg: StarConfig, i: int) -> OneParticleSolution:
    """Unit incoming wave on edge i plus outgoing S_{il} e^{ikx} on edge l."""
    n = cfg.n
    if not 1 <= i <= n:
        raise ValueError(f"edge index {i} out of range 1..{n}")
    S = s_matrix(n)
    coeff = np.zeros((n, 2), dtype=complex)
    coeff[i - 1, 0] = 1.0
    coeff[:, 1] = S[:, i - 1]
    return OneParticleSolution(coeff)


def xi_solution(cfg: StarConfig) -> OneParticleSolution:
    """Sine wave with amplitude (1 - n) on the branch whose variable is smaller."""
    coeff = np.tile(np.array(_SIN, dtype=complex), (cfg.n, 1))
    return OneParticleSolution(coeff, scale_smaller=float(1 - cfg.n))


def phi(cfg: StarConfig, i: int) -> OneParticleSolution:
    """phi^i for i in 0..n: phi^0 is half the sum of all scattering waves,
    cos(kx) on every edge; phi^j is (1/2i)(psi^j - psi^{j+1}), -sin on
    edge j and +sin on edge j+1 (wrapping)."""
    n = cfg.n
    if not 0 <= i <= n:
        raise ValueError(f"phi index {i} out of range 0..{n}")
    if i == 0:
        return OneParticleSolution(np.tile(np.array(_COS, dtype=complex), (n, 1)))
    coeff = np.zeros((n, 2), dtype=complex)
    coeff[i - 1] = (-_SIN[0], -_SIN[1])
    coeff[i % n] = _SIN
    return OneParticleSolution(coeff)
