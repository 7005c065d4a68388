"""Two-particle product states and the full eigenbasis.

Products of two one-particle factors are expanded into sector-tagged
plane waves.  Three families span the solution space at a generic
momentum pair (k1, k2) on the unit energy shell:

* ``antisym``:   psi^i(x) psi^j(y) antisymmetrised over particle
  exchange, n^2 elements,
* ``sym_offdiag``: phi^i(x) phi^j(y) symmetrised, for index pairs at
  circular distance >= 2 so the product vanishes identically on every
  diagonal quadrant, n^2 - 3n elements,
* ``sym_diag``:  the antisymmetrised phi^i/xi product plus cosine
  correction terms with coefficients n*k_s/c tuned so that the
  derivative jump across the diagonal equals c times the boundary
  value, n elements.

Total: 2n^2 - 2n.  Each element satisfies the vertex matching in both
variables (inherited factor-wise) and the diagonal continuity and jump
conditions; the verifier module makes all of that executable.

On its own diagonal quadrant Q_ii a ``sym_diag`` element collapses to a
closed form in the rotated momenta k = (k1+k2)/2, k' = (k1-k2)/2 (see
:func:`diagonal_closed_form`); :func:`closed_form` also continues it
to complex k, and at k = i*c/2 it splits into a term decaying in
|x - y| and a term growing in x + y (:func:`complex_momentum_profile`).
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .domain import AmplitudeTensor, MomentumPair, StarConfig
from .oneparticle import (
    LARGER,
    SMALLER,
    OneParticleSolution,
    phi,
    scattering_wave,
    xi_solution,
)

FAMILIES = ("antisym", "sym_offdiag", "sym_diag")


def circular_distance(i: int, j: int, n: int) -> int:
    """Distance of edge indices as elements of Z/nZ."""
    d = abs(i - j) % n
    return min(d, n - d)


def product_tensor(
    n: int,
    fx: OneParticleSolution,
    gy: OneParticleSolution,
    assignment: tuple[int, int],
) -> AmplitudeTensor:
    """Expand fx(x, k_s) * gy(y, k_t) into sector-tagged plane waves.

    On a diagonal quadrant the branch of each factor follows its own
    variable: in the "above" sector x is the larger coordinate, so fx
    takes its larger-branch scale and gy its smaller-branch scale.
    """
    if assignment not in ((1, 2), (2, 1)):
        raise ValueError(f"assignment must be (1,2) or (2,1), got {assignment}")
    waves = np.einsum("as,bt->abst", fx.coeff, gy.coeff)  # edge a, edge b, sig, tau
    amps = np.zeros((n, n, 2, 2, 2, 2), dtype=complex)
    slot = amps[..., assignment[0] - 1]  # view: quadrant, quadrant, sector, sig, tau
    slot[:] = waves[:, :, None]
    d = np.arange(n)
    slot[d, d, 0] = fx.branch_scale(LARGER) * gy.branch_scale(SMALLER) * waves[d, d]
    slot[d, d, 1] = fx.branch_scale(SMALLER) * gy.branch_scale(LARGER) * waves[d, d]
    return AmplitudeTensor(amps)


def product_state(cfg: StarConfig, kind: tuple, assignment: tuple[int, int]) -> AmplitudeTensor:
    """Plane-wave tensor of one product state (momentum-free).

    ``kind`` is one of ``("phi_phi", i, j)`` with i, j in 0..n,
    ``("psi_psi", i, j)`` with i, j in 1..n, or
    ``("phi_xi_antisym", i)`` with i in 1..n, the latter meaning
    phi^i(x) xi(y) - xi(x) phi^i(y).
    """
    n = cfg.n
    name = kind[0]
    if name == "phi_phi":
        _, i, j = kind
        if not (0 <= i <= n and 0 <= j <= n):
            raise ValueError(f"phi indices out of range: {kind}")
        return product_tensor(n, phi(cfg, i), phi(cfg, j), assignment)
    if name == "psi_psi":
        _, i, j = kind
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"psi indices out of range: {kind}")
        return product_tensor(n, scattering_wave(cfg, i), scattering_wave(cfg, j), assignment)
    if name == "phi_xi_antisym":
        _, i = kind
        if not 1 <= i <= n:
            raise ValueError(f"index out of range: {kind}")
        xi = xi_solution(cfg)
        ph = phi(cfg, i)
        return product_tensor(n, ph, xi, assignment) - product_tensor(n, xi, ph, assignment)
    raise ValueError(f"unknown product kind {name!r}")


@dataclass(frozen=True)
class BasisElement:
    family: str
    indices: tuple
    tensor: AmplitudeTensor
    momentum: MomentumPair
    coupling: float

    @property
    def label(self) -> str:
        idx = ",".join(str(i) for i in self.indices)
        return f"{self.family}({idx})"


def cycle_completing_tensor(cfg: StarConfig) -> AmplitudeTensor:
    """The symmetric eigensolution with cyclic antisymmetric coefficients.

    sum_i (Phi^{i,i+1}_{12} + Phi^{i+1,i}_{21} - Phi^{i+1,i}_{12}
    - Phi^{i,i+1}_{21}) with indices wrapping mod n.  The antisymmetric
    coefficient pattern makes the product contributions cancel on every
    diagonal quadrant (zero diagonal after conjugating by the edge
    difference stencil), so it satisfies all boundary conditions for
    any coupling.  It is independent of both the distance->=2 products
    and the diagonal family, and it is exactly the direction lost to the
    telescoping identity sum_j phi^j = 0; folding it into the diagonal
    family restores the full 2n^2 - 2n span.
    """
    n = cfg.n
    terms = []
    for i in range(1, n + 1):
        s = 1 if i == n else i + 1
        terms += [
            (1.0, product_state(cfg, ("phi_phi", i, s), (1, 2))),
            (1.0, product_state(cfg, ("phi_phi", s, i), (2, 1))),
            (-1.0, product_state(cfg, ("phi_phi", s, i), (1, 2))),
            (-1.0, product_state(cfg, ("phi_phi", i, s), (2, 1))),
        ]
    return AmplitudeTensor.combine(terms)


def basis_template(cfg: StarConfig) -> Iterator[tuple[str, tuple, tuple[np.ndarray, ...]]]:
    """Family, indices and tables (T0, T1, T2) of every basis element, in
    basis order.  The element at (k1, k2) is T0 + (k1/c) T1 + (k2/c) T2;
    no table depends on k or c, and T1 and T2 vanish outside ``sym_diag``,
    whose coupling terms are the only momentum-dependent ones.

    The diagonal family is the phi/xi product combination plus 1/n of
    the cycle-completing solution.  Without that term the n elements sum
    to zero identically (the phi^i telescope around the cycle) and the
    family would span only n - 1 dimensions; the added solution vanishes
    on every diagonal quadrant, so the elements' diagonal behaviour,
    including the closed form on Q_ii, is untouched.
    """
    n = cfg.n
    zero = np.broadcast_to(0j, (n, n, 2, 2, 2, 2))

    def psi_psi(i, j, assignment):
        return product_state(cfg, ("psi_psi", i, j), assignment)

    def phi_phi(i, j, assignment):
        return product_state(cfg, ("phi_phi", i, j), assignment)

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            tensor = psi_psi(i, j, (1, 2)) - psi_psi(j, i, (2, 1))
            yield "antisym", (i, j), (tensor.amps, zero, zero)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if circular_distance(i, j, n) >= 2:
                tensor = phi_phi(i, j, (1, 2)) + phi_phi(j, i, (2, 1))
                yield "sym_offdiag", (i, j), (tensor.amps, zero, zero)
    completer = cycle_completing_tensor(cfg)
    for i in range(1, n + 1):
        anti_12 = product_state(cfg, ("phi_xi_antisym", i), (1, 2))
        anti_21 = product_state(cfg, ("phi_xi_antisym", i), (2, 1))
        # Coupling coefficients -n*k1/c and +n*k2/c: this is the unique
        # sign choice for which the derivative jump across the diagonal
        # equals c times the boundary value (and for which the element
        # matches diagonal_closed_form on Q_ii).
        yield "sym_diag", (i,), (
            (anti_12 - anti_21).amps + (1.0 / n) * completer.amps,
            -n * (phi_phi(0, i, (1, 2)) + phi_phi(i, 0, (2, 1))).amps,
            n * (phi_phi(0, i, (2, 1)) + phi_phi(i, 0, (1, 2))).amps,
        )


def build_basis(cfg: StarConfig, m: MomentumPair) -> list[BasisElement]:
    """All 2n^2 - 2n basis elements at the given momentum pair.

    Family cardinalities are n^2, n^2 - 3n and n.  Each element is
    T0 + (k1/c) T1 + (k2/c) T2 from :func:`basis_template`, so c != 0;
    the c -> 0 limit changes the solution space and is not taken here.
    """
    c = cfg.c
    if c == 0:
        raise ValueError("sym_diag family undefined at c = 0 (1/c coefficients)")
    if abs(m.k1 - m.k2) < 1e-12:
        warnings.warn(
            "degenerate momentum pair k1 = k2: basis may lose rank",
            stacklevel=2,
        )
    s1, s2 = m.k1 / c, m.k2 / c
    out = [
        BasisElement(family, indices, AmplitudeTensor(t0 + s1 * t1 + s2 * t2), m, c)
        for family, indices, (t0, t1, t2) in basis_template(cfg)
    ]
    assert len(out) == cfg.basis_size, len(out)
    return out


def family_counts(elements: list[BasisElement]) -> dict[str, int]:
    counts = {name: 0 for name in FAMILIES}
    for el in elements:
        counts[el.family] += 1
    return counts


def closed_form(cfg: StarConfig, k: complex, kprime: complex, x, y):
    """The sym_diag closed form on a diagonal quadrant in rotated momenta.

    With k along x + y and k' along x - y,

        n * ( sin k'|x-y| sin k(x+y) - sin k|x-y| sin k'(x+y)
              - (2k/c) cos k|x-y| sin k'(x+y)
              + (2k'/c) cos k'|x-y| sin k(x+y) ).

    Vectorised in (x, y); k and k' may be complex, which continues the
    form off the real energy shell.  Even in x - y, so both sectors of
    Q_ii share it.
    """
    if cfg.c == 0:
        raise ValueError("closed form undefined at c = 0")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    u = np.abs(x - y)
    v = x + y
    total = cfg.n * (
        np.sin(kprime * u) * np.sin(k * v)
        - np.sin(k * u) * np.sin(kprime * v)
        - (2.0 * k / cfg.c) * np.cos(k * u) * np.sin(kprime * v)
        + (2.0 * kprime / cfg.c) * np.cos(kprime * u) * np.sin(k * v)
    )
    return complex(total) if np.ndim(total) == 0 else total


def diagonal_closed_form(cfg: StarConfig, i: int, m: MomentumPair, x, y):
    """Value of the sym_diag(i) element on its own diagonal quadrant Q_ii:
    :func:`closed_form` at k = (k1+k2)/2, k' = (k1-k2)/2."""
    if not 1 <= i <= cfg.n:
        raise ValueError(f"edge index {i} out of range")
    return closed_form(cfg, (m.k1 + m.k2) / 2.0, (m.k1 - m.k2) / 2.0, x, y)


@dataclass(frozen=True)
class ComplexMomentumSample:
    """One sample of the k = i*c/2 decomposition on a diagonal quadrant."""

    x: float
    y: float
    decaying_term: complex
    growing_term: complex

    @property
    def total(self) -> complex:
        return self.decaying_term + self.growing_term


def complex_momentum_profile(
    cfg: StarConfig,
    i: int,
    kprime: float,
    samples: list[tuple[float, float]],
) -> list[ComplexMomentumSample]:
    """Evaluate the two terms of the diagonal closed form at k = i*c/2.

    Continuing k into the upper half plane makes the first term decay
    like exp(c|x-y|/2) along x - y while the bracketed second term
    rides on sinh(c(x+y)/2) and grows exponentially in x + y.  Only
    meaningful for attractive coupling, so c >= 0 is rejected.
    """
    c, n = cfg.c, cfg.n
    if c >= 0:
        raise ValueError("complex-momentum profile requires attractive coupling c < 0")
    if not 1 <= i <= n:
        raise ValueError(f"edge index {i} out of range")
    out = []
    for x, y in samples:
        u = abs(x - y)
        v = x + y
        first = 1j * n * (-cmath.exp(0.5 * c * u) * cmath.sin(kprime * v))
        bracket = (2.0 * kprime / c) * cmath.cos(kprime * u) + cmath.sin(kprime * u)
        second = 1j * n * bracket * cmath.sinh(0.5 * c * v)
        out.append(ComplexMomentumSample(x=x, y=y, decaying_term=first, growing_term=second))
    return out
