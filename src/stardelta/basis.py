"""Two-particle products and the full eigenbasis.

Every basis element is a sum of products of one-particle solutions,
each product symmetrised or antisymmetrised over particle exchange:
:func:`product_tensor`, the only product constructor, expands
S+-(f, g) = f(x) g(y) +- g(x) f(y) into sector-tagged plane waves, and
:func:`family_rows` builds a family of them over index pairs.
Three families span the solution space at a generic momentum pair
(k1, k2) on the unit energy shell:

* ``antisym``:   S-(psi^i, psi^j), n^2 elements,
* ``sym_offdiag``: S+(phi^i, phi^j) for index pairs at circular
  distance >= 2, so the product vanishes identically on every diagonal
  quadrant, n^2 - 3n elements,
* ``sym_diag``:  S+(phi^i, xi) - S+(xi, phi^i) plus cosine correction
  terms S+(phi^0, phi^i), S+(phi^i, phi^0) with coefficients n*k_s/c
  tuned so that the derivative jump across the diagonal equals c times
  the boundary value, n elements.

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
import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domain import (ABOVE, BELOW, AmplitudeTensor, MomentumPair, Refusal, StarConfig, cell, cell_keys, check_pole,
                     exchange_image, table_parts, table_shape)
from .oneparticle import (
    LARGER,
    SMALLER,
    OneParticleSolution,
    phi,
    scattering_wave,
    xi_solution,
)

FAMILIES = ("antisym", "sym_offdiag", "sym_diag")
# each family's sign under particle exchange: psi(y, x) = sign * psi(x, y)
EXCHANGE_SIGN = {"antisym": -1.0, "sym_offdiag": 1.0, "sym_diag": 1.0}


def circular_distance(i: int, j: int, n: int) -> int:
    """Distance of edge indices as elements of Z/nZ."""
    d = abs(i - j) % n
    return min(d, n - d)


def product_tensor(f: OneParticleSolution, g: OneParticleSolution, sign: float) -> AmplitudeTensor:
    """Expand f(x) g(y) + sign * g(x) f(y) into sector-tagged plane waves.

    Slot 1 holds f(x, k1) g(y, k2), the product with x carrying k1; slot 2
    holds its exchange image g(x, k2) f(y, k1), times ``sign``, written by
    :func:`~stardelta.domain.exchange_image`, the map the rank checks
    parity with.  On a diagonal quadrant the branch of each factor follows
    its own variable: in the "above" sector x is the larger coordinate,
    so the factor of x takes its larger-branch scale and the factor of y
    its smaller-branch scale.  The edge count is the factors' own.  Stacked
    factors give a stack of products, row by row; a single factor pairs
    with every row of a stacked one.
    """
    n = f.n
    waves = np.einsum("...as,...bt->...abst", f.coeff, g.coeff)  # edge a, edge b, sig, tau
    half = np.zeros(waves.shape[:-4] + table_shape(n), dtype=complex)
    slot1 = half[..., 0]  # a view: row, cell, sig, tau
    i, j, _below = cell_keys(n)
    slot1[...] = waves[..., i - 1, j - 1, :, :]
    d = np.arange(1, n + 1)
    on_diag = waves[..., d - 1, d - 1, :, :]
    slot1[..., d - 1, cell(d, d, ABOVE), :, :] = f.branch_scale(LARGER) * g.branch_scale(SMALLER) * on_diag
    slot1[..., d - 1, cell(d, d, BELOW), :, :] = f.branch_scale(SMALLER) * g.branch_scale(LARGER) * on_diag
    amps = exchange_image(half)  # a new array: sign times it, plus slot 1, in place
    amps *= sign
    amps += half
    amps.setflags(write=False)
    return AmplitudeTensor(amps)


@dataclass(frozen=True)
class BasisElement:
    """One element of a basis: row ``row`` of the basis's stacked tables."""

    family: str
    indices: tuple
    stack: AmplitudeTensor
    row: int
    momentum: MomentumPair
    coupling: float

    @functools.cached_property
    def tensor(self) -> AmplitudeTensor:
        """The element's own table, a read-only view of its row."""
        return AmplitudeTensor(self.stack.amps[self.row])

    @property
    def label(self) -> str:
        idx = ",".join(str(i) for i in self.indices)
        return f"{self.family}({idx})"


def family_rows(factors: np.ndarray, pairs, sign: float) -> Callable[[slice], np.ndarray]:
    """The rows S+-(f^i, f^j) of the index pairs (i, j) into the stacked
    one-particle coefficients ``factors``, as a function of a slice of the
    pairs that builds that slice's rows as one :func:`product_tensor`."""
    ij = np.array(pairs, dtype=int).reshape(-1, 2)
    return lambda part: product_tensor(OneParticleSolution(factors[ij[part, 0]]),
                                       OneParticleSolution(factors[ij[part, 1]]), sign).amps


def cycle_completing_tensor(cfg: StarConfig, phis: np.ndarray) -> AmplitudeTensor:
    """The symmetric eigensolution with cyclic antisymmetric coefficients.

    sum_i S+(phi^i, phi^{i+1}) - S+(phi^{i+1}, phi^i) with indices wrapping
    mod n, where S+(f, g) = f(x) g(y) + g(x) f(y).  The antisymmetric
    coefficient pattern makes the product contributions cancel on every
    diagonal quadrant (zero diagonal after conjugating by the edge
    difference stencil), so it satisfies all boundary conditions for
    any coupling.  It is independent of both the distance->=2 products
    and the diagonal family, and it is exactly the direction lost to the
    telescoping identity sum_j phi^j = 0; folding it into the diagonal
    family restores the full 2n^2 - 2n span.  Both orientations are one
    :func:`family_rows` stack over the 2n pairs; the sum is exact in any
    order, since every entry of S+(phi^i, phi^j) is 0, +-1/4 or +-1/2.
    ``phis`` are the stacked coefficients of phi^1..phi^n.
    """
    forward = np.stack([np.arange(cfg.n), np.roll(np.arange(cfg.n), -1)], axis=1)  # (i, i+1)
    rows = family_rows(phis, np.concatenate([forward, forward[:, ::-1]]), 1)(slice(None))
    return AmplitudeTensor((rows[:cfg.n] - rows[cfg.n:]).sum(axis=0))


def basis_heads(n: int) -> list[tuple[str, tuple]]:
    """Family and indices of every basis element of an n-edge star, in
    basis order: ``antisym`` (i, j) for every index pair, ``sym_offdiag``
    (i, j) for the pairs at circular distance >= 2, ``sym_diag`` (i,)."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    return ([("antisym", ij) for ij in pairs]
            + [("sym_offdiag", ij) for ij in pairs if circular_distance(*ij, n) >= 2]
            + [("sym_diag", (i,)) for i in range(1, n + 1)])


def _template_rows(cfg: StarConfig) -> tuple[list[tuple[str, tuple]], dict[str, np.ndarray], Callable, Callable]:
    """Family and indices of every basis element, in basis order, the
    stacked one-particle factors f^1..f^n of each product family, and two
    row builders of the tables of :func:`basis_template`: the T0 rows of
    any slice of consecutive basis rows, and (T1, T2) of any slice of the
    ``sym_diag`` family.  Each one-particle factor is built once; each row
    is built alone, so it comes out the same bits in any slice."""
    n = cfg.n
    psis = np.stack([scattering_wave(cfg, i).coeff for i in range(1, n + 1)])
    phis = np.stack([phi(cfg, i).coeff for i in range(n + 1)])
    xi = xi_solution(cfg)
    heads = basis_heads(n)
    pairs = [ij for family, ij in heads if family == "antisym"]
    far = [ij for family, ij in heads if family == "sym_offdiag"]
    completer = (1.0 / n) * cycle_completing_tensor(cfg, phis[1:]).amps
    diag = np.arange(1, n + 1)

    def sym_diag(part):
        f = OneParticleSolution(phis[diag[part]])
        return product_tensor(f, xi, 1).amps - product_tensor(xi, f, 1).amps + completer

    # psis[0] is psi^1, phis[0] is phi^0
    families = (family_rows(psis, np.subtract(pairs, 1), -1), family_rows(phis, far, 1), sym_diag)
    bounds = np.cumsum([0, len(pairs), len(far), n]).tolist()

    def t0_rows(part: slice) -> np.ndarray:
        start, stop, _ = part.indices(len(heads))
        out = np.empty((max(0, stop - start),) + table_shape(n), dtype=complex)
        for rows, lo, hi in zip(families, bounds, bounds[1:]):
            first, last = max(start, lo), min(stop, hi)
            for chunk in table_parts(last - first, out[0].size):
                a, b = first + chunk.start, min(first + chunk.stop, last)
                out[a - start:b - start] = rows(slice(a - lo, b - lo))
        return out

    # Coupling coefficients -n*k1/c and +n*k2/c: this is the unique
    # sign choice for which the derivative jump across the diagonal
    # equals c times the boundary value (and for which the element
    # matches diagonal_closed_form on Q_ii).
    phi0 = OneParticleSolution(phis[0])

    def coupling(part: slice) -> tuple[np.ndarray, np.ndarray]:
        rest = OneParticleSolution(phis[1:][part])
        return -n * product_tensor(phi0, rest, 1).amps, n * product_tensor(rest, phi0, 1).amps

    return heads, {"antisym": psis, "sym_offdiag": phis[1:]}, t0_rows, coupling


def basis_template(cfg: StarConfig) -> tuple[list[tuple[str, tuple]], np.ndarray, np.ndarray, np.ndarray]:
    """Family and indices of every basis element, in basis order, with the
    tables (T0, T1, T2) the elements are built from.  The element at
    (k1, k2) is T0 + (k1/c) T1 + (k2/c) T2; no table depends on k or c,
    and T1 and T2 vanish outside ``sym_diag``, whose coupling terms are
    the only momentum-dependent ones.  So T0 is one stacked table of every
    element, while T1 and T2 hold the n ``sym_diag`` rows only, which are
    the last n rows of T0.

    Each family is written into T0 one :func:`~stardelta.domain.table_parts`
    slice of rows at a time, ``antisym`` and ``sym_offdiag`` by
    :func:`family_rows`.
    ``sym_diag(i)`` has T0 = S+(phi^i, xi) - S+(xi, phi^i) plus 1/n of
    the cycle-completing solution, T1 = -n S+(phi^0, phi^i) and
    T2 = n S+(phi^i, phi^0).
    Without the cycle-completing term the n elements sum to zero
    identically (the phi^i telescope around the cycle) and the family
    would span only n - 1 dimensions; the added solution vanishes on
    every diagonal quadrant, so the elements' diagonal behaviour,
    including the closed form on Q_ii, is untouched.
    """
    heads, _factors, t0_rows, coupling = _template_rows(cfg)
    return (heads, t0_rows(slice(None))) + coupling(slice(None))


def coupling_overflows(cfg: StarConfig) -> bool:
    """True when c != 0 is so small that the 1/c terms of the tables
    overflow: their entries reach n/(4|c|) (n times a product of phi^0 and
    phi^i), and the jump check adds two values of eight waves each, so
    16n/(4|c|) must stay below the largest float."""
    return cfg.c != 0 and abs(cfg.c) < 4 * cfg.n / np.finfo(float).max


def check_coupling_scale(cfg: StarConfig) -> None:
    """Raise at c = 0, where the 1/c terms of the tables are undefined, and
    where :func:`coupling_overflows`."""
    if cfg.c == 0:
        raise Refusal("sym_diag family undefined at c = 0 (1/c coefficients)", "c=0")
    if coupling_overflows(cfg):
        raise Refusal(f"coupling c = {cfg.c} is too small at n = {cfg.n}: the 1/c terms of the basis "
                      f"tables would overflow (need |c| >= {4 * cfg.n / np.finfo(float).max:.3g})", "overflow")


def build_basis(cfg: StarConfig, m: MomentumPair) -> list[BasisElement]:
    """All 2n^2 - 2n basis elements at the given momentum pair.

    The elements' tables are the rows of one stacked table, in basis
    order, the rows :func:`basis_rows` builds.  Family cardinalities are
    n^2, n^2 - 3n and n.
    """
    return basis_rows(cfg, m)[2](slice(None))


def basis_rows(cfg: StarConfig, m: MomentumPair) -> tuple[list[tuple[str, tuple]], dict[str, np.ndarray],
                                                          Callable[[slice], list[BasisElement]]]:
    """The basis at the given momentum pair, built a slice of rows at a time.

    Gives the family and indices of every element, in basis order; the
    one-particle factors f^1..f^n that build each product family
    (``antisym`` from psi^i, ``sym_offdiag`` from phi^i), stacked; and a
    function that builds the elements of any slice of consecutive basis
    rows, as the rows of one new read-only stacked table of their own.
    Each element is T0 + (k1/c) T1 + (k2/c) T2 from :func:`basis_template`,
    so c != 0; the c -> 0 limit changes the solution space and is not
    taken here, and a |c| at which those terms overflow is refused, before
    any row.  A fold momentum in the pole zone is refused like everywhere
    else.  Each row comes out the same bits however the rows are sliced.
    """
    check_coupling_scale(cfg)
    check_pole(m.fold, cfg.c)
    heads, factors, t0_rows, coupling = _template_rows(cfg)
    first = len(heads) - cfg.n  # only the sym_diag rows, the last n, have coupling terms

    def elements(part: slice) -> list[BasisElement]:
        start, stop, _ = part.indices(len(heads))
        amps = t0_rows(part)
        if stop > first:
            lo = max(start, first)
            diag = amps[lo - start:]
            t1, t2 = coupling(slice(lo - first, stop - first))
            diag += (m.k1 / cfg.c) * t1
            diag += (m.k2 / cfg.c) * t2
        amps.setflags(write=False)
        stack = AmplitudeTensor(amps)
        return [BasisElement(family, indices, stack, row, m, cfg.c)
                for row, (family, indices) in enumerate(heads[start:stop])]

    return heads, factors, elements


def family_counts(heads) -> dict[str, int]:
    """The number of elements of each family among basis elements, or among
    (family, indices) heads."""
    families = [head[0] if isinstance(head, tuple) else head.family for head in heads]
    return {name: families.count(name) for name in FAMILIES}


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


def diagonal_closed_form(cfg: StarConfig, m: MomentumPair, x, y):
    """Value of every sym_diag(i) element on its own diagonal quadrant Q_ii:
    :func:`closed_form` at k = (k1+k2)/2, k' = (k1-k2)/2."""
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


def complex_momentum_profile(cfg: StarConfig, kprime: float, samples: list[tuple[float, float]]) -> list[ComplexMomentumSample]:
    """Evaluate the two terms of the diagonal closed form at k = i*c/2.

    Continuing k into the upper half plane makes the first term decay
    like exp(c|x-y|/2) along x - y while the bracketed second term
    rides on sinh(c(x+y)/2) and grows exponentially in x + y.  Only
    meaningful for attractive coupling, so c >= 0 is rejected.
    """
    c, n = cfg.c, cfg.n
    if c >= 0:
        raise ValueError("complex-momentum profile requires attractive coupling c < 0")
    out = []
    for x, y in samples:
        u = abs(x - y)
        v = x + y
        first = 1j * n * (-cmath.exp(0.5 * c * u) * cmath.sin(kprime * v))
        bracket = (2.0 * kprime / c) * cmath.cos(kprime * u) + cmath.sin(kprime * u)
        second = 1j * n * bracket * cmath.sinh(0.5 * c * v)
        out.append(ComplexMomentumSample(x=x, y=y, decaying_term=first, growing_term=second))
    return out
