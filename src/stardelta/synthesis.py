"""Quadrature synthesis of genuine square-integrable eigenfunctions.

Eigenfunctions with L2 momentum profiles are integrals over the fold
interval [0, 1/sqrt(2)] of coefficient functions times the basis
elements at each momentum.  A Gauss-Legendre rule turns that into a
finite superposition; every node contributes an exact solution, so the
vertex and diagonal conditions are inherited exactly (the quadrature
error lives only in the distance to the true integral, which the
refinement study measures).

Every basis element is T0 + (k1/c) T1 + (k2/c) T2 over momentum-free
tables, so the superposition is one contraction of profile times weight
with those tables: one amplitude table per node, P tables evaluated as
one sum of 8P plane waves by :func:`~stardelta.domain.plane_wave_sum`,
which streams the waves in blocks at many points and shares a phase
table between sums at the same points.

Basic solutions work the same way from a kernel element of the vertex
condition system: those satisfy the vertex matching at every momentum
but generically violate the diagonal jump, which is their defining
property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .basis import basis_template, check_coupling_scale
from .domain import (
    ABOVE,
    BELOW,
    MARGIN,
    OFFDIAG,
    POLE,
    StarConfig,
    check_fold,
    near_pole,
    partner_momentum,
    plane_wave_sum,
    wave_momenta,
)
from .transforms import basic_solution_tensor
from .verifier import gauss_legendre, kronecker_points, profile_values


# ---------------------------------------------------------------------------
# coefficient profiles


def gaussian_bump(center: float, width: float, amplitude: float = 1.0) -> Callable:
    if not width > 0:
        raise ValueError(f"gaussian width must be positive, got {width}")

    def g(k):
        k = np.asarray(k, dtype=float)
        return amplitude * np.exp(-0.5 * ((k - center) / width) ** 2)

    return g


def polynomial_profile(coeffs: Sequence[float]) -> Callable:
    def g(k):
        return np.polynomial.polynomial.polyval(np.asarray(k, dtype=float), list(coeffs))

    return g


def indicator_profile(lo: float, hi: float) -> Callable:
    def g(k):
        k = np.asarray(k, dtype=float)
        return ((k >= lo) & (k <= hi)).astype(float)

    return g


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        check_fold(self.nodes)
        if np.any(near_pole(self.nodes)):
            raise ValueError(
                f"quadrature nodes must stay inside [0, 1/sqrt(2) - {MARGIN:g}] "
                "(coupling scalar pole at the fold endpoint)"
            )

    @property
    def count(self) -> int:
        return self.nodes.size


def gauss_rule(count: int) -> QuadratureRule:
    """Gauss-Legendre rule on the fold interval less the margins,
    [MARGIN, 1/sqrt(2) - MARGIN]."""
    if count < 1:
        raise ValueError(f"a quadrature rule needs at least one node, got {count}")
    return QuadratureRule(*gauss_legendre(count, MARGIN, POLE - MARGIN))


def _profile_on(profile: Callable, nodes: np.ndarray) -> np.ndarray:
    """Evaluate a coefficient profile on a node grid, one value per node;
    refuses a profile that is not finite, or vanishes at every node."""
    values = profile_values(profile, nodes)
    if not np.all(np.isfinite(values)) or not np.any(values):
        raise ValueError("profile must be finite and not vanish at every quadrature node")
    return values


# ---------------------------------------------------------------------------
# synthesised solutions

# the columns of SynthesizedSolution.grid_rows
GRID_HEADER = ["quadrant_i", "quadrant_j", "sector", "x", "y", "re", "im"]


def check_grid(span: float, step: float) -> None:
    """Raise unless a grid of ``grid_rows`` has a positive step and a
    non-negative, finite span."""
    if not (step > 0 and 0.0 <= span < np.inf):
        raise ValueError(f"grid step must be positive and span non-negative and finite, got step={step}, span={span}")


class SynthesizedSolution:
    """Quadrature superposition: one weighted amplitude table per node.

    ``amps`` stacks the tables of P nodes, shape (P, n, n, 2, 2, 2, 2), and
    node p sits at the pair (k1[p], sqrt(1 - k1[p]^2)).  The stack is kept
    as one (n, n, 2, 8P) wave table and evaluated like AmplitudeTensor, as
    one sum of 8P waves, so all verifier checks apply unchanged.
    ``rebuild`` re-synthesises at a different node count for refinement
    studies.
    """

    def __init__(
        self,
        amps,
        k1,
        rebuild: Callable[[int], "SynthesizedSolution"] | None = None,
        node_count: int = 0,
    ):
        amps, k1 = np.asarray(amps, dtype=complex), np.asarray(k1, dtype=float)[:, None]
        # one wave axis, node-major like the momenta: shape (n, n, 2, 8P)
        self.amps = amps.transpose(1, 2, 3, 0, 4, 5, 6).reshape(amps.shape[1:4] + (-1,))
        kx, ky = wave_momenta(k1, partner_momentum(k1))
        self.kx, self.ky = kx.reshape(-1), ky.reshape(-1)
        self.n = self.amps.shape[0]
        self.rebuild = rebuild
        self.node_count = node_count

    def value_array(self, i, j, sector, x, y):
        return plane_wave_sum(self.amps, self.kx, self.ky, i, j, sector, x, y)

    def derivative_array(self, i, j, sector, x, y, direction):
        return plane_wave_sum(self.amps, self.kx, self.ky, i, j, sector, x, y, direction)

    # -- export ---------------------------------------------------------------

    def grid_rows(self, span: float, step: float) -> list[list]:
        """Gridded values over every quadrant and sector for external
        plotting, one row per point in the column order of ``GRID_HEADER``.

        Two sums give every value: the above plane of all quadrants and
        the below plane of the diagonal ones, at the same grid points.
        """
        check_grid(span, step)
        coords = np.arange(0.0, span + 1e-12, step)
        rows = []
        xs, ys = np.meshgrid(coords, coords, indexing="ij")
        flat_x, flat_y = xs.reshape(-1), ys.reshape(-1)
        edges = np.arange(1, self.n + 1)
        above = self.value_array(edges[:, None, None], edges[None, :, None], ABOVE, flat_x, flat_y)
        below = self.value_array(edges[:, None], edges[:, None], BELOW, flat_x, flat_y)
        for i in range(1, self.n + 1):
            for j in range(1, self.n + 1):
                planes = [(ABOVE if i == j else OFFDIAG, above[i - 1, j - 1])]
                if i == j:
                    planes.append((BELOW, below[i - 1]))
                for sector, vals in planes:
                    rows += [[i, j, sector, float(x), float(y), float(v.real), float(v.imag)]
                             for x, y, v in zip(flat_x, flat_y, vals)]
        return rows


def synthesize_eigensolution(
    cfg: StarConfig,
    profiles: Mapping[int, Callable],
    rule: QuadratureRule,
) -> SynthesizedSolution:
    """Superpose basis elements with momentum profiles over the fold interval.

    ``profiles`` maps basis-element positions (index into build_basis
    output) to coefficient functions g_i(k).  Boundary conditions hold
    exactly at any node count; refinement only tightens the distance to
    the true integral.  A profile that is not finite, or vanishes at every
    node of a rule, is refused at that rule, and so are c = 0 and a c whose
    tables overflow, as in ``build_basis``.
    """
    check_coupling_scale(cfg)
    if not profiles:
        raise ValueError("need at least one coefficient profile")
    size = cfg.basis_size
    for idx in profiles:
        if not 0 <= idx < size:
            raise ValueError(f"basis index {idx} out of range 0..{size - 1}")
    heads, t0, t1, t2 = basis_template(cfg)
    rows = np.array(sorted(profiles))
    diag = rows - (len(heads) - cfg.n)  # the row in T1, T2 of a sym_diag element, < 0 elsewhere
    coupled = diag >= 0
    # (profiled element, T0/T1/T2, table), in element order
    template = np.zeros((len(rows), 3) + t0.shape[1:], dtype=complex)
    template[:, 0] = t0[rows]
    template[coupled, 1] = t1[diag[coupled]]
    template[coupled, 2] = t2[diag[coupled]]

    def assemble(count: int) -> SynthesizedSolution:
        r = rule if count == rule.count else gauss_rule(count)
        k2 = partner_momentum(r.nodes)
        values = np.array([_profile_on(profiles[idx], r.nodes) for idx in sorted(profiles)])
        # weight * profile * (1, k1/c, k2/c) per profile, template and node
        coeff = r.weights * values[:, None] * np.array([np.ones_like(k2), r.nodes / cfg.c, k2 / cfg.c])
        amps = np.einsum("etp,et...->p...", coeff, template)
        return SynthesizedSolution(amps, r.nodes, rebuild=assemble, node_count=r.count)

    return assemble(rule.count)


def synthesize_basic_solution(
    cfg: StarConfig,
    chi_hat: np.ndarray,
    chi_check: np.ndarray,
    tau_sign: int,
    profile: Callable,
    rule: QuadratureRule,
) -> SynthesizedSolution:
    """Superpose a vertex-condition kernel element over momentum.

    The plane-wave pattern is momentum-independent, so the stack is one
    tensor scaled by each node's quadrature and profile weight.  The
    result passes the vertex checks and, for a generic kernel element
    with c != 0, fails the diagonal jump check.  The pair must be n x n
    for the config's n.
    """
    if np.shape(chi_hat) != (cfg.n, cfg.n) or np.shape(chi_check) != (cfg.n, cfg.n):
        raise ValueError(f"need a {cfg.n} x {cfg.n} kernel pair, got {np.shape(chi_hat)} and {np.shape(chi_check)}")
    base = basic_solution_tensor(chi_hat, chi_check, tau_sign)

    def assemble(count: int) -> SynthesizedSolution:
        r = rule if count == rule.count else gauss_rule(count)
        amps = np.multiply.outer(r.weights * _profile_on(profile, r.nodes), base.amps)
        return SynthesizedSolution(amps, r.nodes, rebuild=assemble, node_count=r.count)

    return assemble(rule.count)


@dataclass(frozen=True)
class ConvergenceRecord:
    coarse_nodes: int
    fine_nodes: int
    max_change: float
    sample_count: int


REFINE_SAMPLES = 60  # compared points, spread evenly over the n^2 quadrants
REFINE_FACTOR = 2  # the refined rule has this many times the nodes


def refine_quadrature(sol: SynthesizedSolution) -> ConvergenceRecord:
    """Empirical quadrature error: max pointwise change under node refinement."""
    if sol.rebuild is None:
        raise ValueError("solution does not carry a rebuild recipe")
    fine = sol.rebuild(sol.node_count * REFINE_FACTOR)
    n = sol.n
    per = max(1, REFINE_SAMPLES // (n * n))
    edges = np.arange(1, n + 1)
    flat = edges[:, None] * n + edges  # i*n + j per quadrant
    xs = kronecker_points(per, offset=13 * flat, hi=8.0)
    ys = kronecker_points(per, offset=29 * flat + 7, hi=8.0)

    def change(i, j, sector, x, y) -> float:
        return float(np.max(np.abs(sol.value_array(i, j, sector, x, y) - fine.value_array(i, j, sector, x, y))))

    # the above plane covers every quadrant, the below plane the diagonal ones
    d = edges - 1
    worst = max(
        change(edges[:, None, None], edges[None, :, None], ABOVE, xs, ys),
        change(edges[:, None], edges[:, None], BELOW, xs[d, d], ys[d, d]),
    )
    used = (n * n + n) * per
    return ConvergenceRecord(
        coarse_nodes=sol.node_count, fine_nodes=fine.node_count, max_change=worst, sample_count=used
    )
