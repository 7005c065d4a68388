"""Residual verification of the vertex and diagonal boundary conditions.

Checks operate on anything that can evaluate itself and its first
derivatives on a quadrant/sector (amplitude tensors bound to a momentum
pair, or quadrature-synthesised superpositions); each check evaluates a
whole family of boundary lines per call.  All residuals are
exact analytic evaluations sampled at deterministic low-discrepancy
points; one-sided limits at the diagonal evaluate the sector-tagged
branches exactly at x = y, since each branch is an entire function.

Sampling is reproducible: quasi-random coordinates come from the golden
ratio Kronecker sequence, genuinely random draws from NumPy's PCG64
generator, both driven by a single integer seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Protocol

import numpy as np

from .basis import BasisElement, build_basis, family_counts
from .domain import (
    ABOVE,
    BELOW,
    SCHEMA,
    AmplitudeTensor,
    MomentumPair,
    StarConfig,
    partner_momentum,
    wave_momenta,
    wave_phases,
)
from . import transforms as tr

GOLDEN_FRAC = (math.sqrt(5.0) - 1.0) / 2.0

DEFAULT_TOL = 1e-9
DEFAULT_SAMPLES = 100  # boundary samples per check family
DEFAULT_REL = 1e-3  # mutation size, relative to the amplitude
DEFAULT_DETECT_ABOVE = 1e-5  # worst residual that counts as a detected mutation
TRANSFORM_TOL = 1e-10
GRAM_GAP = 1e-8
SPAN = 10.0


def kronecker_points(count: int, offset: int | np.ndarray = 0, hi: float = 1.0) -> np.ndarray:
    """Golden-ratio low-discrepancy sequence on [0, hi).

    An int array of offsets gives one sequence per offset, stacked along
    the leading axes.
    """
    idx = np.add.outer(offset, np.arange(1, count + 1)).astype(float)
    u = np.mod(0.5 + idx * GOLDEN_FRAC, 1.0)
    return hi * u


def gauss_legendre(count: int, lo=0.0, hi=1.0) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of ``count`` points on [lo, hi].

    Arrays of ends give one rule per interval, on a new last axis.
    """
    x, w = np.polynomial.legendre.leggauss(count)
    lo, hi = np.asarray(lo)[..., None], np.asarray(hi)[..., None]
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


class PointSolution(Protocol):
    """Anything evaluable with one-sided analytic derivatives per sector.

    Quadrant indices ``i, j`` are ints or int arrays that broadcast against
    ``x, y``; off-diagonal quadrants ignore the sector tag.
    """

    def value_array(self, i, j, sector: str, x, y) -> np.ndarray: ...

    def derivative_array(self, i, j, sector: str, x, y, direction: str) -> np.ndarray: ...


class TensorSolution:
    """An amplitude tensor bound to its momentum pair."""

    def __init__(self, tensor: AmplitudeTensor, momentum: MomentumPair):
        self.tensor = tensor
        self.momentum = momentum

    @classmethod
    def from_element(cls, el: BasisElement) -> "TensorSolution":
        return cls(el.tensor, el.momentum)

    def value_array(self, i, j, sector, x, y):
        return self.tensor.value_array(i, j, sector, x, y, self.momentum)

    def derivative_array(self, i, j, sector, x, y, direction):
        return self.tensor.derivative_array(i, j, sector, x, y, self.momentum, direction)


@dataclass(frozen=True)
class CheckResult:
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
    offset: int = 0,
) -> list[CheckResult]:
    """Continuity and derivative-sum residuals on the quadrant boundaries.

    For each boundary sample the solution must take a common value
    across the n quadrants meeting at the vertex edge, and the outgoing
    derivatives must sum to zero.  Each family of boundary lines (x = 0
    on edge j, y = 0 on edge i) is evaluated in one call, with the n
    quadrants of a line on axis 0 and the lines on axis 1.
    """
    per_line = max(1, samples // (2 * n))
    edges = np.arange(1, n + 1)
    quad, line = edges[:, None, None], edges[None, :, None]
    ts = kronecker_points(per_line, offset=offset + edges * per_line, hi=SPAN)
    # the x = 0 edge of a diagonal quadrant lies in the x < y sector
    vals_x0 = sol.value_array(quad, line, BELOW, 0.0, ts)
    dsum_x0 = sol.derivative_array(quad, line, BELOW, 0.0, ts, "dx").sum(axis=0)
    ts = kronecker_points(per_line, offset=offset + (n + edges) * per_line, hi=SPAN)
    vals_y0 = sol.value_array(line, quad, ABOVE, ts, 0.0)
    dsum_y0 = sol.derivative_array(line, quad, ABOVE, ts, 0.0, "dy").sum(axis=0)
    worst_match = max(float(np.max(np.abs(v - v[0]))) for v in (vals_x0, vals_y0))
    worst_sum = max(float(np.max(np.abs(d))) for d in (dsum_x0, dsum_y0))
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
    offset: int = 0,
) -> list[CheckResult]:
    """Continuity and derivative-jump residuals across each diagonal.

    The jump condition ties the one-sided normal derivatives to c times
    the boundary value:
    (d/dx - d/dy)/2 from above minus the same from below = c * value.
    All n diagonals are evaluated in one call per sector and derivative.
    """
    per_line = max(1, samples // n)
    edges = np.arange(1, n + 1)
    ts = kronecker_points(per_line, offset=offset + edges * per_line, hi=SPAN)
    quad = edges[:, None]
    v_above = sol.value_array(quad, quad, ABOVE, ts, ts)
    v_below = sol.value_array(quad, quad, BELOW, ts, ts)
    worst_cont = float(np.max(np.abs(v_above - v_below)))
    d_above = 0.5 * (
        sol.derivative_array(quad, quad, ABOVE, ts, ts, "dx")
        - sol.derivative_array(quad, quad, ABOVE, ts, ts, "dy")
    )
    d_below = 0.5 * (
        sol.derivative_array(quad, quad, BELOW, ts, ts, "dx")
        - sol.derivative_array(quad, quad, BELOW, ts, ts, "dy")
    )
    jump = d_above - d_below - c * 0.5 * (v_above + v_below)
    worst_jump = float(np.max(np.abs(jump)))
    used = n * per_line
    return [
        CheckResult("diagonal_continuity", worst_cont, used, tol),
        CheckResult("diagonal_jump", worst_jump, used, tol),
    ]


# ---------------------------------------------------------------------------
# whole-basis checks


def sample_points(n: int, count: int, seed: int):
    """Random evaluation points spread over all quadrants and sectors.

    Returns 1-based quadrants (count, 2), sector planes (1 for the below
    sector of a diagonal quadrant, else 0) and coordinates (count, 2).
    """
    rng = np.random.default_rng(seed)
    quads = rng.integers(1, n + 1, size=(count, 2))
    xy = rng.uniform(0.05, SPAN, size=(count, 2))
    planes = ((quads[:, 0] == quads[:, 1]) & (rng.random(count) >= 0.5)).astype(int)
    return quads, planes, xy


def sample_matrix(elements: list[BasisElement], count: int, seed: int) -> np.ndarray:
    """Rows of element values at shared random points, row-normalised.

    All elements must be built at one momentum pair, which the points share.
    """
    m = elements[0].momentum
    if any(el.momentum != m for el in elements):
        raise ValueError("sample_matrix needs elements built at one momentum pair")
    quads, planes, xy = sample_points(elements[0].tensor.n, count, seed)
    phases = wave_phases(*wave_momenta(m.k1, m.k2), xy[:, 0], xy[:, 1])
    i, j = quads[:, 0] - 1, quads[:, 1] - 1
    mat = np.stack([
        np.einsum("pw,wp->p", el.tensor.amps[i, j, planes].reshape(count, 8), phases)
        for el in elements
    ])
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    return mat / np.where(norms > 0, norms, 1.0)


def basis_rank(elements: list[BasisElement], seed: int = 0) -> tuple[int, np.ndarray]:
    """Numerical rank of the sampled basis (singular values attached)."""
    need = len(elements)
    mat = sample_matrix(elements, max(4 * need, 2 * need + 16), seed)
    svals = np.linalg.svd(mat, compute_uv=False)
    rank = int(np.sum(svals > GRAM_GAP * svals[0]))
    return rank, svals


def verify_element(
    el: BasisElement,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
    offset: int = 0,
) -> ResidualReport:
    """All per-element checks: pointwise boundary conditions + transforms.

    The edge count, momentum pair and coupling are the element's own.
    """
    n = el.tensor.n
    sol = TensorSolution.from_element(el)
    checks = check_vertex_bc(sol, n, samples=samples, tol=tol, offset=offset)
    checks += check_diagonal_bc(sol, n, el.coupling, samples=samples, tol=tol, offset=offset)
    tv = tr.extract_transforms(el.tensor, el.momentum)
    kir = tr.check_kirchhoff_transforms(tv)
    diag = tr.check_diagonal_conditions(tv, el.coupling)
    checks.append(CheckResult("transform_kirchhoff", kir.max, 4 * n * n, TRANSFORM_TOL))
    checks.append(CheckResult("transform_diagonal", diag.max, 8 * n, TRANSFORM_TOL))
    pointwise_diag = [c for c in checks if c.name == "diagonal_jump"][0]
    agree = pointwise_diag.passed == (diag.max <= tol)
    checks.append(
        CheckResult("transform_pointwise_agreement", 0.0 if agree else 1.0, 1, 0.5)
    )
    return ResidualReport(solution_id=el.label, checks=checks)


def verify_full_basis(
    cfg: StarConfig,
    m: MomentumPair,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> ResidualReport:
    """Verify every basis element and the joint rank at this momentum."""
    elements = build_basis(cfg, m)
    counts = family_counts(elements)
    checks: list[CheckResult] = []
    sub_reports = []
    for idx, el in enumerate(elements):
        rep = verify_element(el, samples=samples, tol=tol, offset=idx * 7)
        sub_reports.append(rep)
        # aggregate row per element: worst residual normalised by each
        # sub-check's own tolerance, so <= 1 means the element passed
        worst_ratio = max(c.max_abs_residual / c.tolerance for c in rep.checks)
        checks.append(CheckResult(f"element:{el.label}", worst_ratio, samples, 1.0))
    rank, svals = basis_rank(elements, seed=seed)
    rank_ok = rank == len(elements)
    checks.append(CheckResult("basis_rank", 0.0 if rank_ok else 1.0, len(svals), 0.5))
    report = ResidualReport(
        solution_id=f"basis(n={cfg.n}, c={cfg.c}, k1={m.k1.real})",
        checks=checks,
        extras={
            "element_count": len(elements),
            "family_counts": counts,
            "rank": rank,
            "rank_expected": len(elements),
            "singular_value_ratio": float(svals[-1] / svals[0]),
            "elements": [rep.to_dict() for rep in sub_reports],
        },
    )
    return report


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
    residual at 60 samples and whether the perturbation was detected
    (residual above ``detect_above``).  A healthy verifier detects every
    mutation; silent records mean the checks are vacuous somewhere.
    """
    if per_element < 1:
        raise ValueError(f"need at least one mutation per element, got {per_element}")
    rng = np.random.default_rng(seed)
    elements = build_basis(cfg, m)
    out = []
    for el in elements:
        keys = [key for key, _amp in el.tensor.items()]
        picks = rng.choice(len(keys), size=min(per_element, len(keys)), replace=False)
        for pick in picks:
            key = keys[int(pick)]
            bad = el.tensor.with_scaled_entry(key, 1.0 + rel)
            sol = TensorSolution(bad, el.momentum)
            checks = check_vertex_bc(sol, cfg.n, samples=60)
            checks += check_diagonal_bc(sol, cfg.n, el.coupling, samples=60)
            worst = max(c.max_abs_residual for c in checks)
            out.append(
                {
                    "element": el.label,
                    "entry": list(key),
                    "relative_change": rel,
                    "max_residual": float(worst),
                    "detected": bool(worst > detect_above),
                }
            )
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


def _norm_lhs(profiles: Mapping[tuple[int, int], Callable], R: float, panel: float, k_count: int) -> float:
    knots, kweights = gauss_legendre(k_count)
    kappa = partner_momentum(knots)
    # composite 8-point Gauss panels of width at most ``panel`` on [0, R]
    edges = np.linspace(0.0, R, max(1, int(math.ceil(R / panel))) + 1)
    xs, ws = (a.reshape(-1) for a in gauss_legendre(8, edges[:-1], edges[1:]))
    psi = np.zeros((xs.size, xs.size), dtype=complex)
    for (sig, tau), g in profiles.items():
        gv = np.asarray(g(knots), dtype=complex)
        if not np.any(gv):
            continue
        coeff = (-sig * tau) * kweights * gv
        ex = np.exp(1j * sig * np.outer(xs, knots))
        ey = np.exp(1j * tau * np.outer(kappa, xs))
        psi += ex @ (coeff[:, None] * ey)
    dens = np.abs(psi) ** 2
    return float(ws @ dens @ ws) / R


def check_norm_limit(profiles: Mapping[tuple[int, int], Callable], R: float) -> NormLimitResult:
    """Compare (1/R) * integral of |psi|^2 over [0, R]^2 against the channel sum.

    ``profiles`` maps sign pairs (sig, tau) to square-integrable
    transform functions on [0, 1]; psi is the plane-wave superposition
    they generate on one quadrant.  The right-hand side is
    2*pi * sum of the channel L2 norms.  The left-hand side uses
    composite 8-point Gauss panels of width 1.4 in x and y, and a
    Gauss rule of max(256, 3.2 R) nodes in momentum; a refined pass
    (panels of width 1.4/1.5) estimates the remaining quadrature error,
    exposed as ``quadrature_change`` and the ``converged`` flag.
    """
    if R <= 0:
        raise ValueError("R must be positive")
    k_count = max(256, int(3.2 * R))
    # right-hand side: 2 pi * sum of channel norms
    qx, qw = gauss_legendre(400)
    rhs = 0.0
    for g in profiles.values():
        gv = np.asarray(g(qx), dtype=complex)
        rhs += float(qw @ (np.abs(gv) ** 2))
    rhs *= 2.0 * math.pi
    lhs = _norm_lhs(profiles, R, 1.4, k_count)
    lhs_fine = _norm_lhs(profiles, R, 1.4 / 1.5, k_count)
    return NormLimitResult(R=R, lhs=lhs, rhs=rhs, quadrature_change=abs(lhs - lhs_fine))
