"""Two delta-interacting particles on a star graph.

Explicit construction of the complete real-momentum eigensolution basis
and numerical verification of every boundary condition, linear system
and kernel dimension involved: vertex matching, diagonal continuity and
jump, transform-side conditions, kernel decompositions, and quadrature
synthesis of square-integrable eigenfunctions.
"""

from .basis import (
    BasisElement,
    build_basis,
    circular_distance,
    complex_momentum_profile,
    cycle_completing_tensor,
    diagonal_closed_form,
    family_counts,
    product_tensor,
)
from .domain import (
    ABOVE,
    BELOW,
    OFFDIAG,
    AmplitudeTensor,
    MomentumPair,
    StarConfig,
    make_config,
)
from .oneparticle import (
    OneParticleSolution,
    phi,
    phi_j,
    phi_zero,
    scattering_wave,
    xi_solution,
)
from .synthesis import (
    ConvergenceRecord,
    QuadratureRule,
    SynthesizedSolution,
    gauss_rule,
    gaussian_bump,
    indicator_profile,
    polynomial_profile,
    refine_quadrature,
    synthesize_basic_solution,
    synthesize_eigensolution,
)
from .transforms import (
    KernelReport,
    TransformVectors4,
    build_p_operator,
    build_q_operator,
    check_diagonal_conditions,
    check_kirchhoff_transforms,
    compute_kernel_decomposition,
    diagonal_condition_matrices,
    extract_transforms,
)
from .verifier import (
    CheckResult,
    NormLimitResult,
    ResidualReport,
    TensorSolution,
    basis_rank,
    check_diagonal_bc,
    check_norm_limit,
    check_vertex_bc,
    mutation_sweep,
    verify_element,
    verify_full_basis,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
