"""Numerical laboratory for frequency-localized Schrodinger evolution on rectangular tori.

Subpackages by theme: core (fields, cutoffs, projectors, norms), propagator
(free evolution and the quadratic-phase kernel), arithmetic (rational
approximation, Farey atoms, divisor counts, major arcs), dispersive (kernel
refocusing checks), strichartz (space-time norms and scaling sweeps), nls
(the critical-power solver), cli (reproducible experiment drivers).
"""

from .core import (
    PHI_PROFILE_ID,
    FrequencyField,
    TorusGeometry,
    annular_bump,
    bump,
    is_dyadic,
    lp_symbol,
    project,
    sobolev_norm,
    synthesize,
    with_box_radius,
)
from .propagator import (
    KernelEvaluation,
    free_evolve,
    kernel_direct,
    kernel_grid,
)
from .arithmetic import (
    MajorArcParams,
    RationalApprox,
    dirichlet_approx,
    divisor_count_dyadic,
    divisor_tail_count,
    f2_hat,
    farey_atoms,
    in_major_arc,
)
from .dispersive import (
    BilinearFormCheckParams,
    DispersiveReport,
    bilinear_form_check,
    check_diff_bound,
    check_dispersive,
    dispersive_bound,
    dispersive_rhs,
    kernel_split,
)
from .strichartz import (
    ScalingFit,
    bilinear_ratio,
    exponent_sweep,
    spacetime_lp_norm,
)
from .nls import (
    NlsProblem,
    Trajectory,
    conservation_report,
    energy,
    mass,
    nonlinearity,
    picard_solve,
    split_step_evolve,
)

__version__ = "0.1.0"
