"""Numerical laboratory for frequency-localized Schrodinger evolution on rectangular tori.

Modules by theme: core (fields, cutoffs, projectors, norms), propagator
(free evolution and the quadratic-phase kernel), arithmetic (rational
approximation, Farey atoms, divisor counts, major arcs), dispersive (the
kernel's refocusing envelope and off-arc decay), strichartz (streamed
space-time norms, scaling sweeps and bilinear ratios), nls (the
critical-power solver), cli (reproducible experiment drivers).  The package
holds what the commands run and the oracles the tests compare them with;
full-grid references live in the tests.
"""

from .core import (
    PHI_PROFILE_ID,
    FrequencyField,
    TorusGeometry,
    annular_bump,
    bump,
    is_dyadic,
    project,
    sobolev_norm,
    synthesize,
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
    f2_hat,
    farey_atoms,
    in_major_arc,
)
from .dispersive import (
    DispersiveReport,
    check_diff_bound,
    check_dispersive,
    dispersive_bound,
)
from .strichartz import ScalingFit, exponent_sweep
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
