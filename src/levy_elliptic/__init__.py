"""Simulation and verification toolkit for noise-driven Dirichlet problems.

Simulates the problem (-Laplace)^gamma u = white Levy noise with zero
boundary values on hyperrectangles, where the eigenbasis is explicit, and
verifies the solver against closed-form oracles and Monte Carlo property
tests: characteristic functionals, jump-integral isometry, weak/mild
duality, Sobolev-norm thresholds, a continuity dichotomy, and spectral
counting bounds.
"""

from .diagnostics import (
    TestReport,
    continuity_probe,
    empirical_cf_test,
    isometry_test,
    sobolev_sweep,
    spectral_bound_check,
    weak_identity_test,
)
from .domain import (
    EigenSystem,
    HyperBox,
    enumerate_eigen,
    weyl_count,
)
from .functions import (
    AxisPower,
    Constant,
    Indicator,
    Polynomial,
    RadialPower,
    SpectralFunction,
)
from .integrability import (
    ExistenceVerdict,
    IntegrabilityReport,
    existence_verdict,
    green_kernel_integrability,
    rr_integrability,
)
from .measures import (
    AlphaStable,
    LevyTriplet,
    NullMeasure,
    SymmetricTwoPoint,
    VarianceGamma,
    characteristic_exponent,
    sample_jump_sizes,
)
from .noise import (
    JumpAtomSet,
    NoiseLaw,
    NoiseRealization,
    pair_eigen,
    pair_with_function,
    sample_noise,
)
from .solver import (
    RegimeRefusalError,
    eval_field_grid,
    green_convolve,
    green_gamma_eval,
    solve_mild,
    torsion_solution,
)

__version__ = "0.1.0"
