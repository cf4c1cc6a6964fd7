"""Estimation of distinct population covariance eigenvalues and their
multiplicities from the spectrum of a large sample covariance matrix."""

from .clt import (
    CltCovariance,
    theta_mestre,
    theta_moment_estimator,
    v_matrix,
)
from .empirical import SecularRoots, empirical_m, secular_zeros
from .ensemble import (
    SampleSpectrum,
    generate_observations,
    read_observations,
    sample_spectrum,
    simulate_spectrum,
    trial_seed,
    write_observations,
)
from .errors import (
    BracketError,
    ConditioningError,
    ContourError,
    ConvergenceError,
    CoveigError,
    DimensionError,
    IllConditionedResidueError,
    InfeasibleMultiplicityError,
    InputError,
    InvalidRootsError,
    InvalidWeightsError,
    ModelError,
    PoleProximityError,
    SeparabilityError,
)
from .experiments import (
    CltHistogram,
    ExperimentConfig,
    ExperimentReport,
    SweepRow,
    run_clt_histogram,
    run_mse_sweep,
)
from .inversion import (
    EstimationResult,
    HankelSystem,
    invert_moments,
    invert_moments_known_multiplicities,
)
from .limiting import (
    DensityCurve,
    density_curve,
    is_separable,
    support_clusters,
)
from .mestre import mestre_estimate
from .model import PopulationModel, multiplicities, true_moments
from .moments import MomentEstimates, moments_by_quadrature, moments_by_residues

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "CltCovariance",
    "CltHistogram",
    "ConditioningError",
    "ContourError",
    "ConvergenceError",
    "CoveigError",
    "DensityCurve",
    "DimensionError",
    "EstimationResult",
    "ExperimentConfig",
    "ExperimentReport",
    "HankelSystem",
    "IllConditionedResidueError",
    "InfeasibleMultiplicityError",
    "InputError",
    "InvalidRootsError",
    "InvalidWeightsError",
    "ModelError",
    "MomentEstimates",
    "PoleProximityError",
    "PopulationModel",
    "SampleSpectrum",
    "SecularRoots",
    "SeparabilityError",
    "SweepRow",
    "density_curve",
    "empirical_m",
    "generate_observations",
    "invert_moments",
    "invert_moments_known_multiplicities",
    "is_separable",
    "mestre_estimate",
    "moments_by_quadrature",
    "moments_by_residues",
    "multiplicities",
    "read_observations",
    "run_clt_histogram",
    "run_mse_sweep",
    "sample_spectrum",
    "secular_zeros",
    "simulate_spectrum",
    "support_clusters",
    "theta_mestre",
    "theta_moment_estimator",
    "trial_seed",
    "true_moments",
    "v_matrix",
    "write_observations",
]
