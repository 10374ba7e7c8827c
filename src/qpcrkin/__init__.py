"""qpcrkin: branching-process simulation and inference for quantitative PCR."""

from qpcrkin.kinetics import (
    INVERSE_PRECISION,
    PROFILE_PRECISION,
    Kinetics,
    Precision,
    PrecisionError,
    inverse_profile,
    iterate_mean_map,
    limit_profile,
    mean_map,
)
from qpcrkin.simulate import (
    SaturationError,
    SimConfig,
    Trajectory,
    densities,
    noise_sequence,
    read_trajectory_csv,
    simulate_coupled,
    simulate_linear,
    simulate_reaction,
    write_trajectory_csv,
)
from qpcrkin.limit_law import (
    AncestorCDF,
    AncestorDensity,
    LimitEnsemble,
    ancestor_cdf,
    ancestor_density,
    limit_mgf,
    limit_variance,
    sample_limit,
)
from qpcrkin.inference import (
    EstimateReport,
    NotDetectedError,
    Observation,
    estimate_copies_mle,
    estimate_copies_normal,
    estimate_efficiency,
    estimate_from_trajectory,
    hitting_time,
    invert_copies,
    limit_observables,
    observe,
)
from qpcrkin.experiments import (
    ExperimentResult,
    ScenarioSpec,
    emit_profile_curves,
    ks_distance,
    run_experiment,
)

__version__ = "0.1.0"
