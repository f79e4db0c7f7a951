"""Uncertainty-aware pose policies from demonstrations.

Learns a distribution over SE(3) trajectories from a handful of
demonstrations with a heteroscedastic GP per pose dimension, time-aligns
the demonstrations by task completion, adapts the policy online through
via-point fusion, and turns the predictive uncertainty into a
variable-stiffness admittance schedule with a closed-form stability check.
"""

from .admittance import (ControllerParams, SimTrace, StabilityReport,
                         check_stability, constant_force, damping_from_ratio,
                         simulate, stiffness_profile, stiffness_rate,
                         stiffness_rate_bound, zero_force)
from .alignment import (AlignmentWarning, Trajectory, WarpPath,
                        align_demonstrations, dtw_align, path_length,
                        resample, tci_profile)
from .config import RunConfig, config_sha256, load_config, save_config
from .errors import (DegenerateTrajectoryError, DivergenceError, FormatError,
                     InconsistentConstraintError, InsufficientDataError,
                     InvalidInputError, NumericalConditioningError,
                     OptimizationFailureError, ParseError, ToolkitError)
from .gp import (GPModel, HeteroConfig, HeteroGPModel, KernelParams,
                 OptConfig, PosteriorPrediction, TrainingSet, fit_gp,
                 fit_heteroscedastic, gaussian_product, lml_gradient,
                 optimize_hyperparameters, rbf_kernel)
from .io import (load_demonstration, load_demonstrations, load_policy,
                 load_viapoints, read_manifest, read_table,
                 save_demonstration, save_policy, save_trace, save_viapoints,
                 write_manifest, write_table)
from .policy import (DIM_NAMES, LearnConfig, PoseDistribution, StreamingReport,
                     TaskPolicy, ViaPoint, adapt_with_viapoints, learn_policy,
                     prediction_error, query, streaming_evaluation)
from .se3 import DistanceWeights, Pose
from .synthetic import DoorSet, generate_synthetic_door_set

__version__ = "0.1.0"
