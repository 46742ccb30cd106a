"""Joint community estimation from sparse networks and high-dimensional
covariates: a two-orbit iterative estimator, its scalar state-evolution
theory (fixed points, detection threshold, MMSE and mutual-information
limits), and a Monte-Carlo harness comparing the two.
"""

from .amp import (AmpRun, AmpState, DenoiserParams, amp_step, denoise_f, denoise_g,
                  init_state, onsager_coeffs, run_amp, solve_a0, spectral_initialize)
from .exceptions import ConvergenceError, DivergenceError, InfeasibleSnrError, MvampError
from .experiments import (AggregateResult, ExperimentConfig, ReplicateInstance,
                          ReplicateResult, SeCheckReport, draw_instance, empirical_mse,
                          empirical_overlap, run_replicate, run_sweep)
from .linalg import (ComposedSpectralOperator, DenseSymmetricOperator, RectOperator,
                     SparseCenteredOperator, SymmetricOperator, WeightedSumOperator,
                     leading_eigenpair)
from .model import (CommunityLabels, CovariateModel, GaussianSurrogate, LayerParams,
                    RevelationMasks, SbmLayer, center_scale_layer, combine_layers,
                    rates_from_lambda, sample_covariates, sample_gaussian_surrogate,
                    sample_labels, sample_revelation, sample_sbm_layer, substream,
                    write_covariates_csv, write_edge_list, write_labels_csv)
from .scalar_channel import (QuadratureRule, gauss_hermite_rule, log_cosh, scalar_mi,
                             scalar_mmse)
from .state_evolution import (SeConfig, SeTrajectory, detection_possible, fixed_point_z,
                              limit_mmse, se_run, se_scalar_step, theory_limits, xi_limit)

__version__ = "0.1.0"
