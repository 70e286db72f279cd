"""Kernel-based identification of operators with certified increment bounds."""

from .signals import (TimeGrid, Signal, Dataset, inner_product, norm, truncate,
                      zeros, constant_signal, random_signal,
                      read_signals, write_signal,
                      save_dataset, load_dataset)
from .supply import (SupplyRate, ScatteringFactors, passivity_supply,
                     gain_supply, factor_phi,
                     scatter_dataset, iiqc_residual,
                     check_operator_iiqc, supply_to_json, supply_from_json)
from .kernels import (ScalarKernelSpec, OperatorKernel, SeparableKernel,
                      SumKernel, ConjugatedKernel, CausalDiagonalKernel,
                      bilinear, polynomial, gaussian, laplacian,
                      scaled_laplacian, inverse_power, stable_spline,
                      eval_scalar, certify_nonexpansive, certify_bounded,
                      nonexpansive_defect, nonexpansive_defects, is_causal,
                      kernel_to_json, kernel_from_json)
from .rkhs import (GramOperator, FittedOperator, Spectral, build_gram, fit,
                   fit_many, evaluate,
                   rkhs_norm, empirical_risk, tune_gamma, save_fitted,
                   load_fitted)
from .inversion import (ScatteredModel, PicardResult, PicardBatch,
                        contraction_margin, scattered_from_operator,
                        picard_solve, simulate_r,
                        causality_check_r)
from .hodgkin import (DEFAULT_LEVELS, INPUT_SCALE, OUTPUT_SCALE,
                      rate_alpha, rate_beta, steady_state_gating,
                      simulate_channel, gating_trajectory, step_dataset,
                      monotonicity_witness, witness_inputs, scale_dataset,
                      check_step_ordering, write_figure1, time_constant)
from . import errors

__version__ = "0.1.0"
