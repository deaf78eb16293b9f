"""Pseudo-spectral simulator for a 2-D magnetohydrodynamic boundary
layer on a half plane, with Gaussian-weighted analytic norms, dyadic
frequency bookkeeping, and a verification harness for the decay
estimates the scheme is meant to exhibit.
"""

from .grid import (Field, GridSpec, TailViolationError, ddy, d2dy,
                   integrate_y_from0, integrate_y_tail, psi_weight,
                   weighted_l2, x_transform)
from .lp import (DyadicPartition, besov_pair_norm, build_partition,
                 shell_weighted_norms)
from .scenario import (Cutoff, FarField, Params, UnsupportedScenarioError,
                       build_cutoff, cutoff_value, default_x_profile,
                       flux_projection_profiles, initial_data_standard,
                       project_zero_flux, source_terms, weight_branches)
from .solver import (CheckpointError, DivergenceError, NormSeries,
                     SimResult, State, TStarReachedError, compute_GH,
                     flux_drift, heat_energy_slack, kappa_rescale_map,
                     load_checkpoint, make_state, recommended_ymax,
                     reconstruct_phipsi, recover_vh, rhs_explicit,
                     save_checkpoint, simulate, step_imex, tail_guard_check,
                     theta_components)
from .verify import (fit_decay, fit_loglog, gh_equivalence_check,
                     poincare_check, run_poincare_suite,
                     run_sup_constants_suite, sup_constants, theta_report)

__version__ = "0.1.0"
