"""Orthogonal event weights for mixture samples.

Extraction of signal/background and generalized component weights,
covariance corrections for fits to weighted data, independence diagnostics
and a seeded pseudo-experiment framework, with a JSON/CSV command-line
front end.
"""

__version__ = "1.0.0"

import os

# One BLAS thread per process unless the caller chose a number: no array in
# cowlib is large enough for threaded BLAS to pay, and on a loaded machine
# the threads compete for the cores.  This must run before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .densities import (Density1D, EfficiencyMap, Interval, histogram_density,
                        integrate, make_density, monomial_basis)
from .diagnostics import IndependenceReport, kendall_tau, pull
from .errors import (ConstructionError, CowlibError, EvaluationError,
                     IllConditionedBasisError, IntegrationError,
                     NonConvergenceError, SingularModelError)
from .mlfit import (FitResult, MixtureComponent, MixtureModel, fit_extended_ml,
                    fit_weighted_ml, numerical_hessian, yields_only_refit)
from .sweights import (WeightMatrix, compute_W_variant_A, compute_W_variant_B,
                       compute_W_variant_C, weight_functions)
from .cows import (CowSet, CowSpec, build_cow, efficiency_corrected_weights,
                   estimate_fractions, implied_cow, variance_fn_ml_iterative,
                   variance_fn_qm)
from .wcov import (CorrectedCovariance, QuasiScoreSpec,
                   corrected_covariance_cow,
                   corrected_covariance_fixed_shapes, corrected_covariance_full,
                   equivalent_events, variance_sum_weights)
from .methods import MethodSpec, apply_method
from .toygen import (EnsembleConfig, EnsembleReport, ToyDataset, ToySpec,
                     generate, generate_multicomponent, generate_nonfactorising,
                     generate_simple, run_ensemble, simple_truth_densities)
