"""High-accuracy log-concave sampling with stochastic oracles.

The package is organized bottom-up:

* :mod:`forsample.core` : potentials, references, assumption cases
* :mod:`forsample.oracles` : noise models, tail bounds, metered oracles
* :mod:`forsample.fors` : Poisson-product rejection sampling
* :mod:`forsample.rgo` : Gaussian-tilt restricted sampling step
* :mod:`forsample.prox` : approximate proximal oracle
* :mod:`forsample.sampler` : outer loop and schedule planners
* :mod:`forsample.lowerbound` : adversarial coupled-oracle experiments
* :mod:`forsample.verify` : statistical verification helpers
* :mod:`forsample.harness` / :mod:`forsample.cli` : experiment runner
"""

from .constants import DEFAULT_CONSTANTS, PlanConstants
from .core import (CATALOG, AssumptionCase, GaussianReference, HuberReference,
                   Potential, PowerReference, make_aniso_gaussian_potential,
                   make_gaussian_potential, make_huber_potential,
                   make_power_potential, potential_from_config)
from .errors import (BudgetExhaustedError, BudgetViolationError, ConfigError,
                     DimensionError, EstimatorRangeError, ForsampleError,
                     InfeasibleScheduleError, NumericError,
                     UnsupportedCombinationError)
from .fors import (FORSConfig, FORSResult, fors_accept_rows, fors_sample,
                   fors_sample_many, poisson_inversion, wdraw_tail_check)
from .lowerbound import (AdversarialOraclePair, CoupledRunResult, PsiFunction,
                         coupled_run, f_psi, proximal_adapter, sgld_adapter)
from .oracles import (NOISE_FAMILIES, GradientOracle, NoiseModel, QueryLedger,
                      ValueOracle, eps_tail, make_rng, phi)
from .prox import (ProxConfig, approx_prox_rows, default_k_iters, prox_residual,
                   prox_residual_bound, relaxation)
from .rgo import sample_tilt_many, tilt_source
from .sampler import (Schedule, gaussian_initializer, plan_first_order,
                      plan_zeroth_order, run_proximal_sampler)
from .verify import (TVEstimate, chi2_discrete, discrete_law_oracle,
                     empirical_tv_1d, empirical_tv_two_sample, gaussian_tv_exact,
                     ks_test, scaling_slope, seeds_pass_rule)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
