"""State estimation with a state-dependent process noise covariance.

The core filter recomputes the process noise covariance G(xhat) Sigma_v
G(xhat) from the running estimate at every time update.  Discrete,
continuous-discrete, and nonlinear variants are provided, together with a
trajectory-cost Newton oracle that must reproduce the recursive filters, a
seedable Monte Carlo harness, and a CLI.
"""

__version__ = "0.1.0"

from .builtin import builtin_models, get_builtin
from .continuous import cd_run, cd_time_update, euler_limit_check
from .discrete import (FilterTrace, StateEstimate, measurement_update,
                       run_filter, run_filter_batch, time_update)
from .errors import (FilterError, IndefiniteHessianError, LengthMismatchError,
                     ModelError, NonDiagonalizableError, NonFiniteStateError,
                     SingularInnovationError, StepTooLargeError)
from .models import (ContinuousDiscreteModel, DiscreteLinearModel,
                     NonlinearModel, eval_G, from_cle, gain_from_affine,
                     with_fixed_noise)
from .simulate import (ComparisonReport, TrajectoryData, innovation_whiteness,
                       monte_carlo_compare, mse, simulate_batch, simulate_cd,
                       simulate_cd_batch, simulate_discrete)
from .wls import (OracleSolution, QuadraticCost, build_measurement_cost,
                  build_time_cost, newton_solve, oracle_filter)

# The former nonlinear entry point; bench/micro.py still calls it.
nl_run = run_filter
