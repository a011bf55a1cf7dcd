"""Exception types shared across the package."""


class ModelError(ValueError):
    """Raised when a model definition violates a structural requirement."""


class NonAffineError(ModelError):
    """A reaction propensity is not an affine function of the state."""


class NonDiagonalizableError(ModelError):
    """A reaction changes more than one species, so the network cannot be
    converted to a per-species diagonal noise model."""


class FilterError(RuntimeError):
    """Base class for numerical failures during a filter run.

    `step` and, for a batch of replicates, `replicate` say where it failed;
    the message names them, also when a caller sets them later.
    """

    def __init__(self, message, step=None, replicate=None):
        super().__init__(message)
        self.step = step
        self.replicate = replicate

    def __str__(self):
        where = [f"{name} {v}" for name, v in (("replicate", self.replicate),
                                               ("at step", self.step))
                 if v is not None]
        return self.args[0] + (f" ({', '.join(where)})" if where else "")


class SingularInnovationError(FilterError):
    """The innovation covariance failed its positive-definite factorization."""


class NonFiniteStateError(FilterError):
    """An estimate, covariance, or simulated state became non-finite."""


class StepTooLargeError(ValueError):
    """The integration step exceeds the propagation interval."""


class IndefiniteHessianError(FilterError):
    """The trajectory-cost Hessian is not positive definite."""


class LengthMismatchError(ValueError):
    """Two sequences that must align have different lengths."""
