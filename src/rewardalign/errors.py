"""Exception taxonomy shared by the library and the CLI.

Exit-code mapping for the CLI: ValidationError -> 2, BudgetError -> 3,
NumericalError -> 4.
"""

import numpy as np


class RewardAlignError(Exception):
    """Base class for all library errors."""


class ValidationError(RewardAlignError):
    """Bad configuration, malformed spec, or violated precondition."""


class ConfigurationError(ValidationError):
    """A model that cannot satisfy its invariants (e.g. a caller-built
    mixture whose mass escapes the support ball)."""


class BudgetError(RewardAlignError):
    """A predicted cost (net cardinality, Monte Carlo sample count)
    exceeds its configured cap.  Raised before allocation."""


class NumericalError(RewardAlignError):
    """Non-finite values, failed convergence, or broken oracles detected
    at runtime."""


class EnvelopeViolationError(NumericalError):
    """Rejection acceptance outside [0, 1]: the envelope does not
    dominate the reward, indicating a broken first-order oracle."""


class CapabilityError(ValidationError):
    """Requested an exact computation outside the supported regime
    (e.g. high-dimensional exact Wasserstein)."""


def finite(name: str, x, positive: bool = False) -> np.ndarray:
    """``x`` as a float array; raises ValidationError naming ``name``
    unless every entry is finite (and > 0 if ``positive``).  The one input
    check of the library: NaN fails it, and so does what numpy cannot
    read as one float array (a ragged or non-numeric entry, or an integer
    past the float max)."""
    try:
        arr = np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} must be an array of finite numbers: "
                              f"{exc}") from exc
    if not np.all(np.isfinite(arr) & ((arr > 0) | (not positive))):
        raise ValidationError(f"{name} must be finite"
                              f"{' and positive' * positive}")
    return arr


def scalar(name: str, x, positive: bool = False) -> float:
    """``finite``'s check of one number, which must also be 0-d."""
    if (arr := finite(name, x, positive)).ndim:
        raise ValidationError(f"{name} must be one number, got {arr.shape}")
    return float(arr)
