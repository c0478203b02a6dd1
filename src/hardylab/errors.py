"""Exception types shared across the package, one per CLI exit code."""


class ValidationError(ValueError):
    """Input fails a documented precondition (exit 2)."""


class NumericError(RuntimeError):
    """Iteration failed to converge or numerical quality was lost (exit 3)."""


class HypothesisUnmetError(RuntimeError):
    """Observed statistics do not satisfy the near-optimal Hardy point
    required by the certification theorem (exit 4)."""
