"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class ResourceError(RuntimeError):
    """The request exceeds a configured desk-scale limit."""


def require_within(amount, limit, what: str) -> None:
    """The one refusal rule for desk-scale limits: ``ResourceError`` when
    ``amount`` of ``what`` exceeds ``limit``; an amount at the limit passes."""
    if amount > limit:
        raise ResourceError(f"{what} {amount} exceeds limit {limit}")


class ConvergenceError(RuntimeError):
    """An iterative solver failed to converge.

    Carries the best estimate found so far in ``best_estimate``.
    """

    def __init__(self, message: str, best_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate
