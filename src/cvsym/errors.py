"""Exception types shared across the package."""


class InvalidDimensionError(ValueError):
    """A vector or matrix has an incompatible or empty dimension."""


class PreconditionError(ValueError):
    """An operation's input contract is violated (non-unitary matrix,
    mismatched invariants, too few samples, ...)."""


class DegenerateCovarianceError(ValueError):
    """A covariance matrix required to be positive definite is singular."""


class ConfigError(ValueError):
    """An experiment configuration, or the parameters of an object built
    from one, failed validation.

    Carries the list of offending field names so callers can report
    every problem at once.
    """

    def __init__(self, problems):
        # problems: list of (field_name, message)
        self.problems = list(problems)
        self.fields = [name for name, _ in self.problems]
        detail = "; ".join(f"{name}: {msg}" for name, msg in self.problems)
        super().__init__(f"invalid configuration: {detail}")


def require(*rules):
    """Raise one ConfigError naming every ``(name, ok, message)`` rule whose ``ok`` is false.

    Write each ``ok`` as the condition that must hold, so that NaN fails it.
    """
    problems = [(name, message) for name, ok, message in rules if not ok]
    if problems:
        raise ConfigError(problems)
