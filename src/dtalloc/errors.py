"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Experiment configuration is malformed or inconsistent."""


class InfeasibleNetworkError(ValueError):
    """Network is not connected in mean; no contraction constants exist."""


class CapacityError(ValueError):
    """A run, or the set-up of a network, would pass `engine.MEMORY_LIMIT`."""


class PlanWarning(UserWarning):
    """A stepsize plan runs, or is chosen, outside what the theory guarantees."""

