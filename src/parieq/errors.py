"""Exception hierarchy. Public functions raise these instead of bare ValueError."""

import operator


class ParieqError(Exception):
    """Base error for this package."""


class DomainError(ParieqError, ValueError):
    """An argument violates a documented precondition."""


class NoEquilibriumError(ParieqError):
    """The wagering game has no pure-strategy equilibrium for these parameters."""


class QuadratureError(ParieqError):
    """Adaptive integration exceeded its recursion-depth budget."""


class ConfigError(ParieqError, ValueError):
    """A scenario config file is malformed or inconsistent."""



def as_count(value: object, least: int, most: float, message: str) -> int:
    """value as a Python int, or a DomainError with message unless it is an
    integer in [least, most]. operator.index takes numpy integers as well
    and refuses floats; bool is an int subclass, but no count."""
    try:
        count = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        count = None
    if count is None or not least <= count <= most:
        raise DomainError(f"{message}, got {value!r}")
    return count
