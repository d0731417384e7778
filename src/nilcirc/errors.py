"""Error kinds shared across the package.

Everything derives from InputError (itself a ValueError) so callers can catch
one base class; the CLI maps InputError to exit code 3.
"""


class InputError(ValueError):
    """Invalid mathematical input."""


class InvalidInput(InputError):
    """A parameter is outside its documented domain."""


class InvalidPrime(InputError):
    """A modulus that must be prime is not."""


class Overflow(InputError):
    """Exact result exceeds the supported integer range; never a wrong answer."""


class ShapeMismatch(InputError):
    """Ring elements with different order or modulus were combined."""


class CoprimalityViolated(InputError):
    """A pair of parameters required to be coprime is not."""


class DivisibilityViolated(InputError):
    """A divisibility hypothesis between parameters fails."""


class BudgetExceeded(InputError):
    """Enumeration or ring work would exceed its work budget."""
