"""Exception hierarchy shared by all ramid modules."""


class RamidError(Exception):
    """Base class for all errors raised by this package."""


class TrivialInputError(RamidError):
    """A value violates a nontriviality invariant (0, 1 or -1 where forbidden)."""


class IncompatibleFieldError(RamidError):
    """Two surds with different nonzero radicands were mixed."""


class FamilyDomainError(RamidError):
    """A family generator was called with a parameter outside its domain."""


class PreconditionError(RamidError):
    """An operation was called on input that fails its stated precondition."""


class ConfigurationError(RamidError):
    """A search was configured with empty ranges or a nonpositive trial count."""
