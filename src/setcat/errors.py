"""Exception hierarchy shared across the package."""


class SetcatError(Exception):
    """Base class for all package errors."""


class InputError(SetcatError):
    """Invalid data or a violated precondition supplied by the caller."""


class SyntaxInputError(InputError):
    """Malformed textual input (value grammar or file container)."""


class ValidationInputError(InputError):
    """Well-formed input that fails a structural invariant."""


class InternalFault(SetcatError):
    """An internal invariant failed or an engine limit was hit."""


class LimitExceeded(InternalFault):
    """An engine limit was hit; the message names the limit and the numbers."""
