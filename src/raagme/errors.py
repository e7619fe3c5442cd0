"""Exception types shared by all raagme modules, the echo their messages use,
and the type checks that public entry points make of their arguments."""

import reprlib

# error messages echo offending input through one bounded repr, so that a
# huge or deeply nested entry cannot blow up the message
_ECHO = reprlib.Repr()
_ECHO.maxlevel = 2
_ECHO.maxlist = _ECHO.maxdict = 4
_ECHO.maxstring = _ECHO.maxlong = _ECHO.maxother = 40
echo = _ECHO.repr


class RaagmeError(Exception):
    """Base class for all errors raised by this package."""


class InputError(RaagmeError):
    """Malformed or out-of-contract input data (unknown vertex, bad rank, ...)."""


class DomainError(RaagmeError):
    """A mathematical hypothesis of the requested operation is violated.

    The message always names the violated hypothesis, e.g. that the outer
    automorphism group must be finite, or that strong untransvectability is
    only defined for untransvectable vertices.
    """


class ParseError(InputError):
    """Syntactically invalid input document."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def require(value, kind, what):
    """Raise InputError unless value is a kind; what names the expected argument."""
    if not isinstance(value, kind):
        raise InputError(f"expected {what} ({kind.__name__}), got {echo(value)}")


def require_integer(x, what):
    """x, if it is an int and not a bool; otherwise an InputError naming what x is."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError(f"{what} must be an integer, got {echo(x)}")
    return x
