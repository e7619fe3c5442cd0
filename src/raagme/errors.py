"""Exception types shared by all raagme modules, the echo their messages use,
and the checks by which every public function rejects an argument of the wrong
type: ``require`` (its type), ``require_integer`` (an int but not a bool) and
``require_iterable`` (as a list).  Range checks stay with their callers."""

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
    """value, if it is a kind; otherwise an InputError naming what was expected."""
    if not isinstance(value, kind):
        raise InputError(f"expected {what} ({kind.__name__}), got {echo(value)}")
    return value


def require_integer(x, what, of=None):
    """x, if an int but not a bool; else an InputError naming what x is (of vertex ``of``)."""
    if isinstance(x, bool) or not isinstance(x, int):
        if of is not None:
            what = f"{what} of {echo(of)}"
        raise InputError(f"{what} must be an integer, got {echo(x)}")
    return x


def require_iterable(items, what):
    """The items as a list; an InputError naming what they are if not iterable."""
    try:
        return list(items)
    except TypeError:
        raise InputError(f"{what} must be iterable, got {echo(items)}") from None
