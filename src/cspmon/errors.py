"""Exception hierarchy shared across the package."""

from __future__ import annotations


class CspmonError(Exception):
    """Base class for all package-specific errors."""


class ParseError(CspmonError):
    """Lexical or syntactic error in a spec file, with source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class UndeclaredEventError(CspmonError):
    """An identifier that is neither a declared event nor a bound variable."""

    def __init__(self, name: str, line: int, column: int):
        super().__init__(
            f"{line}:{column}: undeclared event {name!r} (not in the alphabet "
            f"and not bound by any enclosing ?-binder)"
        )
        self.name = name
        self.line = line
        self.column = column


class UnboundVariableError(CspmonError):
    """An event variable used without a binding."""

    def __init__(self, name: str):
        super().__init__(f"unbound event variable {name!r}")
        self.name = name


class OpenTermError(CspmonError):
    """A transition-engine entry point received a term with free variables."""


class OutOfAlphabetError(CspmonError):
    """The monitor was fed an event outside the declared alphabet."""

    def __init__(self, name: str):
        super().__init__(f"event {name!r} is not in the declared alphabet")
        self.name = name


class ResidualOverflowError(CspmonError):
    """A monitor step reached more residuals than ``sos.RESIDUAL_CAP``.

    Raised before the step is stored, so no state or edge of the engine's
    lazy DFA ever holds such a set, and the same step raises again.
    """

    def __init__(self, size: int, cap: int):
        super().__init__(f"residual set grew to {size} terms (cap {cap})")
        self.size = size
        self.cap = cap


class InputDecodeError(CspmonError):
    """An input file that is not valid UTF-8."""

    def __init__(self, path: str, exc: UnicodeDecodeError):
        byte = exc.object[exc.start]
        super().__init__(f"{path}: not valid UTF-8 (byte 0x{byte:02x}: {exc.reason})")
        self.path = path
