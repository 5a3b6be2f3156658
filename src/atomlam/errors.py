"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: ParseError -> 2, TypingError -> 1,
StepLimitExceeded -> 3, InternalInvariantViolation -> 4, and Python's
RecursionError (input nested too deeply) -> 5.
"""

from __future__ import annotations


class AtomlamError(Exception):
    """Base class for all toolkit errors."""


class ParseError(AtomlamError):
    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position  # character offset in the input text


# ---------------------------------------------------------------- typing

class TypingError(AtomlamError):
    """Base class for typechecking failures; carries a term position path."""

    def __init__(self, message, position=()):
        super().__init__(message)
        self.position = tuple(position)


class UnboundVariable(TypingError):
    pass


class NotInSystem(TypingError):
    """Construct or formula illegal for the requested system."""


class TypeMismatch(TypingError):
    def __init__(self, message, position=(), expected=None, found=None):
        super().__init__(message, position)
        self.expected = expected
        self.found = found


class ForallProvisoViolated(TypingError):
    pass


class NonAtomicInstantiation(TypingError):
    """Fat only: universal instantiation with a non-variable formula."""


class HoleTypeMismatch(TypingError):
    pass


class DuplicateDeclaration(AtomlamError):
    pass


# ---------------------------------------------------------------- rewriting

class RewriteError(AtomlamError):
    pass


class ShapeMismatch(RewriteError):
    """Term does not match the rule's left-hand-side shape."""


class AtomicInstantiation(RewriteError):
    """rho_case/rho_abort applied with an atomic instantiation formula."""


class NotARedex(RewriteError):
    pass


class NotFine(RewriteError):
    pass


class StaleRedex(RewriteError):
    pass


class StepLimitExceeded(RewriteError):
    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace  # partial ReductionTrace


class InternalInvariantViolation(AtomlamError):
    """A property the engine guarantees on typable input failed."""


# ---------------------------------------------------------------- translate

class NotIPCFormula(AtomlamError):
    pass


class NotIPCTerm(AtomlamError):
    pass


# ---------------------------------------------------------------- analysis

class NotTypable(AtomlamError):
    pass


class RuleNotApplicable(AtomlamError):
    pass
