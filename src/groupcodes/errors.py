"""Exception types shared across the package."""

from __future__ import annotations


class GroupCodesError(Exception):
    """Base class for all package-specific errors."""


class NotAGroupError(GroupCodesError, ValueError):
    """A multiplication table violates a group axiom.

    Carries the failed axiom name and a witness tuple of element indices.
    """

    def __init__(self, axiom: str, witness: tuple[int, ...], detail: str = "") -> None:
        self.axiom = axiom
        self.witness = witness
        msg = f"not a group: {axiom} fails at {witness}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class InvalidWordError(GroupCodesError, ValueError):
    """A word has symbols outside the alphabet or a bad length."""


class IncompatibleError(GroupCodesError, ValueError):
    """Operands disagree on length, alphabet, or dimension."""


class ClosureError(GroupCodesError, ValueError):
    """A word set flagged as a group code is not a subgroup.

    ``witness`` names an offending word or word pair.
    """

    def __init__(self, message: str, witness: tuple = ()) -> None:
        self.witness = witness
        super().__init__(message)


class PreconditionError(GroupCodesError, ValueError):
    """An operation's stated precondition does not hold for the input."""


class ResourceLimitError(GroupCodesError):
    """A search exceeded its configured cap, so its answer is incomplete.

    Partial results computed before the abort may be attached
    (``certificate`` for partition searches, ``partial_generators`` for
    automorphism searches).
    """

    def __init__(self, message: str, *, certificate: str | None = None,
                 partial_generators: tuple = ()) -> None:
        self.certificate = certificate
        self.partial_generators = partial_generators
        super().__init__(message)


class TheoremViolationError(GroupCodesError):
    """An internally asserted structure theorem failed on concrete data.

    This always signals an implementation bug, never bad user input.
    """


class SchemaError(GroupCodesError, ValueError):
    """A JSON document does not match the expected schema."""

    def __init__(self, message: str, field: str | None = None) -> None:
        self.field = field
        super().__init__(message if field is None else f"{field}: {message}")
