"""Exception hierarchy shared by the library and the command line tool.

Every error carries a short ``code`` used as the prefix of command line
diagnostics ("ERROR <code>: <message>").  Codes "syntax" and "usage" map to
exit status 2, everything else to exit status 1.
"""

from __future__ import annotations


class LndError(Exception):
    """Base class for domain errors raised by this package."""

    code = "domain"


class SignatureMismatchError(LndError):
    """Operands live over different signatures or variable counts."""

    code = "usage"


class UsageError(LndError):
    """Malformed request (bad flag combination, missing table entry, ...)."""

    code = "usage"


class ParseError(LndError):
    """Syntax error in an input expression; ``offset`` is a character offset."""

    code = "syntax"

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.message = message
        self.offset = offset


class CapExceededError(LndError):
    """A nilpotence or degree cap was hit before a computation terminated."""

    code = "cap"


class RelationError(LndError):
    """Candidate automorphism images violate a defining relation."""

    code = "relation"


class JacobianError(LndError):
    """The polynomial-part Jacobian determinant is not a nonzero constant."""

    code = "jacobian"
