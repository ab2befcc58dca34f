"""Exception types shared across the package.

Every error carries a machine-readable ``code`` so the CLI can report
failures in structured output without string matching.
"""


class DomainError(ValueError):
    """Base class for invalid inputs and unsatisfiable requests."""

    code = "domain-error"


class AsymmetricMatrix(DomainError):
    code = "asymmetric-matrix"


class BadDiagonal(DomainError):
    code = "bad-diagonal"


class BadEntry(DomainError):
    code = "bad-entry"


class DuplicateGenerator(DomainError):
    code = "duplicate-generator"


class UnknownGenerator(DomainError):
    code = "unknown-generator"


class InfiniteType(DomainError):
    code = "infinite-type"


class InfiniteM(DomainError):
    code = "infinite-m"


class Undecided(DomainError):
    """A bounded search ran out of budget without settling the answer.

    Distinct from a negative result: raised only when neither existence
    nor non-existence was established.
    """

    code = "undecided"


class ParseError(DomainError):
    code = "parse-error"

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConflictingEntry(ParseError):
    code = "conflicting-entry"


class UsageError(DomainError):
    """The command line does not match the documented grammar."""

    code = "usage"


class NotAComplex(DomainError):
    code = "not-a-complex"


class NonAcyclicInput(DomainError):
    code = "non-acyclic-input"


class VerificationError(Exception):
    """Base class for failed audits and checks (exit code 2 in the CLI)."""

    code = "verification-error"


class AuditFailure(VerificationError):
    code = "audit-failure"


class CheckFailed(VerificationError):
    code = "check-failed"


class InternalError(RuntimeError):
    """Reached a state the underlying theory rules out; signals a bug."""

    code = "internal-error"
