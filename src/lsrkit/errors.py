"""Shared exception types."""


class LsrError(Exception):
    """Base class for all lsrkit errors."""


class ShapeError(LsrError):
    """Tensor shapes do not satisfy an operation's contract."""


class VocabError(LsrError):
    """Token or term id outside the vocabulary."""


class TapeStateError(LsrError):
    """Gradient tape used in an invalid state (empty, or already consumed)."""


class EmptyInputError(LsrError):
    """An encoder received zero tokens."""


class SequenceLengthError(LsrError):
    """Token sequence exceeds the backbone's maximum length."""


class ContractError(LsrError):
    """Arguments violate an operation's preconditions."""


class DegenerateDistributionError(LsrError):
    """Score distribution has zero spread and cannot be rescaled."""


class NumericError(LsrError):
    """A computation produced a non-finite value."""


class FormatError(LsrError):
    """A file does not conform to its declared format."""


class CompatibilityError(LsrError):
    """Artifacts built against different vocabularies or formats."""
