"""Exception types shared across the package."""


class PausesegError(Exception):
    """Base class for all errors raised by this package."""


class IllegalTagSequence(PausesegError):
    """A tag sequence violates start/end legality or contains an illegal bigram."""


class LengthMismatch(PausesegError):
    """A tag sequence (or span list) does not match its sentence length."""


class NoLegalPath(PausesegError):
    """A constraint mask, or the model's weights, admit no legal tag sequence."""


class NonFiniteWeights(PausesegError):
    """A model's weights are not finite (NaN or +inf), so its best path or log Z is not either."""


class SentenceTooShort(PausesegError):
    """The operation needs a longer sentence (e.g. at least one junction)."""


class IndexOutOfRange(PausesegError, IndexError):
    """A junction or position index is outside the sentence."""


class ParseError(PausesegError):
    """An input document could not be parsed.

    Carries an optional 1-based line number.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"{message} (line {line})")
        self.line = line


class NonMonotoneFrames(ParseError):
    """Begin frames decrease across an alignment, or a character ends before it begins."""


class UnscoredPause(PausesegError):
    """A pause without a boundary probability was passed where one is required."""


class EmptyDataset(PausesegError):
    """Training was requested on an empty corpus."""


class SentenceMismatch(PausesegError):
    """Two corpora that must share the same sentences do not."""


class WhitespaceInWord(PausesegError, ValueError):
    """A word holds whitespace, which the space-separated gold format cannot write."""


class InvalidConfig(PausesegError, ValueError):
    """A setting (training, threshold, frame offset) has the wrong type or is out of range."""


class TrainingDiverged(PausesegError):
    """Training drove a weight to infinity or NaN."""
