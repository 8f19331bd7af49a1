"""Exception hierarchy.

Three broad families map onto CLI exit codes: configuration problems (2),
backend/transport problems (3), and data problems (4). ``read_text`` and
``read_json`` turn a file that cannot be read into the caller's family;
``make_dir`` turns a directory that cannot be made into a ConfigError.
"""

import json
from pathlib import Path


class ScenefuseError(Exception):
    """Base class for all package errors."""


class ConfigError(ScenefuseError):
    """Bad or missing configuration."""


class DataError(ScenefuseError):
    """Invalid, empty, or out-of-range input data."""


class EmptyTranscript(DataError):
    """No dialogue line could be parsed from the document."""


class NoCues(DataError):
    """No caption cue could be parsed from the document."""


class RangeOutOfBounds(DataError):
    """Line span does not fit inside the transcript."""


class InvalidCount(DataError):
    """Speaker counts outside 1 <= n <= N."""


class TooLarge(DataError):
    """Instance exceeds the brute-force size guard."""


class EmptySequence(DataError):
    """Alignment requires at least one element on each side."""


class UncoveredScene(DataError):
    """A scene has no caption cue matched to any of its lines."""


class LengthMismatch(DataError):
    """Labelings being compared have different lengths."""


class ZeroVariance(DataError):
    """Welch statistics are undefined when both samples have zero variance."""


class NoFactsAfterFiltering(DataError):
    """Every extracted fact was removed by the uninformative-fact filter."""


class BudgetTooSmall(DataError):
    """Fusion context budget cannot fit even one scene summary."""


class BackendError(ScenefuseError):
    """Base class for remote-generation failures."""


class BackendUnavailable(BackendError):
    """Transport kept failing after the configured retries."""


class AuthError(BackendError):
    """The service rejected our credentials."""


class QuotaExceeded(BackendError):
    """The service reported quota exhaustion; not retryable."""


class EmptyCompletion(BackendError):
    """The backend returned a blank completion where text was required."""


def read_text(path: Path, error: type[ScenefuseError], what: str) -> str:
    """UTF-8 text of ``path``; a missing, unreadable or undecodable file raises ``error``."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8 text: {exc.reason}") from exc


def read_json(path: Path, error: type[ScenefuseError], what: str):
    """Parsed JSON of ``path``; an unreadable or invalid file raises ``error``."""
    try:
        return json.loads(read_text(path, error, what))
    except ValueError as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc


def make_dir(path: Path, what: str) -> None:
    """Create ``path`` and its parents; a file in the way or a denied mkdir is a ConfigError."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create {what} {path}: {exc.strerror or exc}") from exc
