"""Exception types shared across the pipeline."""


class ProvlensError(Exception):
    """Base class for all package errors."""


class ConfigError(ProvlensError):
    """Invalid configuration or inconsistent model artifacts."""


class FormatError(ProvlensError):
    """Input data does not look like the expected format."""


class ArtifactError(ProvlensError):
    """A required pipeline artifact is missing or unreadable."""

    def __init__(self, message: str, path: str | None = None):
        super().__init__(message)
        self.path = path


class TrainingError(ProvlensError):
    """Optimization produced a non-finite loss or invalid state."""


class LLMError(ProvlensError):
    """LLM backend returned an unusable response."""


class LLMTransportError(LLMError):
    """LLM backend is unreachable; the investigation can be resumed later."""
