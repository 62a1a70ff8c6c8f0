"""Exception hierarchy for the GENIO reproduction.

All library errors derive from :class:`ReproError` so callers can catch
everything the simulation raises with one handler, while still being able
to distinguish security-relevant failures (authentication, integrity,
authorization) from plain configuration or lookup problems.
"""


class ReproError(Exception):
    """Base class for every error raised by this library."""


class AuthenticationError(ReproError):
    """An identity could not be verified (bad certificate, key, or signature)."""


class IntegrityError(ReproError):
    """Data failed an integrity check (hash mismatch, tampered payload)."""


class AuthorizationError(ReproError):
    """An authenticated principal attempted an action it is not allowed."""


class ConfigurationError(ReproError):
    """A component was configured inconsistently or illegally."""


class NotFoundError(ReproError):
    """A referenced object does not exist."""


class CapacityError(ReproError):
    """A resource request exceeded available capacity."""


class QuarantineError(ReproError):
    """An artifact was blocked because it was flagged as malicious."""
