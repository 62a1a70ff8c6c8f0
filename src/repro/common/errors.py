"""Exception hierarchy for the GENIO reproduction.

All library errors derive from :class:`ReproError` so callers can catch
everything the simulation raises with one handler, while still being able
to distinguish security-relevant failures (authentication, integrity,
authorization) from plain configuration or lookup problems.
"""

from typing import Optional, Sequence


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


class ShardWorkerError(ReproError):
    """A fleet shard worker process died; ``shard_indices`` names its
    shards."""

    def __init__(self, shard_indices: Sequence[int],
                 exitcode: Optional[int]) -> None:
        self.shard_indices = tuple(shard_indices)
        self.exitcode = exitcode
        shards = ", ".join(str(index) for index in self.shard_indices)
        super().__init__(f"shard worker hosting shard(s) {shards} died "
                         f"(exit code {exitcode})")
