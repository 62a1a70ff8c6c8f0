"""Frame formats carried on the simulated plant.

Two levels are modelled, mirroring the real stack:

* :class:`Frame` -- an Ethernet-ish frame (src/dst address, ethertype,
  payload). Used on point-to-point segments and as the payload of GEM
  frames on the PON.
* :class:`GemFrame` -- the GPON encapsulation unit (ITU-T G.987.3): a GEM
  port id identifying the logical flow, plus the encapsulated payload.
  G.987.3 encryption operates on the GEM payload.

Both are tuple-backed immutable records (``NamedTuple`` subclasses): a
fleet run sends one frame per tenant per cycle, so a frame costs one
tuple rather than an object with a ``__dict__``. Whoever keeps frames
keeps a ring of the newest :data:`RETAINED_FRAMES` (the OLT's
``upstream_frames``, an ONU's ``received``), so capture stays bounded
however long the run.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Iterable, NamedTuple, Optional, Tuple

# How many of the newest frames an OLT keeps of its upstream traffic,
# and an ONU of what it received: enough for tests and attack forensics
# to inspect, independent of the simulated duration.
RETAINED_FRAMES = 1024


class FrameKind(enum.Enum):
    """Coarse traffic classification used by stats and monitoring."""

    DATA = "data"
    CONTROL = "control"          # PLOAM-like management traffic
    ONBOARDING = "onboarding"    # ONU registration / activation
    KEY_EXCHANGE = "key_exchange"


class _FrameFields(NamedTuple):
    src: str
    dst: str
    kind: FrameKind
    payload: bytes
    secure: bool
    headers: Dict[str, object]
    # Aggregated frames (one DBA cycle's grant carried as a single frame)
    # declare their on-the-wire size instead of materialising megabytes of
    # payload; None means "derive from the payload" as usual.
    size_override: Optional[int]


class Frame(_FrameFields):
    """An Ethernet-level frame.

    ``secure`` marks frames whose payload is a MACsec/AEAD blob rather
    than plaintext; ``headers`` carries protocol metadata (sequence
    numbers, MACsec packet numbers, GPON key indexes) that on-path
    observers can always read — as in reality, encryption hides payloads,
    not traffic metadata. ``headers`` is a fresh empty dict when omitted.

    Every construction path — positional, keyword, ``_make``,
    ``_replace`` and unpickling — goes through :meth:`__new__`, which
    refuses a ``size_override`` that is not a non-negative integer.
    """

    __slots__ = ()

    def __new__(cls, src: str, dst: str, kind: FrameKind = FrameKind.DATA,
                payload: bytes = b"", secure: bool = False,
                headers: Optional[Dict[str, object]] = None,
                size_override: Optional[int] = None) -> "Frame":
        if size_override is not None and (
                not isinstance(size_override, int) or size_override < 0):
            raise ValueError("size_override must be a non-negative integer, "
                             f"got {size_override!r}")
        return tuple.__new__(cls, (src, dst, kind, payload, secure,
                                   {} if headers is None else headers,
                                   size_override))

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> "Frame":
        # NamedTuple's own _make calls tuple.__new__ directly, which
        # would skip the size check (and _replace goes through _make).
        return cls(*iterable)

    def __reduce__(self) -> Tuple[type, Tuple[Any, ...]]:
        return type(self), tuple(self)

    def with_payload(self, payload: bytes, secure: Optional[bool] = None) -> "Frame":
        """Copy of this frame with a replaced payload."""
        return self._replace(
            payload=payload, secure=self.secure if secure is None else secure)

    def with_header(self, key: str, value: object) -> "Frame":
        """Copy of this frame with one header added/replaced."""
        headers = dict(self.headers)
        headers[key] = value
        return self._replace(headers=headers)

    @property
    def size(self) -> int:
        """Frame size in bytes (payload plus a nominal 18-byte header)."""
        if self.size_override is not None:
            return self.size_override
        return len(self.payload) + 18


class GemFrame(NamedTuple):
    """GPON Encapsulation Method frame: a flow id plus an inner frame.

    Downstream GEM frames are broadcast to every ONU on the PON; each ONU
    filters on ``gem_port``. Without payload encryption any ONU (or a
    fiber tap) can read every flow — the paper's interception threat.
    """

    gem_port: int
    inner: Frame
    encrypted: bool = False
    key_index: int = 0

    @property
    def size(self) -> int:
        """GEM frame size in bytes (inner frame plus 5-byte GEM header)."""
        return self.inner.size + 5
