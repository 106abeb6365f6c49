"""Measured boot chain and the secure/normal world gate.

Level k is images[k - 1].  Level 1 is the root of trust and is trusted
axiomatically; every later level k must hash to reference_digests[k - 2],
stored alongside level 1.  `boot` runs the one per-level check,
`verify_level`, for levels 2..N in order and stops at the first zero, so
a tampered level k means levels above k are never even measured.

A successful boot yields the platform's trust value: 8 hex characters
cut from the level-2 digest at a configured secret offset.  The same
image bytes always reproduce the same trust value, which is what lets
the base station recognize a platform across reboots.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import AccessViolation, ConfigError

TRUST_VALUE_LEN = 8
DEFAULT_TRUST_OFFSET = 24

SECURE = "secure"
NORMAL = "normal"


def measure(image: bytes) -> str:
    """SHA-256 of the image, lowercase hex (64 chars)."""
    return hashlib.sha256(image).hexdigest()


def trust_value(digest: str, offset: int) -> str:
    """Cut the 8-character trust value out of a 64-character digest.
    The offset is BootChain's, checked when the chain is built."""
    return digest[offset : offset + TRUST_VALUE_LEN]


@dataclass
class BootChain:
    images: list[bytes]
    reference_digests: tuple[str, ...]  # levels 2..N, held with level 1
    trust_offset: int = DEFAULT_TRUST_OFFSET

    def __post_init__(self):
        if len(self.images) < 2:
            raise ConfigError("chain needs at least two images (level 2 gives the trust value)")
        if len(self.reference_digests) != len(self.images) - 1:
            raise ConfigError(f"need one reference digest per level 2..{len(self.images)}")
        if not 0 <= self.trust_offset <= 64 - TRUST_VALUE_LEN:
            raise ConfigError("trust offset out of range")

    @classmethod
    def from_images(cls, blobs: list[bytes], trust_offset: int = DEFAULT_TRUST_OFFSET):
        """Build a chain whose references match the given images (provisioning)."""
        return cls(images=list(blobs),
                   reference_digests=tuple(measure(b) for b in blobs[1:]),
                   trust_offset=trust_offset)


@dataclass
class BootResult:
    trust_value: str | None
    failed_level: int | None

    @property
    def ok(self) -> bool:
        return self.failed_level is None


def verify_level(chain: BootChain, k: int) -> int:
    """Integrity bit for level k, one of the levels 2..N that boot
    checks; level 1, the root of trust, has no reference to check."""
    return 1 if measure(chain.images[k - 1]) == chain.reference_digests[k - 2] else 0


def boot(chain: BootChain) -> BootResult:
    """Verify levels 2..N in order, halting at the first bad level.

    On success the trust value is cut from the level-2 reference digest,
    which the verified level 2 measured to.
    """
    for k in range(2, len(chain.images) + 1):
        if not verify_level(chain, k):
            return BootResult(trust_value=None, failed_level=k)
    tv = trust_value(chain.reference_digests[0], chain.trust_offset)
    return BootResult(trust_value=tv, failed_level=None)


class WorldState:
    """Two-mode execution state guarding the node's private key.

    The key is installed at the factory and the world starts in normal
    mode; key() returns it in secure mode and raises AccessViolation in
    the normal world.  Each real mode transition fires on_switch, which
    the owning node sets to bill switching energy.
    """

    def __init__(self, key):
        self.mode = NORMAL
        self.on_switch = lambda: None
        self._key = key

    def switch(self, target: str) -> None:
        if target == self.mode:
            return
        self.mode = target
        self.on_switch()

    def key(self):
        if self.mode != SECURE:
            raise AccessViolation("key read from normal world")
        return self._key
