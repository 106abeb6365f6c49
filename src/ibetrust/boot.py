"""Measured boot chain and the secure/normal world gate.

Boot images are verified in order: level 1 is the root of trust and is
trusted axiomatically, every later level must hash to the reference
digest stored alongside level 1.  Overall integrity is the product of
the per-level bits, and evaluation stops at the first zero, so a
tampered level k means levels above k are never even measured.

A successful boot yields the platform's trust value: 8 hex characters
cut from the level-2 digest at a configured secret offset.  The same
image bytes always reproduce the same trust value, which is what lets
the base station recognize a platform across reboots.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .errors import AccessViolation, ConfigError

TRUST_VALUE_LEN = 8
DEFAULT_TRUST_OFFSET = 24

SECURE = "secure"
NORMAL = "normal"


def measure(image: bytes) -> str:
    """SHA-256 of the image, lowercase hex (64 chars)."""
    return hashlib.sha256(image).hexdigest()


def trust_value(digest: str, offset: int) -> str:
    """Cut the 8-character trust value out of a digest."""
    if len(digest) != 64:
        raise ConfigError("digest must be 64 hex characters")
    if not 0 <= offset <= 64 - TRUST_VALUE_LEN:
        raise ConfigError(f"offset {offset} leaves no room for 8 characters")
    return digest[offset : offset + TRUST_VALUE_LEN]


@dataclass
class BootImage:
    level: int
    data: bytes
    role: str = ""


@dataclass
class BootChain:
    images: list[BootImage]
    reference_digests: dict[int, str]  # levels 2..N, held with level 1
    trust_offset: int = DEFAULT_TRUST_OFFSET

    def __post_init__(self):
        levels = [img.level for img in self.images]
        if levels != list(range(1, len(levels) + 1)):
            raise ConfigError("image levels must be contiguous from 1")
        if not levels:
            raise ConfigError("chain needs at least one image")
        expected = set(range(2, len(levels) + 1))
        if set(self.reference_digests) != expected:
            raise ConfigError(
                f"reference digests must cover levels {sorted(expected)}"
            )
        if not 0 <= self.trust_offset <= 64 - TRUST_VALUE_LEN:
            raise ConfigError("trust offset out of range")

    @classmethod
    def from_images(cls, blobs: list[bytes], trust_offset: int = DEFAULT_TRUST_OFFSET):
        """Build a chain whose references match the given images, the
        controlled-environment provisioning step."""
        images = [
            BootImage(level=i + 1, data=b, role=f"BL{i + 1}")
            for i, b in enumerate(blobs)
        ]
        refs = {img.level: measure(img.data) for img in images[1:]}
        return cls(images=images, reference_digests=refs, trust_offset=trust_offset)

    @property
    def depth(self) -> int:
        return len(self.images)


@dataclass
class BootResult:
    trust_value: str | None
    failed_level: int | None
    integrity_bits: dict[int, int]
    # (level, digest, bit) in evaluation order; proves levels past a
    # failure were never measured
    measurements: list[tuple[int, str, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed_level is None


def verify_level(chain: BootChain, k: int) -> int:
    """Integrity bit for one level.  Level 1 is the root of trust."""
    if not 1 <= k <= chain.depth:
        raise ConfigError(f"level {k} outside chain of depth {chain.depth}")
    if k == 1:
        return 1
    ref = chain.reference_digests.get(k)
    if ref is None:
        raise ConfigError(f"no reference digest for level {k}")
    return 1 if measure(chain.images[k - 1].data) == ref else 0


def boot(chain: BootChain) -> BootResult:
    """Evaluate the chain in order, halting at the first bad level.

    On success the trust value is cut from the level-2 digest; a chain
    of depth 1 has no level 2 and cannot produce one.
    """
    bits: dict[int, int] = {}
    measurements: list[tuple[int, str, int]] = []
    for k in range(1, chain.depth + 1):
        if k == 1:
            bits[k] = 1
            continue
        digest = measure(chain.images[k - 1].data)
        bit = 1 if digest == chain.reference_digests[k] else 0
        bits[k] = bit
        measurements.append((k, digest, bit))
        if bit == 0:
            return BootResult(
                trust_value=None,
                failed_level=k,
                integrity_bits=bits,
                measurements=measurements,
            )
    if chain.depth < 2:
        raise ConfigError("trust value needs a level-2 image")
    tv = trust_value(measure(chain.images[1].data), chain.trust_offset)
    return BootResult(
        trust_value=tv, failed_level=None, integrity_bits=bits, measurements=measurements
    )


class WorldState:
    """Two-mode execution state guarding the secure region.

    Assets stored in the secure region are reachable only while in
    secure mode; a put or access from the normal world raises
    AccessViolation.  Each real mode transition fires on_switch, which
    the owning node sets to bill switching energy.
    """

    def __init__(self, mode: str = SECURE):
        if mode not in (SECURE, NORMAL):
            raise ConfigError(f"unknown mode {mode!r}")
        self.mode = mode
        self.on_switch = lambda: None
        self._store: dict[str, object] = {}

    def switch(self, target: str) -> None:
        if target not in (SECURE, NORMAL):
            raise ConfigError(f"unknown mode {target!r}")
        if target == self.mode:
            return
        self.mode = target
        self.on_switch()

    def put(self, name: str, value) -> None:
        if self.mode != SECURE:
            raise AccessViolation(f"write to {name!r} from normal world")
        self._store[name] = value

    def access(self, name: str):
        if self.mode != SECURE:
            raise AccessViolation(f"read of {name!r} from normal world")
        return self._store[name]
