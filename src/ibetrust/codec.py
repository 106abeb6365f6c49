"""Wire formats: 127-byte frames, the record MAC, fragmentation.

A frame is a modelled object, never serialized: it holds the fields the
simulator needs (destination, source, index within its message, more)
and at most 106 payload bytes, and its header is counted as the fixed
21 bytes a real 802.15.4-style stack would occupy.  Only `fragment`
builds frames, so Frame checks no field: blobs are cut into raw 106-byte
chunks numbered from 0, `more` marks every chunk but the last, and the
ids are 2-byte wire ids (the registry's, or a scenario's checked
claimed_wire).  Each protocol record carries its own truncated_mac.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

HEADER_SIZE = 21
MAX_FRAME = 127
MAX_PAYLOAD = MAX_FRAME - HEADER_SIZE  # 106
MAC_SIZE = 4


def truncated_mac(data: bytes) -> bytes:
    """First 4 bytes of SHA-256.  Unkeyed: when used inside a ciphertext
    the surrounding encryption is what stops forgery; used bare it is an
    integrity check only."""
    return hashlib.sha256(data).digest()[:MAC_SIZE]


@dataclass
class Frame:
    dst: int
    src: int
    seq: int
    more: bool = False
    payload: bytes = b""

    @property
    def wire_size(self) -> int:
        return HEADER_SIZE + len(self.payload)


def fragment(dst: int, src: int, blob: bytes) -> list[Frame]:
    """Split a blob into frames of at most 106 payload bytes, numbered
    from 0; an empty blob gives no frames.  Every blob the program sends
    is an encrypted message or an AKE message, and neither is empty;
    energy.framed_airtime sizes other payloads by the same frames."""
    chunks = [blob[i : i + MAX_PAYLOAD] for i in range(0, len(blob), MAX_PAYLOAD)]
    last = len(chunks) - 1
    return [Frame(dst, src, seq=i, more=i < last, payload=chunk)
            for i, chunk in enumerate(chunks)]


def reassemble(frames: list[Frame]) -> bytes:
    """Inverse of fragment; raises ValueError on gaps or disorder.  Frame
    i must carry seq i, so the tail of a message is not taken for all of it."""
    if not frames:
        raise ValueError("no fragments")
    src, dst = frames[0].src, frames[0].dst
    for i, f in enumerate(frames):
        if (f.src, f.dst) != (src, dst):
            raise ValueError("mixed fragment streams")
        if f.seq != i:
            raise ValueError("missing fragment")
        want_more = i < len(frames) - 1
        if f.more != want_more:
            raise ValueError("fragment chain broken")
        if want_more and len(f.payload) != MAX_PAYLOAD:
            raise ValueError("short non-final fragment")
    return b"".join(f.payload for f in frames)


def on_air_bytes(frames: list[Frame]) -> int:
    return sum(f.wire_size for f in frames)
