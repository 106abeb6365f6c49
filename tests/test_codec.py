"""Frame codec behavior and fragmentation."""

import dataclasses
import random

import pytest

from ibetrust import codec


class TestFrameCodec:
    def test_max_frame(self):
        f = codec.Frame(dst=0, src=0, seq=0, payload=b"x" * codec.MAX_PAYLOAD)
        assert f.wire_size == 127


class TestFragmentation:
    def test_400_bytes_is_4_frames(self):
        frames = codec.fragment(1, 2, b"y" * 400)
        assert len(frames) == 4
        assert [len(f.payload) for f in frames] == [106, 106, 106, 82]
        assert codec.on_air_bytes(frames) == 484
        assert [f.more for f in frames] == [True, True, True, False]

    def test_exact_fit(self):
        frames = codec.fragment(1, 2, b"y" * 106)
        assert len(frames) == 1
        assert frames[0].wire_size == 127
        assert not frames[0].more

    def test_roundtrip_all_lengths(self):
        rng = random.Random(12)
        for length in range(1, 1001):
            blob = rng.randbytes(length)
            assert codec.reassemble(codec.fragment(5, 6, blob)) == blob

    def test_consecutive_seq(self):
        frames = codec.fragment(1, 2, b"z" * 300)
        assert [f.seq for f in frames] == [0, 1, 2]

    def test_missing_fragment(self):
        frames = codec.fragment(1, 2, b"z" * 400)
        # a gap, a lone tail, a lost first frame: a tail is not a whole message
        for kept in ([frames[0], frames[2], frames[3]], frames[-1:], frames[1:]):
            with pytest.raises(ValueError, match="missing fragment"):
                codec.reassemble(kept)

    def test_broken_chain(self):
        frames = codec.fragment(1, 2, b"z" * 400)
        with pytest.raises(ValueError):
            codec.reassemble(frames[:2])  # ends on a MORE frame

    def test_mixed_streams(self):
        a = codec.fragment(1, 2, b"z" * 200)
        b = codec.fragment(1, 3, b"z" * 200)
        with pytest.raises(ValueError, match="mixed"):
            codec.reassemble([a[0], b[1]])

    def test_short_non_final_fragment(self):
        # fragment cuts every non-final chunk full, so only frames built
        # by hand reach this check; reassemble is a public decoder
        frames = codec.fragment(1, 2, b"z" * 300)
        short = dataclasses.replace(frames[1], payload=frames[1].payload[:-1])
        with pytest.raises(ValueError, match="short non-final fragment"):
            codec.reassemble([frames[0], short, frames[2]])

    def test_no_fragments(self):
        with pytest.raises(ValueError):
            codec.reassemble([])
