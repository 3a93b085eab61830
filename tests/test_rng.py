"""The pure-Python sample stream against numpy's default_rng as the oracle:
the same draws bit for bit, on seeded streams and on hand-set PCG64 states
that reach every strip of the ziggurat."""

import numpy as np
import pytest

from leafgauge.rng import _KI, Stream
from leafgauge.verify import _STREAMS, check_rng

_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1


def _hex(v) -> str:
    return float(v).hex()


def _mixed(rng, n: int) -> list[str]:
    out = []
    for i in range(n):
        k = i % 4
        if k == 0:
            out.append(_hex(rng.random()))
        elif k == 1:
            out.append(_hex(rng.uniform(-0.2, 0.2)))
        else:
            out.append(_hex(rng.standard_normal()))
    return out


@pytest.mark.parametrize("seed", [0x5EED, 7, 11])
def test_check_streams_match_numpy(seed):
    for stream in (*range(1, 8), 99):
        ours, ref = Stream([seed, stream]), np.random.default_rng([seed, stream])
        state = ref.bit_generator.state["state"]
        assert (ours.state, ours.inc) == (state["state"], state["inc"])
        assert _mixed(ours, 2000) == _mixed(ref, 2000)


@pytest.mark.parametrize("entropy", [[2**32 + 5, 4], [2**64 + 3, 99], [0, 0], [1, 2, 3, 4, 5, 6]])
def test_multiword_entropy_matches_numpy(entropy):
    # seeds of 2**32 or more split into several words; more than four
    # words take SeedSequence's second mixing loop
    assert _mixed(Stream(entropy), 4000) == _mixed(np.random.default_rng(entropy), 4000)


def _normals(rng, n: int) -> list[str]:
    return [_hex(rng.standard_normal()) for _ in range(n)]


def test_check_rng_draws_numpy_vectors_as_scalars():
    # the samplers draw four scalar normals where the parent drew
    # standard_normal(4); numpy gives the same numbers either way
    for name, stream in _STREAMS.items():
        ref = np.random.default_rng([0x5EED, stream])
        assert _normals(check_rng(0x5EED, name), 8) == [_hex(v) for v in ref.standard_normal(8)]


def _state_emitting(u: int, inc: int) -> int:
    """The PCG64 state whose next output is u: after the step the state is
    hi:lo with a rotation of 0 (top six bits of hi clear) and hi ^ lo = u."""
    hi = 0x0123456789ABCDEF
    after = hi << 64 | (hi ^ u)
    return (after - inc) * pow(_MULT, -1, 1 << 128) & _M128


def _strip_states():
    """(path, strip, u) for the first 64-bit output u of each ziggurat path:
    every strip on the fast path (rabs < ki; none for strip 1, where ki is
    0) and 1..255 on the wedge test, both signs, and strip 0 into the tail
    with both tail signs."""
    out = []
    for idx in range(256):
        for sign in (0, 1):
            if _KI[idx] > 0:
                out.append(("fast", idx, (_KI[idx] - 1) << 9 | sign << 8 | idx))
            rabs = _KI[idx] + 1024 + idx * 977           # >= ki: not the fast path
            if idx > 0:
                out.append(("wedge", idx, rabs << 9 | sign << 8 | idx))
            else:
                out += [("tail", 0, (rabs & ~0x100 | tail << 8) << 9 | sign << 8) for tail in (0, 1)]
    return out


def test_every_ziggurat_strip_matches_numpy():
    inc = Stream([0x5EED, 1]).inc
    cases = _strip_states()
    assert {i for path, i, _ in cases if path == "fast"} == set(range(256)) - {1}
    assert {i for path, i, _ in cases if path == "wedge"} == set(range(1, 256))
    ref = np.random.default_rng(0)
    for path, idx, u in cases:
        state = _state_emitting(u, inc)
        probe, ours = Stream([0]), Stream([0])
        probe.state = ours.state = state
        probe.inc = ours.inc = inc
        assert probe.next_uint64() == u
        ref.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        assert _normals(ours, 3) == _normals(ref, 3), (path, idx, hex(u))
