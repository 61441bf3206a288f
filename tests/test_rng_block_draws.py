"""Evidence for ROADMAP 3(a), taken before anyone prefetches RNG blocks.

``RandomStreams.jitter`` draws one scalar ``Generator.normal(mean,
rel_std * mean)`` per simulated message.  Prefetching a block of standard
normals per stream and scaling at use (``mean + (rel_std * mean) * z``)
would cut that cost — but only if it reproduces the scalar draws *bit for
bit*, or every golden moves.  These tests pin, on the installed numpy,
that it does, and what breaks it: any other draw interleaved on the same
stream.  Test-only; nothing under ``src/`` changes.

numpy documents neither property, so a numpy that breaks one skips with
the reason (the prefetch is then simply not available there) instead of
failing the suite.
"""

import numpy as np
import pytest

from repro.sim import RandomStreams

DRAWS = 100_000
BLOCKS = (1, 7, 64, 1000)


def parameters(count):
    """Randomised (mean, rel_std) pairs spanning the calibration's range
    (sub-millisecond stage costs to minutes; cv 0 to 0.5)."""
    rng = RandomStreams(20060925).stream("parameters")
    means = 10.0 ** rng.uniform(-4, 3, count)
    rel_stds = rng.uniform(0.0, 0.5, count)
    return means.tolist(), rel_stds.tolist()


def scalar_draws(stream, means, rel_stds):
    """What ``RandomStreams.jitter`` does today, one draw per message."""
    return [float(stream.normal(mean, rel_std * mean))
            for mean, rel_std in zip(means, rel_stds)]


def block_draws(stream, means, rel_stds, block):
    """The candidate: standard normals in blocks of ``block``, scaled and
    shifted at use."""
    out = []
    while len(out) < len(means):
        for z in stream.standard_normal(block).tolist():
            if len(out) == len(means):
                break  # the rest of the last block is simply unused
            i = len(out)
            out.append(means[i] + (rel_stds[i] * means[i]) * z)
    return out


def skip_unless_identical(got, want, what):
    if got != want:
        differing = sum(a != b for a, b in zip(got, want))
        pytest.skip(
            f"numpy {np.__version__}: {what} differs from scalar "
            f"Generator.normal in {differing}/{len(want)} draws — block "
            f"prefetch (ROADMAP 3a) is not bit-identical on this numpy")


@pytest.mark.parametrize("block", BLOCKS)
def test_scaled_standard_normal_blocks_equal_scalar_normal_draws(block):
    means, rel_stds = parameters(DRAWS)
    name = "net/jitter/site00"
    want = scalar_draws(RandomStreams(7).stream(name), means, rel_stds)
    got = block_draws(RandomStreams(7).stream(name), means, rel_stds, block)
    assert len(got) == len(want) == DRAWS
    # == on floats, draw by draw: a last-ulp difference is a failure of
    # the property, not noise.
    skip_unless_identical(got, want, f"standard_normal({block}) blocks")
    assert got == want


@pytest.mark.parametrize("other", ["integers", "exponential"])
def test_an_interleaved_draw_on_the_same_stream_breaks_the_equivalence(
        other):
    """A block has already consumed the generator past the point where
    the scalar path makes its ``integers``/``exponential`` draw, so that
    draw — and every jitter after it — comes out different.  A prefetch
    must therefore be exclusive to jitter-only streams."""
    means, rel_stds = parameters(40)
    block, cut = 64, 10  # the other draw lands inside the first block

    def draw_other(stream):
        if other == "integers":
            return int(stream.integers(0, 1 << 30))
        return float(stream.exponential(1.0))

    scalar = RandomStreams(7).stream("shared")
    want = scalar_draws(scalar, means[:cut], rel_stds[:cut])
    want_other = draw_other(scalar)
    want += scalar_draws(scalar, means[cut:], rel_stds[cut:])

    blocked = RandomStreams(7).stream("shared")
    zs = blocked.standard_normal(block).tolist()
    got_other = draw_other(blocked)  # after the block, not after draw 10
    got = [m + (r * m) * z for m, r, z in zip(means, rel_stds, zs)]

    skip_unless_identical(got[:cut], want[:cut], "the first block")
    assert got[:cut] == want[:cut]
    # The interleaved draw itself moves...
    assert got_other != want_other
    # ...and so does the jitter sequence after it: the scalar path spent
    # generator state on the other draw, the block did not.
    assert got[cut:] != want[cut:]


def test_a_jitter_only_stream_is_unaffected_by_draws_on_other_streams():
    """Named streams are independent generators, so the exclusivity the
    previous test demands is per stream name, not per ``RandomStreams``."""
    means, rel_stds = parameters(1000)
    quiet = RandomStreams(7)
    want = scalar_draws(quiet.stream("jitter-only"), means, rel_stds)
    busy = RandomStreams(7)
    got = []
    for start in range(0, 1000, 64):
        busy.exponential("arrivals", 3.0)
        busy.choice("selection", ["a", "b", "c"])
        zs = busy.stream("jitter-only").standard_normal(64).tolist()
        got += [m + (r * m) * z for m, r, z in
                zip(means[start:start + 64], rel_stds[start:start + 64], zs)]
    skip_unless_identical(got, want, "standard_normal(64) blocks")
    assert got == want
