"""The contract of ``RandomStreams``' drawn-ahead names.

A name first drawn through ``RandomStreams.normal`` (and so ``jitter``,
one draw per simulated message) takes standard normals in blocks and
returns ``loc + scale * z``.  That must reproduce one scalar numpy
``normal`` call per value *bit for bit*, or every golden moves.  Two
kinds of evidence live here:

* about numpy: scaled ``standard_normal`` blocks equal scalar ``normal``
  draws, and any other draw interleaved on the same generator breaks the
  equivalence (which is why a drawn-ahead name is exclusive);
* about ``RandomStreams`` itself: random programs of draws give the same
  values as a scalar reference kept in this file — the per-call
  ``stream(name).<kind>(...)`` the class used to make — and the
  exclusivity, argument checks and order independence hold.

numpy documents neither property and ``src/`` depends on both, so a numpy
that breaks one fails here.

The third numpy property ``src/`` relies on is how a name is seeded.
``RandomStreams`` derives each name's four PCG64 seed words in closed
form instead of building ``SeedSequence(entropy=seed, spawn_key=(k0,
k1))``; ``TestSeedDerivationMatchesNumpy`` requires every kind of draw
the substrate makes to equal numpy's own seeding, draw for draw, over
seeds up to 2**160 and arbitrary names — a numpy that changes its
seeding (or a slip in the derivation) fails there.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    """One scalar ``Generator.normal`` per message."""
    return [float(stream.normal(mean, rel_std * mean))
            for mean, rel_std in zip(means, rel_stds)]


def block_draws(stream, means, rel_stds, block):
    """Standard normals in blocks of ``block``, scaled and shifted at use."""
    out = []
    while len(out) < len(means):
        for z in stream.standard_normal(block).tolist():
            if len(out) == len(means):
                break  # the rest of the last block is simply unused
            i = len(out)
            out.append(means[i] + (rel_stds[i] * means[i]) * z)
    return out


# -- numpy --------------------------------------------------------------------

@pytest.mark.parametrize("block", BLOCKS)
def test_scaled_standard_normal_blocks_equal_scalar_normal_draws(block):
    means, rel_stds = parameters(DRAWS)
    name = "net/jitter/site00"
    want = scalar_draws(RandomStreams(7).stream(name), means, rel_stds)
    got = block_draws(RandomStreams(7).stream(name), means, rel_stds, block)
    assert len(got) == len(want) == DRAWS
    # == on floats, draw by draw: a last-ulp difference is a failure of
    # the property, not noise.
    assert got == want


@pytest.mark.parametrize("other", ["integers", "exponential"])
def test_an_interleaved_draw_on_the_same_stream_breaks_the_equivalence(
        other):
    """A block has already consumed the generator past the point where
    the scalar path makes its ``integers``/``exponential`` draw, so that
    draw — and every jitter after it — comes out different.  Block draws
    must therefore be exclusive to normal-only names."""
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
    assert got == want


# -- RandomStreams against the scalar reference ---------------------------------

class ScalarStreams:
    """Every draw is one scalar call on ``stream(name)``: what
    ``RandomStreams`` did before normals came in blocks.  Kept here, not
    in ``src/``, so no second code path ships."""

    def __init__(self, seed):
        self._rng = RandomStreams(seed)

    def normal(self, name, loc, scale):
        return float(self._rng.stream(name).normal(loc, scale))

    def jitter(self, name, mean, rel_std=0.1, floor=0.0):
        if mean <= 0:
            return max(mean, floor)
        return max(float(self._rng.stream(name).normal(mean, rel_std * mean)),
                   floor)

    def exponential(self, name, mean):
        return self._rng.exponential(name, mean)

    def uniform(self, name, low, high):
        return self._rng.uniform(name, low, high)

    def choice(self, name, options):
        return self._rng.choice(name, options)

    def shuffled(self, name, options):
        return self._rng.shuffled(name, options)


def run(rng, program):
    """Apply ``program`` to ``rng``; every value drawn, in order."""
    out = []
    for op, name, *args in program:
        if op == "normals":  # a run of draws, to cross block boundaries
            loc, scale, count = args
            out += [rng.normal(name, loc, scale) for _ in range(count)]
        elif op == "choice":
            out.append(rng.choice(name, list(range(args[0]))))
        elif op == "shuffled":
            out.append(tuple(rng.shuffled(name, range(args[0]))))
        else:
            out.append(getattr(rng, op)(name, *args))
    return out


_NORMAL_NAMES = st.sampled_from(["conn/a->b", "ca/n0/0/trap", "js/ui/type"])
_OTHER_NAMES = st.sampled_from(["mix/gap", "matchmaker/7"])
_mean = st.one_of(st.sampled_from([0.0, -0.0, -1.0, 1e-4]),
                  st.floats(-1.0, 1e3, allow_nan=False))
_scale = st.one_of(st.just(0.0), st.floats(0.0, 50.0, allow_nan=False))
_ops = st.one_of(
    st.tuples(st.just("jitter"), _NORMAL_NAMES, _mean,
              st.floats(0.0, 0.5), st.floats(0.0, 1.0)),
    st.tuples(st.just("normal"), _NORMAL_NAMES, _mean, _scale),
    st.tuples(st.just("normals"), _NORMAL_NAMES, _mean, _scale,
              st.integers(1, 150)),
    st.tuples(st.just("exponential"), _OTHER_NAMES, st.floats(0.1, 10.0)),
    st.tuples(st.just("uniform"), _OTHER_NAMES, st.just(0.0),
              st.floats(0.0, 5.0)),
    st.tuples(st.just("choice"), _OTHER_NAMES, st.integers(1, 9)),
    st.tuples(st.just("shuffled"), _OTHER_NAMES, st.integers(0, 6)),
)

# One name crossing every block size (1, 2, 4, ..., 64, 64, ...).
ACROSS_BLOCKS = [("normals", "conn/a->b", 0.01, 0.0005, 150),
                 ("normals", "conn/a->b", 3.0, 0.3, 150)]
# Draws around a skipped mean <= 0 and a zero scale.
NO_DRAW_BETWEEN = [("jitter", "js/ui/type", 2.0, 0.1, 0.0),
                   ("jitter", "js/ui/type", 0.0, 0.1, 0.0),
                   ("jitter", "js/ui/type", -1.0, 0.1, 0.5),
                   ("normal", "js/ui/type", 5.0, 0.0),
                   ("jitter", "js/ui/type", 2.0, 0.1, 1.9)]


class TestRandomStreamsMatchesScalarReference:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           program=st.lists(_ops, max_size=40))
    @example(seed=7, program=ACROSS_BLOCKS)
    @example(seed=7, program=NO_DRAW_BETWEEN)
    def test_programs(self, seed, program):
        assert run(RandomStreams(seed), program) == \
            run(ScalarStreams(seed), program)

    def test_a_name_drawn_once_holds_no_block(self):
        rng = RandomStreams(3)
        rng.jitter("syn/a->b:20000/a->b", 0.01, 0.05)
        assert rng._blocks["syn/a->b:20000/a->b"].pending == []


class TestOneWayPerName:
    @pytest.mark.parametrize("draw", [
        lambda rng: rng.stream("x"),
        lambda rng: rng.exponential("x", 1.0),
        lambda rng: rng.uniform("x", 0.0, 1.0),
        lambda rng: rng.choice("x", [1, 2]),
        lambda rng: rng.shuffled("x", [1, 2]),
    ], ids=["stream", "exponential", "uniform", "choice", "shuffled"])
    def test_a_normal_only_name_refuses_every_other_draw(self, draw):
        rng = RandomStreams(1)
        rng.normal("x", 0.0, 1.0)
        with pytest.raises(ValueError, match="'x'"):
            draw(rng)

    @pytest.mark.parametrize("draw", [
        lambda rng: rng.normal("y", 0.0, 1.0),
        lambda rng: rng.jitter("y", 1.0),
    ], ids=["normal", "jitter"])
    def test_a_name_handed_out_by_stream_refuses_normal(self, draw):
        rng = RandomStreams(1)
        rng.exponential("y", 1.0)
        with pytest.raises(ValueError, match="'y'"):
            draw(rng)

    def test_an_unused_normal_name_stays_free(self):
        """``mean <= 0`` draws nothing, so it decides nothing either."""
        rng = RandomStreams(1)
        rng.jitter("z", 0.0)
        rng.stream("z")


class TestArguments:
    @pytest.mark.parametrize("scale", [-1.0, -0.0, -1e-300])
    def test_negative_scale_raises_as_numpy_does(self, scale):
        with pytest.raises(ValueError) as numpy_error:
            RandomStreams(1).stream("n").normal(0.0, scale)
        rng = RandomStreams(1)
        with pytest.raises(ValueError) as ours:
            rng.normal("n", 0.0, scale)
        assert str(ours.value) == str(numpy_error.value)
        # The refused call consumed nothing.
        assert rng.normal("n", 0.0, 1.0) == RandomStreams(1).normal(
            "n", 0.0, 1.0)

    def test_negative_rel_std_raises(self):
        with pytest.raises(ValueError):
            RandomStreams(1).jitter("j", 1.0, rel_std=-0.1)

    @pytest.mark.parametrize("mean", [0.0, -0.0, -3.0])
    def test_mean_at_or_below_zero_consumes_no_draw(self, mean):
        rng = RandomStreams(5)
        assert rng.jitter("j", mean, floor=0.25) == max(mean, 0.25)
        assert rng.jitter("j", 2.0) == RandomStreams(5).jitter("j", 2.0)

    def test_nan_scale_passes_as_in_numpy(self):
        assert np.isnan(RandomStreams(1).normal("n", 0.0, float("nan")))


class TestOrderIndependence:
    def test_a_names_draws_do_not_depend_on_creation_order(self):
        names = ["conn/a->b", "conn/b->a", "ca/n0/0/trap"]

        def draws(order, rounds):
            rng = RandomStreams(11)
            out = {name: [] for name in names}
            for _ in range(rounds):
                for name in order:
                    out[name].append(rng.jitter(name, 1.0, 0.2))
            return out

        first = draws(names, 100)
        assert draws(names[::-1], 100) == first
        # One name alone, drawn before any other exists.
        alone = RandomStreams(11)
        assert [alone.jitter(names[1], 1.0, 0.2)
                for _ in range(100)] == first[names[1]]


# -- the seed derivation against numpy's SeedSequence ----------------------------

def numpy_stream(seed, name):
    """The generator numpy itself seeds for ``name`` under ``seed``."""
    digest = int.from_bytes(
        hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest(),
        "little")
    return np.random.default_rng(np.random.SeedSequence(  # simlint: disable=unseeded-random -- numpy's own seeding is the reference the closed form is checked against
        entropy=seed,
        spawn_key=(digest & 0x7FFFFFFF, (digest >> 31) & 0x7FFFFFFF)))


def every_kind_of_draw(gen):
    """The first draws of each kind ``src/`` makes, each kind from a
    fresh generator so a slip in one kind cannot hide behind another."""
    items = list(range(12))
    gen().shuffle(items)
    return {
        "standard_normal": [gen().standard_normal(block).tolist()
                            for block in (1, 2, 64)],
        "exponential": gen().exponential(3.0, 4).tolist(),
        "uniform": gen().uniform(0.0, 1.0, 4).tolist(),
        "integers": gen().integers(0, 2**31 - 1, 4).tolist(),
        "shuffle": items,
    }


_SEEDS = st.one_of(st.integers(0, 2**32), st.integers(0, 2**160 - 1))


class TestSeedDerivationMatchesNumpy:
    @settings(max_examples=200, deadline=None)
    @given(seed=_SEEDS, name=st.text())
    @example(seed=0, name="")
    @example(seed=2**32 - 1, name="mix/int/par/0")
    @example(seed=2**128 - 1, name="net/jitter/site00")
    @example(seed=2**128, name="é☃𝔛")
    @example(seed=2**160 - 1, name="spawn/network")
    def test_every_draw_equals_numpy_seeding(self, seed, name):
        ours = RandomStreams(seed)
        assert every_kind_of_draw(lambda: ours._generator(name)) == \
            every_kind_of_draw(lambda: numpy_stream(seed, name))

    @settings(max_examples=100, deadline=None)
    @given(seed=_SEEDS, name=st.text(), child_name=st.text())
    def test_spawned_children_equal_numpy_seeding(self, seed, name,
                                                  child_name):
        child_seed = int(numpy_stream(seed, f"spawn/{name}")
                         .integers(0, 2**31 - 1))
        child = RandomStreams(seed).spawn(name)
        assert child.seed == child_seed
        assert every_kind_of_draw(lambda: child._generator(child_name)) == \
            every_kind_of_draw(lambda: numpy_stream(child_seed, child_name))

    @pytest.mark.parametrize("seed", [-1, -2**64])
    def test_a_negative_seed_raises_at_construction(self, seed):
        with pytest.raises(ValueError):
            np.random.SeedSequence(seed)  # simlint: disable=unseeded-random -- numpy's own seeding is the reference the closed form is checked against
        with pytest.raises(ValueError):
            RandomStreams(seed)
