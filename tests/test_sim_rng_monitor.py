"""Unit tests for the kernel's named random streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RandomStreams


class TestRandomStreams:
    def test_same_seed_and_name_same_sequence(self):
        a = RandomStreams(7).stream("x").random(10)
        b = RandomStreams(7).stream("x").random(10)
        assert np.allclose(a, b)

    def test_different_names_differ(self):
        rng = RandomStreams(7)
        a = rng.stream("x").random(10)
        b = rng.stream("y").random(10)
        assert not np.allclose(a, b)

    def test_creation_order_does_not_matter(self):
        r1 = RandomStreams(5)
        r1.stream("a")
        x1 = r1.stream("b").random(5)
        r2 = RandomStreams(5)
        x2 = r2.stream("b").random(5)
        assert np.allclose(x1, x2)

    def test_spawn_is_deterministic_and_independent(self):
        child1 = RandomStreams(3).spawn("trial")
        child2 = RandomStreams(3).spawn("trial")
        assert child1.seed == child2.seed
        other = RandomStreams(3).spawn("other")
        assert other.seed != child1.seed

    def test_jitter_respects_floor(self):
        rng = RandomStreams(11)
        values = [rng.jitter("j", 1.0, rel_std=2.0, floor=0.9)
                  for _ in range(200)]
        assert min(values) >= 0.9

    def test_jitter_zero_mean_passthrough(self):
        rng = RandomStreams(11)
        assert rng.jitter("z", 0.0) == 0.0

    def test_jitter_centers_on_mean(self):
        rng = RandomStreams(13)
        values = [rng.jitter("c", 10.0, 0.05) for _ in range(500)]
        assert abs(np.mean(values) - 10.0) < 0.2

    def test_choice_from_empty_raises(self):
        with pytest.raises(ValueError):
            RandomStreams(1).choice("c", [])

    def test_choice_covers_options(self):
        rng = RandomStreams(2)
        seen = {rng.choice(f"c/{i}", ["a", "b", "c"]) for i in range(100)}
        assert seen == {"a", "b", "c"}

    def test_shuffled_is_permutation(self):
        rng = RandomStreams(9)
        items = list(range(20))
        shuffled = rng.shuffled("s", items)
        assert sorted(shuffled) == items
        assert items == list(range(20))  # input untouched

    def test_exponential_positive(self):
        rng = RandomStreams(4)
        assert all(rng.exponential("e", 2.0) > 0 for _ in range(100))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**30))
    def test_uniform_in_bounds(self, seed):
        rng = RandomStreams(seed)
        value = rng.uniform("u", 3.0, 7.0)
        assert 3.0 <= value <= 7.0

