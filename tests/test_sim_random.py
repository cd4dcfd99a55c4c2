"""Tests for the deterministic RNG stream hierarchy."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.random import RngStream, stable_seed


class TestStableSeed:
    def test_deterministic(self):
        assert stable_seed(42, "corpus") == stable_seed(42, "corpus")

    def test_name_sensitivity(self):
        assert stable_seed(42, "corpus") != stable_seed(42, "cloud")

    def test_seed_sensitivity(self):
        assert stable_seed(42, "corpus") != stable_seed(43, "corpus")

    @given(st.integers(min_value=0, max_value=2**63), st.text(max_size=40))
    def test_range_is_uint64(self, seed, name):
        s = stable_seed(seed, name)
        assert 0 <= s < 2**64


class TestRngStream:
    def test_reproducible_draws(self):
        a = RngStream(7).uniform()
        b = RngStream(7).uniform()
        assert a == b

    def test_fork_is_pure(self):
        """Forking must not consume parent state, in any order."""
        p1 = RngStream(9)
        c_first = p1.fork("x")
        parent_draw_after_fork = p1.uniform()

        p2 = RngStream(9)
        parent_draw_before_fork = p2.uniform()
        c_second = p2.fork("x")

        assert parent_draw_after_fork == parent_draw_before_fork
        assert c_first.uniform() == c_second.uniform()

    def test_fork_independence(self):
        parent = RngStream(1)
        assert parent.fork("a").uniform() != parent.fork("b").uniform()

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngStream(-1)

    def test_integer_inclusive_bounds(self):
        s = RngStream(3)
        draws = {s.integer(1, 3) for _ in range(200)}
        assert draws == {1, 2, 3}

    def test_integer_empty_range(self):
        with pytest.raises(ValueError):
            RngStream(0).integer(5, 4)

    def test_choice_weighted(self):
        s = RngStream(11)
        picks = [s.choice(["a", "b"], weights=[0.0, 1.0]) for _ in range(50)]
        assert set(picks) == {"b"}

    def test_choice_empty(self):
        with pytest.raises(ValueError):
            RngStream(0).choice([])

    def test_choice_weight_shape_mismatch(self):
        with pytest.raises(ValueError):
            RngStream(0).choice(["a", "b"], weights=[1.0])

    def test_shuffle_is_permutation(self):
        items = list(range(20))
        RngStream(8).shuffle(items)
        assert sorted(items) == list(range(20))

    def test_vector_draws_shapes(self):
        s = RngStream(2)
        assert s.normals(0, 1, 5).shape == (5,)
        assert s.lognormals(0, 1, 4).shape == (4,)
        assert s.uniforms(0, 1, 3).shape == (3,)
        assert s.paretos(1.5, 6).shape == (6,)

    @given(st.integers(min_value=0, max_value=2**32))
    def test_lognormal_positive(self, seed):
        assert RngStream(seed).lognormal(0.0, 1.0) > 0

    def test_distribution_sanity(self):
        s = RngStream(123)
        xs = s.normals(10.0, 2.0, 20_000)
        assert abs(float(np.mean(xs)) - 10.0) < 0.1
        assert abs(float(np.std(xs)) - 2.0) < 0.1
