"""Tests for the deterministic RNG stream hierarchy."""

import copy
import pickle

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


def seeded(stream: RngStream) -> bool:
    """Whether the stream's generator exists, read without creating it."""
    try:
        RngStream._gen.__get__(stream)
    except AttributeError:
        return False
    return True


# Each stream method, and the numpy call an eagerly seeded generator makes for it.
DRAWS = {
    "uniform": (lambda s: s.uniform(2.0, 5.0), lambda g: float(g.uniform(2.0, 5.0))),
    "integer": (lambda s: s.integer(3, 90), lambda g: int(g.integers(3, 91))),
    "normal": (lambda s: s.normal(1.0, 3.0), lambda g: float(g.normal(1.0, 3.0))),
    "lognormal": (lambda s: s.lognormal(0.5, 0.2), lambda g: float(g.lognormal(0.5, 0.2))),
    "exponential": (lambda s: s.exponential(4.0), lambda g: float(g.exponential(4.0))),
    "choice": (lambda s: s.choice("abcd", weights=[1, 2, 3, 4]),
               lambda g: "abcd"[int(g.choice(4, p=np.array([1, 2, 3, 4]) / 10))]),
    "shuffle": (lambda s: _shuffled(s.shuffle), lambda g: _shuffled(g.shuffle)),
    "normals": (lambda s: s.normals(0.0, 1.0, 7).tolist(),
                lambda g: g.normal(0.0, 1.0, size=7).tolist()),
    "lognormals": (lambda s: s.lognormals(0.0, 1.0, 7).tolist(),
                   lambda g: g.lognormal(0.0, 1.0, size=7).tolist()),
    "uniforms": (lambda s: s.uniforms(1.0, 2.0, 7).tolist(),
                 lambda g: g.uniform(1.0, 2.0, size=7).tolist()),
    "paretos": (lambda s: s.paretos(1.5, 7).tolist(), lambda g: g.pareto(1.5, size=7).tolist()),
}


def _shuffled(shuffle) -> list:
    items = list(range(12))
    shuffle(items)
    return items


class TestLazySeeding:
    @pytest.mark.parametrize("method", sorted(DRAWS))
    @given(seed=st.integers(min_value=0, max_value=2**64 - 1))
    def test_draws_equal_eager_seeding(self, method, seed):
        draw, eager = DRAWS[method]
        stream = RngStream(seed)
        assert not seeded(stream)
        gen = np.random.Generator(np.random.PCG64(seed))
        assert [draw(stream) for _ in range(3)] == [eager(gen) for _ in range(3)]
        assert seeded(stream)

    def test_a_stream_only_forked_from_never_seeds(self):
        root = RngStream(5)
        child = root.fork("cloud").fork("instance.0")
        child.uniform()
        assert not seeded(root)
        assert not seeded(root.fork("cloud"))
        assert seeded(child)

    @pytest.mark.parametrize("roundtrip", [copy.deepcopy,
                                           lambda s: pickle.loads(pickle.dumps(s))])
    @pytest.mark.parametrize("drawn", [0, 1, 5])
    def test_copies_keep_the_position(self, roundtrip, drawn):
        stream = RngStream(13, "root.x")
        for _ in range(drawn):
            stream.uniform()
        twin = roundtrip(stream)
        assert (twin.seed, twin.name) == (stream.seed, stream.name)
        assert twin.normals(0.0, 1.0, 4).tolist() == stream.normals(0.0, 1.0, 4).tolist()

    def test_other_missing_attributes_still_raise(self):
        with pytest.raises(AttributeError):
            RngStream(1).gen
