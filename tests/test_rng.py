import numpy as np
import pytest

from sparsepanel.rng import RngStream, as_generator


def test_same_key_same_draws():
    a = RngStream(123, 5).generator.random(16)
    b = RngStream(123, 5).generator.random(16)
    assert np.array_equal(a, b)


def test_different_streams_differ():
    a = RngStream(123, 0).generator.random(16)
    b = RngStream(123, 1).generator.random(16)
    assert not np.array_equal(a, b)


def test_substream_keyed_by_parent_and_child():
    a = RngStream(7, 2).substream(3).generator.random(8)
    b = RngStream(7, 2).substream(3).generator.random(8)
    c = RngStream(7, 2).substream(4).generator.random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_seed_validation():
    with pytest.raises(ValueError):
        RngStream(-1, 0)
    with pytest.raises(ValueError):
        RngStream(2**64, 0)


def test_as_generator_accepts_common_inputs():
    assert isinstance(as_generator(RngStream(1, 0)), np.random.Generator)
    gen = np.random.default_rng(0)
    assert as_generator(gen) is gen
    assert isinstance(as_generator(5), np.random.Generator)


def test_nested_substreams_depend_on_every_ancestor():
    a = RngStream(7, 0).substream(2).substream(5).substream(0).generator.standard_normal(8)
    b = RngStream(7, 0).substream(4).substream(5).substream(0).generator.standard_normal(8)
    assert not np.array_equal(a, b)


def test_first_level_substream_key_unchanged():
    # one level down the key is (stream id, child id), as it always was
    ss = np.random.SeedSequence(7, spawn_key=(2, 3))
    expected = np.random.Generator(np.random.Philox(ss)).random(8)
    assert np.array_equal(RngStream(7, 2).substream(3).generator.random(8), expected)
