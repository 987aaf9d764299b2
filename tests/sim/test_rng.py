"""Unit tests for deterministic random streams."""


import pytest

from repro.sim import RandomStreams


def test_same_seed_same_sequence():
    a = RandomStreams(seed=7).stream("x")
    b = RandomStreams(seed=7).stream("x")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_names_different_sequences():
    streams = RandomStreams(seed=7)
    a = streams.stream("a")
    b = streams.stream("b")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_different_seeds_different_sequences():
    a = RandomStreams(seed=1).stream("x")
    b = RandomStreams(seed=2).stream("x")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_stream_is_cached():
    streams = RandomStreams(seed=3)
    assert streams.stream("x") is streams.stream("x")
    assert "x" in streams
    assert streams.names() == ["x"]


def test_adding_stream_does_not_perturb_existing():
    s1 = RandomStreams(seed=9)
    a1 = s1.stream("a")
    first = [a1.random() for _ in range(3)]

    s2 = RandomStreams(seed=9)
    a2 = s2.stream("a")
    s2.stream("brand-new")  # extra stream created in between
    second = [a2.random() for _ in range(3)]
    assert first == second


def test_exponential_mean():
    stream = RandomStreams(seed=11).stream("exp")
    samples = [stream.exponential(100.0) for _ in range(20000)]
    mean = sum(samples) / len(samples)
    assert abs(mean - 100.0) / 100.0 < 0.05


def test_exponential_rejects_nonpositive_mean():
    stream = RandomStreams(seed=1).stream("exp")
    with pytest.raises(ValueError):
        stream.exponential(0.0)


def test_lognormal_median():
    stream = RandomStreams(seed=13).stream("ln")
    samples = sorted(stream.lognormal_median(50.0, 0.8) for _ in range(20001))
    median = samples[len(samples) // 2]
    assert abs(median - 50.0) / 50.0 < 0.1


def test_bounded_lognormal_respects_bounds():
    stream = RandomStreams(seed=17).stream("bln")
    for _ in range(1000):
        value = stream.bounded_lognormal(100.0, 2.0, low=10.0, high=500.0)
        assert 10.0 <= value <= 500.0


def test_bernoulli_probability():
    stream = RandomStreams(seed=19).stream("bern")
    hits = sum(stream.bernoulli(0.3) for _ in range(20000))
    assert abs(hits / 20000 - 0.3) < 0.02


def test_bernoulli_rejects_bad_probability():
    stream = RandomStreams(seed=1).stream("bern")
    with pytest.raises(ValueError):
        stream.bernoulli(1.5)


def test_randint_range():
    stream = RandomStreams(seed=29).stream("u")
    for _ in range(100):
        assert 1 <= stream.randint(1, 3) <= 3
