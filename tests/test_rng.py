import hashlib

import numpy as np

from icleq.rng import RngStream


def test_same_key_reproduces_sequence():
    a = RngStream(1234, 7).normal(size=1000)
    b = RngStream(1234, 7).normal(size=1000)
    assert np.array_equal(a, b)


def test_sequence_independent_of_other_streams():
    """Drawing from one stream must not perturb another."""
    lone = RngStream(99, 3).normal(size=64)
    s_other = RngStream(99, 4)
    s_other.normal(size=1000)
    again = RngStream(99, 3).normal(size=64)
    assert np.array_equal(lone, again)


def test_distinct_streams_differ_and_decorrelate():
    n = 100_000
    a = RngStream(5, 0).normal(size=n)
    b = RngStream(5, 1).normal(size=n)
    assert not np.array_equal(a[:64], b[:64])
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.01


def test_derive_is_deterministic_and_injective_in_practice():
    root = RngStream(42)
    ids = {root.derive(i, j).stream for i in range(50) for j in range(50)}
    assert len(ids) == 2500
    assert root.derive(3, 9).stream == root.derive(3, 9).stream


def test_complex_normal_moments():
    z = RngStream(7).complex_normal(size=1_000_000)
    # CN(0,1): zero mean within a 4 sigma band, unit second moment
    se = 1.0 / np.sqrt(z.size)
    assert abs(z.real.mean()) < 4 * se
    assert abs(z.imag.mean()) < 4 * se
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.01
    # each real dimension carries half the power
    assert abs(np.var(z.real) - 0.5) < 0.01
    assert abs(np.var(z.imag) - 0.5) < 0.01


def test_scalar_draw_matches_array_draw_type():
    z = RngStream(1).complex_normal()
    assert isinstance(z, complex)


def test_generator_built_on_first_draw(monkeypatch):
    """A constructed or derived stream builds its Philox generator only
    when it first draws, once, and draws what an eagerly built one does."""
    built = []
    philox = np.random.Philox
    monkeypatch.setattr(np.random, "Philox", lambda **kw: built.append(kw) or philox(**kw))
    root = RngStream(1234, 7)
    child = root.derive(3, 9)
    repr(child)
    assert built == []
    got = child.normal(size=8)
    child.uniform(size=2)
    assert built == [{"key": [child.seed, child.stream]}]
    want = np.random.Generator(philox(key=[child.seed, child.stream])).standard_normal(8)
    assert np.array_equal(got, want)


def test_draws_pinned():
    """Every draw method of a derived stream, as the eager generator drew them."""
    s = RngStream(1234, 7).derive(3, 9)
    h = hashlib.sha256()
    for a in (
        s.normal(5),
        s.uniform(-1.0, 2.0, 3),
        s.integers(0, 100, 4),
        s.complex_normal((2, 3)),
        np.array([s.complex_normal()]),
    ):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest()[:16] == "f734abb29e18db02"
