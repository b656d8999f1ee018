import io
import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from mf import TopicMatrix, load_topic_matrix
from mf.errors import FormatError
from mf.topics import save_topic_matrix

from .lexemes import LEXEMES


def test_disjoint_topics():
    tm = TopicMatrix(2, {"a": (1.0, 0.0), "b": (0.0, 1.0)})
    assert tm.relatedness("a", "b") == 0.0


def test_hand_dot_product():
    tm = TopicMatrix(2, {"a": (0.5, 0.5), "b": (0.2, 0.8)})
    assert tm.relatedness("a", "b") == pytest.approx(0.5, abs=0)


def test_self_relatedness():
    tm = TopicMatrix(2, {"w": (1.0, 0.0)})
    assert tm.relatedness("w", "w") == 1.0


def test_oov_relatedness_zero_with_flag():
    tm = TopicMatrix(2, {"a": (1.0, 0.0)})
    assert tm.relatedness("a", "zzz") == 0.0
    assert tm.is_oov("zzz") and not tm.is_oov("a")


def test_symmetry_and_cauchy_schwarz():
    rng = random.Random(5)
    for _ in range(30):
        t = rng.randint(1, 50)
        vocab = rng.randint(2, 100)
        raw = [[rng.random() for _ in range(t)] for _ in range(vocab)]
        totals = [sum(topic) for topic in zip(*raw)]  # normalize each topic
        tm = TopicMatrix(t, {f"w{i}": [x / total for x, total in zip(row, totals)]
                             for i, row in enumerate(raw)})
        words = sorted(tm.vocabulary())
        for _ in range(10):
            w1, w2 = rng.choice(words), rng.choice(words)
            r = tm.relatedness(w1, w2)
            assert r == tm.relatedness(w2, w1)
            assert r >= 0
            bound = tm.relatedness(w1, w1) * tm.relatedness(w2, w2)
            assert r * r <= bound + 1e-9


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 64).flatmap(lambda t: st.tuples(
    st.lists(st.floats(0, 1), min_size=t, max_size=t),
    st.lists(st.floats(0, 1), min_size=t, max_size=t))))
def test_relatedness_is_the_plain_sum_of_products(vectors):
    va, vb = vectors
    tm = TopicMatrix(len(va), {"a": va, "b": vb})
    assert tm.relatedness("a", "b") == sum(x * y for x, y in zip(va, vb))


def test_load_and_header(tmp_path):
    path = tmp_path / "topics.tsv"
    path.write_text("T=3\nalpha\t0.1\t0.2\t0.7\nbeta\t0.5\t0.5\t0.0\n",
                    encoding="utf-8")
    tm = load_topic_matrix(path)
    assert tm.topics == 3
    assert tm.relatedness("alpha", "beta") == pytest.approx(0.15)


def test_missing_header_rejected():
    with pytest.raises(FormatError):
        load_topic_matrix(io.StringIO("alpha\t0.5\t0.5\n"))


def test_wrong_width_reports_row():
    with pytest.raises(FormatError) as err:
        load_topic_matrix(io.StringIO("T=2\nalpha\t0.5\n"))
    assert err.value.row == 2


def test_negative_probability_rejected():
    for value in ("-0.5", "nan", "inf", "-inf"):
        with pytest.raises(FormatError) as err:
            load_topic_matrix(io.StringIO(f"T=2\nalpha\t{value}\t0.5\n"))
        assert err.value.row == 2


def test_word_in_two_rows_reports_the_second():
    with pytest.raises(FormatError, match="word 'alpha' listed again") as err:
        load_topic_matrix(io.StringIO("T=1\nalpha\t0.5\nbeta\t0.5\nalpha\t0.25\n"))
    assert err.value.row == 4


@pytest.mark.parametrize("text", ["T=0\n", "T=0\nalpha\n", "T=-1\nalpha\t0.5\n"])
def test_topic_count_below_one_refused_at_the_header(text):
    with pytest.raises(FormatError, match="topic count must be >= 1") as err:
        load_topic_matrix(io.StringIO(text))
    assert err.value.row == 1


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4).flatmap(lambda t: st.dictionaries(
    LEXEMES, st.lists(st.floats(0, 1), min_size=t, max_size=t), max_size=6)),
    st.sampled_from(["phi.tsv", "phi.tsv.gz"]))
def test_save_load_roundtrip(rows, name):
    topics = len(next(iter(rows.values()), [0.5]))
    tm = TopicMatrix(topics, rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        save_topic_matrix(tm, path)
        back = load_topic_matrix(path)
    assert back.topics == tm.topics
    assert back.vocabulary() == tm.vocabulary()
    for w in tm.vocabulary():
        assert back.vector(w) == tm.vector(w)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4).flatmap(lambda t: st.tuples(st.just(t), st.dictionaries(
    LEXEMES, st.lists(st.floats(0, 1), min_size=t, max_size=t), max_size=6))))
@example((3, {}))  # a header-only matrix
def test_cache_round_trip(matrix):
    # parse, write the cache file, then read the cache file without parsing
    topics, rows = matrix
    with tempfile.TemporaryDirectory() as tmp:
        path, cache = Path(tmp) / "phi.tsv", Path(tmp) / "topics.vec"
        save_topic_matrix(TopicMatrix(topics, rows), path)
        parsed = load_topic_matrix(path, cache)
        with mock.patch("mf.topics._parse", side_effect=AssertionError("parsed")):
            cached = load_topic_matrix(path, cache)
    assert cached.topics == parsed.topics == topics
    assert cached.vocabulary() == parsed.vocabulary() == set(rows)
    for w in rows:
        assert cached.vector(w).tobytes() == parsed.vector(w).tobytes()


def test_fixture_matrix(topic_matrix):
    assert topic_matrix.topics == 5
    assert topic_matrix.relatedness("poverty", "corruption") == pytest.approx(0.09)
    assert topic_matrix.is_oov("hole")
