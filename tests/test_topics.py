import io
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mf import TopicMatrix, load_topic_matrix
from mf.errors import FormatError
from mf.topics import save_topic_matrix

from .lexemes import LEXEMES


def _tm(rows, topics=2):
    return TopicMatrix(topics, {w: np.array(v, dtype=float)
                                for w, v in rows.items()})


def test_disjoint_topics():
    tm = _tm({"a": (1.0, 0.0), "b": (0.0, 1.0)})
    assert tm.relatedness("a", "b") == 0.0


def test_hand_dot_product():
    tm = _tm({"a": (0.5, 0.5), "b": (0.2, 0.8)})
    assert tm.relatedness("a", "b") == pytest.approx(0.5, abs=0)


def test_self_relatedness():
    tm = _tm({"w": (1.0, 0.0)})
    assert tm.relatedness("w", "w") == 1.0


def test_oov_relatedness_zero_with_flag():
    tm = _tm({"a": (1.0, 0.0)})
    assert tm.relatedness("a", "zzz") == 0.0
    assert tm.is_oov("zzz") and not tm.is_oov("a")
    assert "a" in tm and "zzz" not in tm


def test_symmetry_and_cauchy_schwarz():
    rng = random.Random(5)
    for _ in range(30):
        t = rng.randint(1, 50)
        vocab = rng.randint(2, 100)
        raw = np.array([[rng.random() for _ in range(t)] for _ in range(vocab)])
        raw /= raw.sum(axis=0)  # normalize each topic over the vocabulary
        tm = TopicMatrix(t, {f"w{i}": raw[i] for i in range(vocab)})
        words = sorted(tm.vocabulary())
        for _ in range(10):
            w1, w2 = rng.choice(words), rng.choice(words)
            r = tm.relatedness(w1, w2)
            assert r == tm.relatedness(w2, w1)
            assert r >= 0
            bound = tm.relatedness(w1, w1) * tm.relatedness(w2, w2)
            assert r * r <= bound + 1e-9


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
    with pytest.raises(FormatError):
        load_topic_matrix(io.StringIO("T=2\nalpha\t-0.5\t0.5\n"))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4).flatmap(lambda t: st.dictionaries(
    LEXEMES, st.lists(st.floats(0, 1), min_size=t, max_size=t), max_size=6)),
    st.sampled_from(["phi.tsv", "phi.tsv.gz"]))
def test_save_load_roundtrip(rows, name):
    topics = len(next(iter(rows.values()), [0.5]))
    tm = _tm(rows, topics)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        save_topic_matrix(tm, path)
        back = load_topic_matrix(path)
    assert back.topics == tm.topics
    assert back.vocabulary() == tm.vocabulary()
    for w in tm.vocabulary():
        assert np.array_equal(back.vector(w), tm.vector(w))


def test_fixture_matrix(topic_matrix):
    assert topic_matrix.topics == 5
    assert topic_matrix.relatedness("poverty", "corruption") == pytest.approx(0.09)
    assert topic_matrix.is_oov("hole")
