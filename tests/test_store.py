import gzip
import io
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mf import PatternKey, Proposition, Store, generate_sources, merge_stores
from mf.errors import FormatError, StoreStateError
from mf.labels import DEFAULT_LABELS, label_arity

from .lexemes import LEXEMES
from .randstores import brute_force_containing, make_random_store


def vn(v, n):
    return Proposition("VN", (v, n))


def test_add_counts():
    store = Store()
    store.add(vn("fight", "poverty"))
    store.add(vn("fight", "poverty"))
    store.freeze()
    assert store.freq(vn("fight", "poverty")) == 2


def test_add_to_frozen_store_rejected():
    store = Store().add(vn("fight", "poverty")).freeze()
    with pytest.raises(StoreStateError):
        store.add(vn("fight", "poverty"))


def test_query_before_freeze_rejected():
    store = Store().add(vn("fight", "poverty"))
    with pytest.raises(StoreStateError):
        store.tuples_containing("poverty")


def test_shard_merge():
    a = Store().add(vn("fight", "poverty"), 3)
    b = Store().add(vn("fight", "poverty"), 5).add(vn("fight", "crime"), 1)
    merged = merge_stores([a, b])
    assert merged.freq(vn("fight", "poverty")) == 8
    assert merged.freq(vn("fight", "crime")) == 1


def test_merge_associative_commutative():
    rng = random.Random(7)
    shards = [make_random_store(rng, max_tuples=20, vocab=6) for _ in range(3)]
    a, b, c = shards
    left = merge_stores([merge_stores([a, b]), c])
    right = merge_stores([a, merge_stores([b, c])])
    swapped = merge_stores([c, a, b])
    assert left == right == swapped


def test_tuples_containing_positions():
    store = Store()
    store.add(Proposition("NV", ("poverty", "affect")))
    store.add(vn("fight", "poverty"), 3)
    store.freeze()
    got = store.tuples_containing("poverty")
    assert got == ((Proposition("NV", ("poverty", "affect")), 0),
                   (vn("fight", "poverty"), 1))
    assert store.tuples_containing("absent") == ()


def test_lexeme_in_two_slots_yields_two_results():
    store = Store().add(Proposition("NN", ("war", "war"))).freeze()
    assert store.tuples_containing("war") == (
        (Proposition("NN", ("war", "war")), 0),
        (Proposition("NN", ("war", "war")), 1))


def test_tuples_matching():
    store = Store()
    store.add(vn("fight", "poverty"), 3)
    store.add(vn("fight", "terrorism"), 6)
    store.freeze()
    blank_obj = PatternKey("VN", ("fight", None))
    assert store.tuples_matching(blank_obj) == (vn("fight", "poverty"),
                                                vn("fight", "terrorism"))
    blank_verb = PatternKey("VN", (None, "poverty"))
    assert store.tuples_matching(blank_verb) == (vn("fight", "poverty"),)
    assert Store().freeze().tuples_matching(blank_obj) == ()


def test_pattern_total_matches_matching_sum():
    rng = random.Random(11)
    for _ in range(20):
        store = make_random_store(rng)
        for key in store.pattern_keys():
            assert store.pattern_total(key) == sum(
                store.freq(t) for t in store.tuples_matching(key))


def test_indexes_agree_with_linear_scan():
    rng = random.Random(13)
    for _ in range(20):
        store = make_random_store(rng)
        for lexeme in sorted(store.lexemes()):
            assert store.tuples_containing(lexeme) == \
                tuple(sorted(brute_force_containing(lexeme, store)))


def propositions(lexemes):
    return st.sampled_from(DEFAULT_LABELS).flatmap(lambda label: st.builds(
        Proposition, st.just(label), st.tuples(*[lexemes] * label_arity(label))))


PROPOSITIONS = propositions(LEXEMES)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(propositions(st.sampled_from(["a", "b", "c", "#d"])),
                          st.integers(1, 9)), min_size=1, max_size=30),
       st.randoms(use_true_random=False))
def test_queries_independent_of_insertion_order(entries, rng):
    shuffled = list(entries)
    rng.shuffle(shuffled)
    first, second = Store(), Store()
    for prop, freq in entries:
        first.add(prop, freq)
    for prop, freq in shuffled:
        second.add(prop, freq)
    first.freeze()
    second.freeze()
    assert list(first.pattern_keys()) == list(second.pattern_keys())
    for key in first.pattern_keys():
        assert first.tuples_matching(key) == second.tuples_matching(key)
    for lexeme in sorted(first.lexemes()):
        assert first.tuples_containing(lexeme) == second.tuples_containing(lexeme)
        # exact float equality: the store fixes the accumulation order
        assert [(s.lexeme, s.weight, s.evidence)
                for s in generate_sources(lexeme, first)] == \
            [(s.lexeme, s.weight, s.evidence)
             for s in generate_sources(lexeme, second)]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(PROPOSITIONS, st.integers(1, 1000)), max_size=8),
       st.sampled_from(["store.tsv", "store.tsv.gz"]))
def test_save_load_roundtrip(entries, name):
    store = Store()
    for prop, freq in entries:
        store.add(prop, freq)
    store.freeze()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        store.save(path)
        assert Store.load(path) == store


def test_save_load_gzip(tmp_path):
    store = Store().add(vn("fight", "poverty"), 3).freeze()
    path = tmp_path / "store.tsv.gz"
    store.save(path)
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        assert fh.read() == "VN\tfight\tpoverty\t3\n"
    assert Store.load(path) == store


def test_row_format():
    store = Store.load(io.StringIO("VN\tfight\tpoverty\t3\n"))
    assert store.freq(vn("fight", "poverty")) == 3


def test_bad_arity_reports_row():
    rows = "VN\tfight\tpoverty\t3\nVN\ta\tb\tc\td\te\t5\n"
    with pytest.raises(FormatError) as err:
        Store.load(io.StringIO(rows))
    assert err.value.row == 2


def test_non_integer_frequency_reports_row():
    with pytest.raises(FormatError) as err:
        Store.load(io.StringIO("VN\tfight\tpoverty\tmany\n"))
    assert err.value.row == 1


def test_min_freq_floor():
    store = Store()
    store.add(vn("fight", "poverty"), 5)
    store.add(vn("fight", "typo"), 1)
    store.freeze(min_freq=2)
    assert len(store) == 1
    assert store.freq(vn("fight", "typo")) == 0


def test_save_rows_sorted(tmp_path):
    store = Store()
    store.add(vn("zap", "b"))
    store.add(vn("ann", "a"))
    store.add(Proposition("AN", ("deep", "pit")))
    store.freeze()
    path = tmp_path / "store.tsv"
    store.save(path)
    rows = path.read_text("utf-8").splitlines()
    assert rows == sorted(rows)


def test_pattern_key_invariants():
    key = PatternKey("VN", ("fight", None))
    assert key.blank_position == 1
    assert vn("fight", "poverty").pattern(1) == key
    assert vn("cure", "poverty").pattern(1) != key
    for position in (-1, 2):
        with pytest.raises(IndexError):
            vn("fight", "poverty").pattern(position)


def test_add_rejects_slot_count_of_another_label():
    store = Store()
    with pytest.raises(FormatError):
        store.add(Proposition("VN", ("fight", "poverty", "now")))
    with pytest.raises(FormatError):
        store.add(Proposition("NVPN", ("war", "rage")))
    assert len(store) == 0
