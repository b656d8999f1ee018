import gzip
import hashlib
import io
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import mf
from mf import (PatternKey, Proposition, Store, generate_sources, iter_sentences,
                load_topic_matrix, merge_stores, salient_properties, textio)
from mf.conllu import _CACHE_MAGIC as SENTENCES_MAGIC, _TYPECODES as SENTENCES_TYPECODES
from mf.errors import FormatError, StoreStateError
from mf.extraction import DEFAULT_RULES
from mf.labels import label_arity
from mf.store import _MAGIC as STORE_MAGIC, _TYPECODES as STORE_TYPECODES
from mf.topics import _CACHE_MAGIC as TOPICS_MAGIC

from .lexemes import LEXEMES
from .randstores import brute_force_containing, make_random_store, store_lexemes


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


def test_merge_refuses_a_frequency_over_the_index_limit():
    shards = [Store().add(vn("fight", "poverty"), 2**62) for _ in range(2)]
    with pytest.raises(FormatError, match="VN fight poverty"):
        merge_stores(shards)


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
        index = store.index
        # each pattern's total column against a linear scan of the rows
        for key, p in index.pattern_ids.items():
            blank = key.slots.index(None)
            assert index.pattern_total[p] == sum(
                freq for prop, freq in store
                if prop.label == key.label and prop.pattern(blank) == key)


def test_indexes_agree_with_linear_scan():
    rng = random.Random(13)
    for _ in range(20):
        store = make_random_store(rng)
        for lexeme in store_lexemes(store):
            assert store.tuples_containing(lexeme) == \
                tuple(sorted(brute_force_containing(lexeme, store)))


def propositions(lexemes):
    labels = [rule.label for rule in DEFAULT_RULES]
    return st.sampled_from(labels).flatmap(lambda label: st.builds(
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
    for lexeme in store_lexemes(first):
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


@pytest.mark.parametrize("rows, row, message", [
    pytest.param("VN\tfight\tpoverty\t3\nVN\ta\tb\t0\n", 2,
                 "frequency must be >= 1, got 0", id="zero-frequency"),
    pytest.param("VN\tfight\tpoverty\t3\nVN\ta\tb\t9223372036854775808\n", 2,
                 "is over 9223372036854775807", id="frequency"),
    pytest.param("VN\ta\tb\t9223372036854775800\nVN\ta\tb\t8\n", 2,
                 "is over 9223372036854775807", id="summed-frequency"),
    pytest.param("N" * 129 + "\tw" * 129 + "\t1\n", 1, "129 slots", id="slots"),
])
def test_frequency_or_slot_count_out_of_range_reports_row(rows, row, message):
    with pytest.raises(FormatError, match=message) as err:
        Store.load(io.StringIO(rows))
    assert err.value.row == row


def test_pattern_total_that_does_not_fit_the_index_rejected():
    rows = "VN\ta\tb\t9223372036854775807\nVN\tc\tb\t1\n"
    store = Store.load(io.StringIO(rows))
    with pytest.raises(FormatError, match="pattern VN _ b sum past"):
        store.tuples_containing("b")
    # the widest values that fit are indexed
    store = Store.load(io.StringIO("VN\ta\tb\t9223372036854775807\n"
                                   + "N" * 128 + "\tw" * 128 + "\t1\n"))
    index = store.index
    assert index.pattern_total[index.pattern_ids[PatternKey("VN", (None, "b"))]] == 2**63 - 1
    assert len(store.tuples_containing("w")) == 128


def test_non_integer_frequency_reports_row():
    # int() reads "1_0" as 10, and "+3", " 4" and the fullwidth digit three
    # as 3 and 4; a frequency is ASCII digits
    for freq in ("many", "1_0", "+3", " 4", "\uff13"):
        with pytest.raises(FormatError, match="non-integer frequency") as err:
            Store.load(io.StringIO(f"VN\tfight\tpoverty\t3\nVN\ta\tb\t{freq}\n"))
        assert err.value.row == 2, freq


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


# -- the index file beside a loaded store ------------------------------------

def _queries(store):
    """Every query answer of a store, floats compared exactly."""
    index = store.index
    keys = list(store.pattern_keys())
    words = store_lexemes(store)
    return (list(store), len(store), keys,
            [(store.tuples_matching(k), index.pattern_total[p])
             for k, p in index.pattern_ids.items()],
            [store.tuples_containing(lexeme) for lexeme in words],
            [[(s.lexeme, s.weight, s.evidence) for s in generate_sources(lexeme, store)]
             for lexeme in words],
            [salient_properties(lexeme, store, None) for lexeme in words],
            store.tuples_containing("absent"),
            store.tuples_matching(PatternKey("VN", ("absent", None))))


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False),
       st.lists(st.tuples(PROPOSITIONS, st.integers(1, 1000)), max_size=8))
def test_index_file_round_trip(rng, entries):
    # a random store, plus tuples of lexemes the text formats must carry
    odd = Store()
    for prop, freq in entries:
        odd.add(prop, freq)
    store = merge_stores([make_random_store(rng, max_tuples=40, vocab=12),
                          odd]).freeze()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store.tsv"
        store.save(path)
        loaded = Store.load(path)
        expected = _queries(store)
        assert _queries(loaded) == expected
        index = (Path(tmp) / "store.tsv.idx").read_bytes()
        with mock.patch("mf.textio.rows", side_effect=AssertionError("parsed")):
            reloaded = Store.load(path)
            assert _queries(reloaded) == expected
        assert reloaded == store
        assert (Path(tmp) / "store.tsv.idx").read_bytes() == index


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False),
       st.lists(st.tuples(PROPOSITIONS, st.integers(2, 1000)), min_size=1, max_size=8))
def test_store_has_one_shape_however_it_is_made(rng, entries):
    odd = Store()
    for prop, freq in entries:
        odd.add(prop, freq)
    counted = merge_stores([make_random_store(rng, max_tuples=40, vocab=12),
                            odd]).freeze()
    with tempfile.TemporaryDirectory() as tmp:
        path, shuffled = Path(tmp) / "store.tsv", Path(tmp) / "shuffled" / "store.tsv"
        counted.save(path)
        # a shuffled copy in which one row is split into two that sum to it
        rows = path.read_text("utf-8").split("\n")[:-1]
        k = rng.choice([k for k, row in enumerate(rows) if not row.endswith("\t1")])
        head, freq = rows[k].rsplit("\t", 1)
        part = rng.randint(1, int(freq) - 1)
        rows[k:k + 1] = [f"{head}\t{part}", f"{head}\t{int(freq) - part}"]
        rng.shuffle(rows)
        shuffled.parent.mkdir()
        shuffled.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
        stores = [counted, Store.load(path), Store.load(shuffled)]
        expected = _queries(counted)
        assert _queries(stores[1]) == expected  # writes store.tsv.idx
        with mock.patch("mf.textio.rows", side_effect=AssertionError("parsed")):
            stores.append(Store.load(path))
        index = (Path(tmp) / "store.tsv.idx").read_bytes()
        for n, store in enumerate(stores):
            assert not any(isinstance(value, dict) for value in vars(store).values())
            assert (len(store), store.total(), list(store)) == \
                (len(counted), counted.total(), list(counted))
            assert all(store.freq(prop) == freq for prop, freq in counted)
            assert store.freq(vn("absent", "absent")) == 0
            assert _queries(store) == expected
            store.index.save(Path(tmp) / f"{n}.idx", hashlib.sha256(path.read_bytes()).digest())
            assert (Path(tmp) / f"{n}.idx").read_bytes() == index, n


def _fight(tmp_path, obj):
    path = tmp_path / "store.tsv"
    Store().add(vn("fight", obj), 3).add(vn("cure", obj), 1).freeze().save(path)
    return path


def _vectors(tm):
    return tm.topics, {w: tm.vector(w).tobytes() for w in sorted(tm.vocabulary())}


class _Cache(NamedTuple):
    """A kind of `textio` cache file: the file name of its source and its
    own, its magic, how to write a source that names a lexeme, and how to
    load a source (a path or lines) into every answer it gives, through the
    cache file in a work directory or without any cache file."""
    source: str
    name: str
    magic: bytes
    write: Callable[[Path, str], None]
    load: Callable[[Any, Path], Any]
    parse: Callable[[Path], Any]
    shape: tuple[int, str]  # the tables and column typecodes of its payload


CACHES = {
    "idx": _Cache("store.tsv", "store.tsv.idx", STORE_MAGIC,
                  lambda path, lexeme: _fight(path.parent, lexeme),
                  lambda source, workdir: _queries(Store.load(source)),
                  lambda path: _queries(Store.load(path.read_text("utf-8").splitlines())),
                  (2, STORE_TYPECODES)),
    "vec": _Cache("topics.tsv", "topics.vec", TOPICS_MAGIC,
                  lambda path, lexeme: path.write_text(
                      f"T=2\n{lexeme}\t0.25\t0.75\nwar\t0.5\t0.5\n", encoding="utf-8"),
                  lambda source, workdir: _vectors(
                      load_topic_matrix(source, workdir / "topics.vec")),
                  lambda path: _vectors(load_topic_matrix(path)),
                  (1, "qd")),
    "snt": _Cache("corpus.conllu", "corpus.conllu.snt", SENTENCES_MAGIC,
                  lambda path, lexeme: path.write_text(
                      "# sent_id = s1\n1\tFight\tfight\tVERB\t_\t_\t0\troot\t_\t_\n"
                      f"2\t{lexeme}\t{lexeme}\tNOUN\t_\t_\t1\tobj\t_\t_\n",
                      encoding="utf-8"),
                  lambda source, workdir: list(
                      iter_sentences(source, workdir / "corpus.conllu.snt")),
                  lambda path: list(iter_sentences(path)),
                  (3, SENTENCES_TYPECODES)),
}


@pytest.fixture(params=list(CACHES))
def cache(request):
    return CACHES[request.param]


def test_stale_cache_file_rebuilt(tmp_path, cache):
    source, cache_file = tmp_path / cache.source, tmp_path / cache.name
    cache.write(source, "poverty")
    old = cache.load(source, tmp_path)
    old_cache = cache_file.read_bytes()
    size = source.stat().st_size
    cache.write(source, "systems")  # other content, same size
    assert source.stat().st_size == size
    expected = cache.parse(source)
    assert expected != old
    assert cache.load(source, tmp_path) == expected
    assert cache_file.read_bytes() != old_cache
    assert cache.load(source, tmp_path) == expected


@pytest.mark.parametrize("damage", [
    pytest.param(lambda b: b[:73] + bytes([b[73] ^ 1]) + b[74:], id="first-payload-byte"),
    pytest.param(lambda b: b[:-1] + bytes([b[-1] ^ 1]), id="last-payload-byte"),
    pytest.param(lambda b: b[:len(b) // 2], id="truncated"),
    pytest.param(lambda b: b[:40], id="truncated-header"),
    pytest.param(lambda b: b"", id="empty"),
    pytest.param(lambda b: b[:8].upper() + b[8:], id="wrong-magic"),
    pytest.param(lambda b: b[:8] + (b"b" if b[8:9] == b"l" else b"l") + b[9:],
                 id="other-byte-order"),
])
def test_corrupt_index_file_refused_and_rebuilt(tmp_path, damage):
    # each kind of cache file in turn: the store's index, the topic vectors
    # and the sentences of a corpus shard
    for kind, cache in CACHES.items():
        workdir = tmp_path / kind
        workdir.mkdir()
        source, cache_file = workdir / cache.source, workdir / cache.name
        cache.write(source, "poverty")
        expected = cache.load(source, workdir)
        good = cache_file.read_bytes()
        cache_file.write_bytes(damage(good))
        assert textio.read_cache(cache_file, cache.magic, source, *cache.shape) is None, kind
        assert cache.load(source, workdir) == expected, kind
        assert cache_file.read_bytes() == good, kind


def test_one_cache_kind_is_never_read_as_another(tmp_path):
    source = _fight(tmp_path, "poverty")
    Store.load(source).index
    index_file = tmp_path / "store.tsv.idx"
    shape = CACHES["idx"].shape
    assert textio.read_cache(index_file, STORE_MAGIC, source, *shape) is not None
    assert textio.read_cache(index_file, TOPICS_MAGIC, source, *shape) is None


@pytest.mark.parametrize("reshape", [
    pytest.param(lambda tables, columns: (tables + [["extra"]], columns), id="extra-table"),
    pytest.param(lambda tables, columns: (tables, columns[:-1]), id="missing-column"),
])
def test_cache_file_of_another_shape_refused_and_rebuilt(tmp_path, cache, reshape):
    # the header's digests match, but the payload's sizes do not fit the reader
    source, cache_file = tmp_path / cache.source, tmp_path / cache.name
    cache.write(source, "poverty")
    expected = cache.load(source, tmp_path)
    good = cache_file.read_bytes()
    tables, columns = textio.read_cache(cache_file, cache.magic, source, *cache.shape)
    textio.write_cache(cache_file, cache.magic, hashlib.sha256(source.read_bytes()).digest(),
                       *reshape(tables, columns))
    assert textio.read_cache(cache_file, cache.magic, source, *cache.shape) is None
    assert cache.load(source, tmp_path) == expected
    assert cache_file.read_bytes() == good


@pytest.mark.parametrize("packed", [False, True], ids=["plain", "gzip"])
def test_cache_header_holds_the_digest_of_the_source_file(tmp_path, cache, packed):
    # bytes 9-41 of the header: the sha256 of the bytes the parse read
    source, cache_file = tmp_path / cache.source, tmp_path / cache.name
    cache.write(source, "poverty")
    if packed:
        source.write_bytes(gzip.compress(source.read_bytes(), mtime=0))
    cache.load(source, tmp_path)
    assert cache_file.read_bytes()[9:41] == hashlib.sha256(source.read_bytes()).digest()


def _read_whole(*args):
    raise AssertionError("a whole file read into memory")


def test_no_loader_reads_a_whole_file(tmp_path, cache):
    source, cache_file = tmp_path / cache.source, tmp_path / cache.name
    cache.write(source, "poverty")
    expected = cache.parse(source)
    with mock.patch("pathlib.Path.read_bytes", _read_whole):
        assert cache.load(source, tmp_path) == expected  # parses, writes the cache
        assert cache_file.exists()
        with mock.patch("mf.textio.lines", side_effect=AssertionError("parsed")):
            assert cache.load(source, tmp_path) == expected  # reads the cache


def test_index_of_a_store_file_out_of_order_is_read_back(tmp_path):
    # the first read stops at the second row, well before the end of the
    # file, so the index must carry the digest of the second, whole read
    path = tmp_path / "store.tsv"
    rows = ["VN\tfight\tpoverty\t3", "VN\tcure\tpoverty\t1"]
    rows += [f"VN\t{n:064d}\tx\t{n % 7 + 1}" for n in range(1000)]
    path.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
    assert path.stat().st_size > 1 << 16
    counted = Store()
    for row in rows:
        _, verb, noun, freq = row.split("\t")
        counted.add(vn(verb, noun), int(freq))
    expected = list(counted.freeze())
    with mock.patch("pathlib.Path.read_bytes", _read_whole):
        store = Store.load(path)
        assert list(store) == expected
        store.index  # the first query writes store.tsv.idx
        with mock.patch("mf.textio.rows", side_effect=AssertionError("parsed")):
            assert list(Store.load(path)) == expected
    index = (tmp_path / "store.tsv.idx").read_bytes()
    assert index[9:41] == hashlib.sha256(path.read_bytes()).digest()


@pytest.mark.skipif(sys.byteorder != "little",
                    reason="the pinned cache files hold little-endian columns")
def test_cache_file_bytes_match_the_pinned_digests(tmp_path):
    # a change to a cache file's layout must change its magic and this pin
    expected = Path(__file__).parent / "expected"
    shutil.copyfile(expected / "store.tsv", tmp_path / "store.tsv")
    Store.load(tmp_path / "store.tsv").index
    load_topic_matrix(Path(__file__).parent / "fixtures" / "topics.tsv",
                      tmp_path / "topics.vec")
    list(iter_sentences(Path(__file__).parent / "fixtures" / "poverty.conllu",
                        tmp_path / "poverty.conllu.snt"))
    for line in (expected / "caches.sha256").read_text("utf-8").splitlines():
        digest, name = line.split()
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_cache_file_that_cannot_be_written_is_skipped(tmp_path, cache):
    source = tmp_path / cache.source
    cache.write(source, "poverty")
    (tmp_path / cache.name).mkdir()
    assert cache.load(source, tmp_path) == cache.parse(source)
    assert {p.name for p in tmp_path.iterdir()} == {cache.source, cache.name}


def test_read_from_lines_writes_no_cache_file(tmp_path, monkeypatch, cache):
    monkeypatch.chdir(tmp_path)
    source = tmp_path / cache.source
    cache.write(source, "poverty")
    expected = cache.parse(source)
    with open(source, encoding="utf-8") as fh:
        assert cache.load(fh, tmp_path) == expected
    assert cache.load(io.StringIO(source.read_text("utf-8")), tmp_path) == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == [cache.source]


def test_index_file_bytes_identical_across_processes(tmp_path):
    code = ("import sys; from mf import Store; "
            "Store.load(sys.argv[1]).tuples_containing('poverty')")
    package_root = str(Path(mf.__file__).parents[1])
    index_files = []
    for seed in ("1", "2"):
        path = tmp_path / seed / "store.tsv"
        path.parent.mkdir()
        shutil.copyfile(Path(__file__).parent / "expected" / "store.tsv", path)
        subprocess.run([sys.executable, "-B", "-c", code, str(path)], check=True,
                       env=dict(os.environ, PYTHONHASHSEED=seed,
                                PYTHONPATH=package_root))
        index_files.append((tmp_path / seed / "store.tsv.idx").read_bytes())
    assert index_files[0] == index_files[1]
