import ast
import gc
import gzip
import hashlib
import io
import json
import os
import random
import time
import warnings
from pathlib import Path

import pytest

from mf import (Store, iter_sentences, load_expansion_table, load_gold, load_rules,
                load_taxonomy, load_topic_matrix, textio)
from mf.cli import _load_sidecar
from mf.config import PipelineConfig, load_config

from .conftest import FIXTURES


def test_hash_starts_a_comment_only_before_data():
    text = "# comment\n\n#another\nT=2\n#metoo\t1\t0\n\nnaïve\t0\t1\n"
    assert list(textio.rows(text.splitlines(keepends=True))) == [
        (4, ["T=2"]), (5, ["#metoo", "1", "0"]), (7, ["naïve", "0", "1"])]


def test_numbers_are_ascii():
    assert textio.numbers(["0.04", "-2", "1e-05", "+3", "1.", ".5"]) == [
        0.04, -2.0, 1e-05, 3.0, 1.0, 0.5]
    # the numbers are checked joined by commas, which float() never reads
    for texts in (["1,2"], ["1", "\t2"], ["1_0"], ["\uff13"], ["inf"], [""], ["."]):
        with pytest.raises(ValueError):
            textio.numbers(texts)


@pytest.mark.parametrize("name", ["artifact.tsv", "artifact.tsv.gz"])
def test_failed_write_keeps_earlier_artifact(tmp_path, name):
    path = tmp_path / name
    with textio.writer(path) as fh:
        fh.write("earlier\n")
    before = path.read_bytes()
    with pytest.raises(RuntimeError):
        with textio.writer(path) as fh:
            fh.write("half of a later artifact\n" * 1000)
            raise RuntimeError("crash mid-write")
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == [name]


def test_gzip_store_bytes_do_not_depend_on_the_clock(tmp_path, monkeypatch):
    # the .idx digest hashes the store's bytes, so a re-saved store keeps it
    store = Store.load(FIXTURES / "gold" / "gold_store.tsv")
    saved = []
    for now in (1_000_000_000.0, 1_700_000_000.0):
        monkeypatch.setattr(time, "time", lambda: now)
        store.save(tmp_path / "a.tsv.gz")
        saved.append((tmp_path / "a.tsv.gz").read_bytes())
    assert saved[0] == saved[1]
    assert Store.load(tmp_path / "a.tsv.gz") == store


# inputs with no committed fixture, written out by the test
WRITTEN = {
    "rules.json": json.dumps([{
        "label": "VN",
        "arcs": [{"head": "v", "dep": "o", "rels": ["obj"]}],
        "upos": {"v": ["VERB"], "o": ["NOUN"]},
        "slots": ["v", "o"],
    }]),
    "pipeline.cfg": "# comment\ncorpus = corpus.conllu\nk = 3\ntargets = poverty, wealth\n",
    "texts.tsv": "s1\tMajority live in poverty .\ns2\tPoverty is a disease .\n",
}


def _written(tmp_path, fixture):
    if fixture not in WRITTEN:
        return FIXTURES / fixture
    path = tmp_path / fixture
    path.write_text(WRITTEN[fixture], encoding="utf-8")
    return path


def _topic_view(tm):
    return tm.topics, {w: tuple(tm.vector(w)) for w in tm.vocabulary()}


LOADERS = [
    ("gold/gold_store.tsv", Store.load, lambda store: store),
    ("topics.tsv", load_topic_matrix, _topic_view),
    ("expansion.tsv", load_expansion_table, dict),
    ("gold/gold.tsv", load_gold, lambda mappings: mappings),
    ("taxonomy.tsv", load_taxonomy, lambda tax: vars(tax)),
    ("rules.json", load_rules, lambda rules: rules),
    ("pipeline.cfg", load_config, PipelineConfig._asdict),
]


@pytest.mark.parametrize("fixture, load, view", LOADERS)
def test_loaders_read_gzip_transparently(tmp_path, fixture, load, view):
    plain = _written(tmp_path, fixture)
    packed = tmp_path / (plain.name + ".gz")
    packed.write_bytes(gzip.compress(plain.read_bytes()))
    assert view(load(packed)) == view(load(plain))
    assert view(load(str(packed))) == view(load(plain))


@pytest.mark.parametrize("fixture, load, view", LOADERS + [
    ("texts.tsv", lambda path: _load_sidecar(PipelineConfig(sidecar=str(path))), dict),
    ("poverty.conllu", iter_sentences, list),
])
def test_loaders_skip_a_byte_order_mark(tmp_path, fixture, load, view):
    # each read as text, which the mark would otherwise begin: a first row,
    # key, lexeme or sentence id, or the JSON document
    plain = _written(tmp_path, fixture)
    marked = tmp_path / ("marked-" + plain.name)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    packed = tmp_path / (marked.name + ".gz")
    packed.write_bytes(gzip.compress(marked.read_bytes()))
    assert view(load(marked)) == view(load(plain))
    assert view(load(packed)) == view(load(plain))


def test_only_a_leading_byte_order_mark_is_skipped(tmp_path):
    path = tmp_path / "a.tsv"
    path.write_bytes("\ufeffpoverty\trel\tneed\n\ufeffwar\trel\tneed\n".encode("utf-8"))
    assert list(textio.lines(path)) == ["poverty\trel\tneed\n", "\ufeffwar\trel\tneed\n"]
    assert load_expansion_table(path) == {"poverty": {"need"}, "\ufeffwar": {"need"}}


# files of each kind whose lines `lines` streams: plain, gzip, CRLF line
# endings, empty, and larger than the 64 KiB a read takes at a time, as
# text and as gzip
_HEX = random.Random(1).randbytes(60_000).hex()
STREAMED = {
    "plain": b"T=2\nwar\t0.5\t0.5\n",
    "gzip": gzip.compress(b"T=2\nwar\t0.5\t0.5\n", mtime=0),
    "crlf": b"T=2\r\nwar\t0.5\t0.5\r\n",
    "empty": b"",
    "bom": b"\xef\xbb\xbfT=2\nwar\t0.5\t0.5\n",
    "large": "".join(f"{n}\tna\u00efve\n" for n in range(20_000)).encode("utf-8"),
    "large-gzip": gzip.compress("\n".join(_HEX[k:k + 80] for k in range(
        0, len(_HEX), 80)).encode("ascii"), mtime=0),
}


@pytest.mark.parametrize("kind", list(STREAMED))
def test_streamed_digest_is_the_file_digest(tmp_path, kind):
    path = tmp_path / "a.txt"
    path.write_bytes(STREAMED[kind])
    if kind.startswith("large"):
        assert len(STREAMED[kind]) > 1 << 16
    digest = textio.sha256()
    assert list(textio.lines(path, digest)) == list(textio.lines(path))
    assert digest.digest() == hashlib.sha256(path.read_bytes()).digest()


@pytest.mark.parametrize("read", [
    pytest.param(lambda fh: fh.read(), id="read"),
    pytest.param(lambda fh: b"".join(iter(lambda: fh.read(1000), b"")), id="read-n"),
    pytest.param(lambda fh: b"".join(iter(lambda: fh.read1(1000), b"")), id="read1"),
    pytest.param(lambda fh: fh.peek(2) and b"".join(fh), id="peek-then-lines"),
    pytest.param(lambda fh: fh.raw.readall(), id="raw-readall"),
    pytest.param(lambda fh: b"".join(iter(lambda: fh.raw.read(1000), b"")), id="raw-read"),
])
def test_every_read_call_reaches_the_digest(tmp_path, read):
    path = tmp_path / "a.txt"
    path.write_bytes(STREAMED["large"])
    digest = textio.sha256()
    with io.BufferedReader(textio._Digesting(path, digest)) as fh:
        assert read(fh) == STREAMED["large"]
    assert digest.digest() == hashlib.sha256(STREAMED["large"]).digest()


def test_a_reader_stopped_early_closes_its_file(tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for kind in ("large", "large-gzip"):
            path = tmp_path / kind
            path.write_bytes(STREAMED[kind])
            for digest in (None, textio.sha256()):
                reader = textio.lines(path, digest)
                next(reader)
                reader.close()
                del reader
        gc.collect()
    # a file left open would warn when it is collected
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


# the calls that open a file or read or write one whole
_OPENERS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}


def test_textio_is_the_one_module_that_opens_files():
    # `open` by name, and `io.open`, `gzip.open`, `Path.open` and the
    # whole-file reads and writes by attribute, called or not
    found = []
    for path in sorted(Path(textio.__file__).parent.glob("*.py")):
        if path.name == "textio.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name in _OPENERS:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []
