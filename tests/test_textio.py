import gzip
import json
import os
import time

import pytest

from mf import (Store, load_expansion_table, load_gold, load_rules, load_taxonomy,
                load_topic_matrix, textio)
from mf.config import load_config

from .conftest import FIXTURES


def test_hash_starts_a_comment_only_before_data():
    text = "# comment\n\n#another\nT=2\n#metoo\t1\t0\n\nnaïve\t0\t1\n"
    assert list(textio.rows(text.splitlines(keepends=True))) == [
        (4, ["T=2"]), (5, ["#metoo", "1", "0"]), (7, ["naïve", "0", "1"])]


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
}


def _topic_view(tm):
    return tm.topics, {w: tuple(tm.vector(w)) for w in tm.vocabulary()}


@pytest.mark.parametrize("fixture, load, view", [
    ("gold/gold_store.tsv", Store.load, lambda store: store),
    ("topics.tsv", load_topic_matrix, _topic_view),
    ("expansion.tsv", load_expansion_table, dict),
    ("gold/gold.tsv", load_gold, lambda mappings: mappings),
    ("taxonomy.tsv", load_taxonomy, lambda tax: vars(tax)),
    ("rules.json", load_rules, lambda rules: rules),
    ("pipeline.cfg", load_config, vars),
])
def test_loaders_read_gzip_transparently(tmp_path, fixture, load, view):
    plain = FIXTURES / fixture
    if fixture in WRITTEN:
        plain = tmp_path / fixture
        plain.write_text(WRITTEN[fixture], encoding="utf-8")
    packed = tmp_path / (plain.name + ".gz")
    packed.write_bytes(gzip.compress(plain.read_bytes()))
    assert view(load(packed)) == view(load(plain))
    assert view(load(str(packed))) == view(load(plain))
