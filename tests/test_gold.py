import io
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from mf import Store, eval_gold, gold as gold_mod, load_expansion_table, load_gold
from mf.errors import FormatError
from mf.gold import GoldMapping

from .lexemes import LEXEMES, tsv_files

# the published stage parameters, the PipelineConfig defaults
PARAMS = {"threshold": 0.04, "top_sources": 100, "top_patterns": 10}


@pytest.fixture(scope="module")
def gold_fixture(fixtures_dir, tmp_path_factory):
    gold_dir = fixtures_dir / "gold"
    # a copy, so the store's index file is written outside the source tree
    store = tmp_path_factory.mktemp("gold") / "gold_store.tsv"
    shutil.copyfile(gold_dir / "gold_store.tsv", store)
    return (load_gold(gold_dir / "gold.tsv"), Store.load(store),
            load_expansion_table(gold_dir / "gold_expansion.tsv"))


@settings(max_examples=100, deadline=None)
@given(tsv_files(st.tuples(st.one_of(st.sampled_from(["g1", "g2"]), LEXEMES),
                           st.sampled_from("TS"), LEXEMES)))
def test_load_gold_reads_generated_rows(file):
    rows, text = file
    expected = {}
    for name, side, lexeme in rows:
        expected.setdefault(name, {"T": set(), "S": set()})[side].add(lexeme)
    assert [(m.name, m.targets, m.sources) for m in load_gold(io.StringIO(text))] \
        == [(name, sides["T"], sides["S"]) for name, sides in expected.items()]


def test_load_gold_groups_sides(fixtures_dir):
    mappings = load_gold(fixtures_dir / "gold" / "gold.tsv")
    assert len(mappings) == 13
    by_name = {m.name: m for m in mappings}
    war = by_name["Fighting a War->Treating Illness"]
    assert war.targets == {"war"} and war.sources == {"illness"}


def test_load_gold_bad_side():
    with pytest.raises(FormatError):
        load_gold(io.StringIO("name\tX\tlexeme\n"))


def test_eval_gold_counts(gold_fixture):
    gold, store, table = gold_fixture
    report = eval_gold(gold, store, table, **PARAMS)
    assert report.evaluated == 13
    assert report.found == 10
    assert report.summary == "found 10 of 13"


def test_eval_gold_designed_misses(gold_fixture):
    gold, store, table = gold_fixture
    report = eval_gold(gold, store, table, **PARAMS)
    by_name = {r.name: r for r in report.results}
    assert not by_name["Machines->People"].found
    assert not by_name["Containers for Money->Investments"].found
    assert not by_name["Containers for Emotions->People"].found
    assert by_name["Fighting a War->Treating Illness"].found


def test_eval_gold_pair_details(gold_fixture):
    gold, store, table = gold_fixture
    report = eval_gold(gold, store, table, **PARAMS)
    by_name = {r.name: r for r in report.results}
    pairs = {(p.target, p.source)
             for p in by_name["Fighting a War->Treating Illness"].pairs}
    assert ("attack", "treatment") in pairs


def test_eval_gold_scaled_weights(gold_fixture):
    gold, store, table = gold_fixture
    report = eval_gold(gold, store, table, **PARAMS)
    scaled = [p.scaled for r in report.results for p in r.pairs]
    raw = [p.weight for r in report.results for p in r.pairs]
    assert all(0.0 <= s <= 1.0 for s in scaled)
    if len(set(raw)) >= 2:
        assert any(s == 0.0 for s in scaled)
        assert any(s == 1.0 for s in scaled)


def test_eval_gold_skips_empty_expansion(gold_fixture):
    _, store, table = gold_fixture
    warnings = []
    report = eval_gold([GoldMapping("Empty->Empty")], store, table, **PARAMS,
                       warn=warnings.append)
    assert report.results[0].skipped
    assert report.evaluated == 0
    assert warnings and "Empty->Empty" in warnings[0]


def test_render_lines(gold_fixture):
    gold, store, table = gold_fixture
    text = eval_gold(gold, store, table, **PARAMS).render()
    assert text.endswith("found 10 of 13\n")
    assert "Machines->People: none" in text


def test_eval_gold_ranks_each_target_once(gold_fixture, monkeypatch):
    gold, store, table = gold_fixture
    # a second mapping of the same targets: its targets are ranked already
    gold = gold + [mapping._replace(name=f"{mapping.name} again") for mapping in gold]
    expected = eval_gold(gold, store, table, **PARAMS).render()
    ranked = []
    rank_sources = gold_mod.rank_sources

    def counting(target, *rest):
        ranked.append(target)
        return rank_sources(target, *rest)
    monkeypatch.setattr(gold_mod, "rank_sources", counting)
    assert eval_gold(gold, store, table, **PARAMS).render() == expected
    assert ranked and sorted(ranked) == sorted(set(ranked))
