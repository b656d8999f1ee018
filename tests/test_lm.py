import io
import random

import pytest

from mf import (ExpansionTable, expand_domain, find_lms,
                load_expansion_table, parse_conllu, sample_hits)
from mf.errors import FormatError

from .corpusgen import an, _block


def _sentences(*blocks):
    text = "".join(_block(f"t{i}", rows) for i, rows in enumerate(blocks, 1))
    return parse_conllu(text.splitlines(keepends=True))


def test_expansion_table_load_and_lookup():
    table = load_expansion_table(io.StringIO(
        "disease\tRelatedTo\tsymptom\ndisease\tIsA\tillness\n"))
    assert table.related("disease") == {"symptom", "illness"}
    assert table.related("unknown") == set()


def test_expansion_table_bad_row():
    with pytest.raises(FormatError) as err:
        load_expansion_table(io.StringIO("only\ttwo\n"))
    assert err.value.row == 1


def test_expand_domain_contains_seed_and_table(fixtures_dir):
    table = load_expansion_table(fixtures_dir / "expansion.tsv")
    expanded = expand_domain({"disease"}, table)
    assert expanded >= {"disease", "symptom", "illness", "sickness",
                        "medicine", "treatment", "cure", "doctor", "chronic"}


def test_expand_domain_identity():
    assert expand_domain({"a", "b"}, None, None, 0) == {"a", "b"}
    assert expand_domain({"a", "b"}, ExpansionTable(), None, 0) == {"a", "b"}


def test_expand_domain_deduplicates():
    table = ExpansionTable([("a", "r", "x"), ("b", "r", "x")])
    assert expand_domain({"a", "b"}, table) == {"a", "b", "x"}


def test_expand_domain_adds_pattern_content(corpus_store):
    expanded = expand_domain({"poverty"}, None, corpus_store, top_p=3)
    assert "poverty" in expanded
    # top patterns contribute their content words but not prepositions
    assert expanded - {"poverty"}
    assert "in" not in expanded and "out of" not in expanded


def test_find_lms_amod_hit():
    sents = _sentences(an("chronic", "poverty", ("persists", "persist")))
    hits = list(find_lms(sents, {"poverty"}, {"chronic"}))
    assert len(hits) == 1
    hit = hits[0]
    assert hit.matched_target == "poverty"
    assert hit.matched_source == "chronic"
    assert hit.deprel == "amod"
    assert hit.direction == "target-headed"


def test_find_lms_overgenerates_by_design():
    sents = _sentences(an("poor", "country", ("struggles", "struggle")))
    hits = list(find_lms(sents, {"poor"}, {"country"}))
    assert len(hits) == 1
    assert hits[0].direction == "source-headed"


def test_find_lms_requires_direct_arc(corpus_sentences):
    planted = [s for s in corpus_sentences if "cure-all" in s.text]
    assert planted
    hits = list(find_lms(planted, {"poverty"}, {"cure-all"}))
    assert hits == []


def test_find_lms_empty_sets(corpus_sentences):
    assert list(find_lms(corpus_sentences, set(), {"x"})) == []
    assert list(find_lms(corpus_sentences, {"x"}, set())) == []


def test_find_lms_arcs_exist(corpus_sentences):
    hits = list(find_lms(corpus_sentences, {"poverty", "poor"},
                         {"chronic", "cure", "country"}))
    assert hits
    by_id = {s.id: s for s in corpus_sentences}
    for hit in hits:
        sent = by_id[hit.sentence_id]
        t, s = sent.token_at(hit.target_token), sent.token_at(hit.source_token)
        assert t.head == s.index or s.head == t.index
        assert hit.matched_target == t.lemma
        assert hit.matched_source == s.lemma


def test_find_lms_monotone(corpus_sentences):
    small = len(list(find_lms(corpus_sentences, {"poverty"}, {"chronic"})))
    more_sources = len(list(find_lms(corpus_sentences, {"poverty"},
                                     {"chronic", "cure"})))
    more_targets = len(list(find_lms(corpus_sentences, {"poverty", "poor"},
                                     {"chronic", "cure", "country"})))
    assert small <= more_sources <= more_targets


def test_sample_hits_counts(corpus_sentences):
    hits = list(find_lms(corpus_sentences, {"poverty"}, {"chronic"},
                         target_domain="poverty", source_domain="illness"))
    assert len(hits) == 5
    assert len(sample_hits(hits, per_pair=10, seed=3)) == 5  # fewer than cap
    assert len(sample_hits(hits, per_pair=2, seed=3)) == 2


def test_sample_hits_deterministic_and_order_insensitive(corpus_sentences):
    hits = list(find_lms(corpus_sentences, {"poverty", "poor"},
                         {"chronic", "cure", "medicine", "country"}))
    first = sample_hits(hits, per_pair=3, seed=11)
    assert sample_hits(hits, per_pair=3, seed=11) == first
    shuffled = hits[:]
    random.Random(0).shuffle(shuffled)
    assert sample_hits(shuffled, per_pair=3, seed=11) == first
    assert sample_hits(hits, per_pair=3, seed=12) != first


def test_sample_hits_one_per_sentence_per_pair():
    rows = [("Wars", "war", "NOUN", 2, "nsubj"),
            ("fight", "fight", "VERB", 0, "root"),
            ("wars", "war", "NOUN", 2, "obj"),
            (".", ".", "PUNCT", 2, "punct")]
    sents = _sentences(rows)
    hits = list(find_lms(sents, {"war"}, {"fight"}))
    assert len(hits) == 2  # two distinct war tokens hit the same verb
    sampled = sample_hits(hits, per_pair=10, seed=1)
    assert len(sampled) == 1


def test_sample_hits_per_pair_validation():
    with pytest.raises(ValueError):
        sample_hits([], per_pair=0, seed=1)
