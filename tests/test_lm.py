import io
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from mf import (LMHit, Sentence, Store, expand_domain, find_lms, iter_sentences,
                load_expansion_table, sample_hits)
from mf.errors import FormatError

from .corpusgen import an, _block
from .lexemes import LEXEMES, trees, tsv_files
from .randstores import make_random_store


def _sentences(*blocks):
    text = "".join(_block(f"t{i}", rows) for i, rows in enumerate(blocks, 1))
    return list(iter_sentences(text.splitlines(keepends=True)))


def test_expansion_table_load_and_lookup():
    table = load_expansion_table(io.StringIO(
        "disease\tRelatedTo\tsymptom\ndisease\tIsA\tillness\n"))
    assert table == {"disease": {"symptom", "illness"}}


def test_expansion_table_bad_row():
    with pytest.raises(FormatError) as err:
        load_expansion_table(io.StringIO("only\ttwo\n"))
    assert err.value.row == 1


@settings(max_examples=100, deadline=None)
@given(tsv_files(st.tuples(LEXEMES, st.sampled_from(["IsA", "#rel"]), LEXEMES)))
def test_expansion_table_reads_generated_rows(file):
    rows, text = file
    table = load_expansion_table(io.StringIO(text))
    expected = {}
    for lexeme, _, related in rows:
        expected.setdefault(lexeme, set()).add(related)
    assert table == expected


def test_expand_domain_contains_seed_and_table(fixtures_dir):
    table = load_expansion_table(fixtures_dir / "expansion.tsv")
    expanded = expand_domain({"disease"}, table, Store().freeze(), 10)
    assert expanded >= {"disease", "symptom", "illness", "sickness",
                        "medicine", "treatment", "cure", "doctor", "chronic"}


def test_expand_domain_identity():
    empty = Store().freeze()
    assert expand_domain({"a", "b"}, None, empty, 10) == {"a", "b"}
    assert expand_domain({"a", "b"}, {}, empty, 10) == {"a", "b"}


def test_expand_domain_deduplicates():
    table = {"a": {"x"}, "b": {"x"}}
    assert expand_domain({"a", "b"}, table, Store().freeze(), 10) == {"a", "b", "x"}


def test_expand_domain_adds_pattern_content(corpus_store):
    expanded = expand_domain({"poverty"}, None, corpus_store, top_p=3)
    assert "poverty" in expanded
    # top patterns contribute their content words but not prepositions
    assert expanded - {"poverty"}
    assert "in" not in expanded and "out of" not in expanded


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False),
       st.lists(st.sets(st.sampled_from([f"w{i:02d}" for i in range(8)]), max_size=4),
                max_size=6))
def test_shared_expansion_memo_gives_the_fresh_sets(rng, seeds):
    store = make_random_store(rng, max_tuples=40, vocab=8)
    table = {"w00": {"x"}, "w01": {"w02", "y"}}
    memo = {}
    for seed in seeds:
        assert expand_domain(seed, table, store, 2, memo) == \
            expand_domain(seed, table, store, 2)
    assert set(memo) == set().union(*seeds)


def test_find_lms_amod_hit():
    sents = _sentences(an("chronic", "poverty", ("persists", "persist")))
    hits = list(find_lms(sents, [({"poverty"}, {"chronic"}, "poverty", "illness")]))
    assert len(hits) == 1
    hit = hits[0]
    assert hit.matched_target == "poverty"
    assert hit.matched_source == "chronic"
    assert hit.deprel == "amod"
    assert hit.direction == "target-headed"


def test_find_lms_overgenerates_by_design():
    sents = _sentences(an("poor", "country", ("struggles", "struggle")))
    hits = list(find_lms(sents, [({"poor"}, {"country"}, "poverty", "country")]))
    assert len(hits) == 1
    assert hits[0].direction == "source-headed"


def test_find_lms_requires_direct_arc(corpus_sentences):
    planted = [s for s in corpus_sentences if "cure-all" in s.text]
    assert planted
    hits = list(find_lms(planted, [({"poverty"}, {"cure-all"}, "poverty", "cure")]))
    assert hits == []


def test_find_lms_empty_sets(corpus_sentences):
    assert list(find_lms(corpus_sentences, [(set(), {"x"}, "t", "s")])) == []
    assert list(find_lms(corpus_sentences, [({"x"}, set(), "t", "s")])) == []
    assert list(find_lms(corpus_sentences, [])) == []


def test_find_lms_arcs_exist(corpus_sentences):
    hits = list(find_lms(corpus_sentences, [({"poverty", "poor"},
                                             {"chronic", "cure", "country"},
                                             "poverty", "illness")]))
    assert hits
    by_id = {s.id: s for s in corpus_sentences}
    for hit in hits:
        sent = by_id[hit.sentence_id]
        t, s = sent.token_at(hit.target_token), sent.token_at(hit.source_token)
        assert t.head == s.index or s.head == t.index
        assert hit.matched_target == t.lemma
        assert hit.matched_source == s.lemma


def test_find_lms_monotone(corpus_sentences):
    def count(targets, sources):
        return len(list(find_lms(corpus_sentences,
                                 [(targets, sources, "poverty", "illness")])))
    small = count({"poverty"}, {"chronic"})
    more_sources = count({"poverty"}, {"chronic", "cure"})
    more_targets = count({"poverty", "poor"}, {"chronic", "cure", "country"})
    assert small <= more_sources <= more_targets


def test_sample_hits_counts(corpus_sentences):
    hits = list(find_lms(corpus_sentences,
                         [({"poverty"}, {"chronic"}, "poverty", "illness")]))
    assert len(hits) == 5
    assert len(sample_hits(hits, per_pair=10, seed=3)) == 5  # fewer than cap
    assert len(sample_hits(hits, per_pair=2, seed=3)) == 2


def test_sample_hits_deterministic_and_order_insensitive(corpus_sentences):
    # one spec per source lemma, so several domain pairs are sampled
    hits = list(find_lms(corpus_sentences, [
        ({"poverty", "poor"}, {source}, "poverty", source)
        for source in ("chronic", "cure", "medicine", "country")]))
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
    hits = list(find_lms(sents, [({"war"}, {"fight"}, "war", "fight")]))
    assert len(hits) == 2  # two distinct war tokens hit the same verb
    sampled = sample_hits(hits, per_pair=10, seed=1)
    assert len(sampled) == 1
    # sentences sharing an id count as one, and the hit kept for them does
    # not depend on which comes first
    shouted = [("WARS",) + rows[0][1:], *rows[1:]]
    twins = [Sentence("x", s.tokens) for s in _sentences(rows, shouted)]
    hits = list(find_lms(twins, [({"war"}, {"fight"}, "war", "fight")]))
    assert {h.text for h in hits} == {"Wars fight wars .", "WARS fight wars ."}
    assert sample_hits(hits, 10, 1) == sample_hits(hits[::-1], 10, 1)
    assert len(sample_hits(hits, 10, 1)) == 1


def test_sample_hits_per_pair_validation():
    with pytest.raises(ValueError):
        sample_hits([], per_pair=0, seed=1)


LEMMAS = "abc"


@st.composite
def spec_lists(draw):
    """Specs whose sides may be empty or overlap, some of them repeated."""
    sides = st.frozensets(st.sampled_from(LEMMAS))
    specs = draw(st.lists(st.tuples(sides, sides, st.sampled_from("TU"),
                                    st.sampled_from("SR")), max_size=4))
    return specs + (draw(st.lists(st.sampled_from(specs), max_size=3)) if specs else [])


def _reference_hits(sentences, specs):
    """Every ordered pair of tokens joined by an arc, against every spec."""
    out = Counter()
    for sent in sentences:
        for t in sent.tokens:
            for s in sent.tokens:
                if t.head == s.index:
                    direction, deprel = "source-headed", t.deprel
                elif s.head == t.index:
                    direction, deprel = "target-headed", s.deprel
                else:
                    continue
                for targets, sources, t_dom, s_dom in specs:
                    if t.lemma in targets and s.lemma in sources:
                        out[LMHit(sent.id, t.index, s.index, deprel, direction,
                                  t.lemma, s.lemma, t_dom, s_dom, sent.text)] += 1
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["s1", "s2", "s3"]).flatmap(
           lambda sid: trees(sid, LEMMAS)), max_size=5),
       spec_lists())
def test_find_lms_matches_brute_force(sentences, specs):
    # duplicate specs must give duplicate hits
    assert Counter(find_lms(sentences, specs)) == _reference_hits(sentences, specs)
