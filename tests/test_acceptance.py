"""Acceptance suite: one test per criterion, each enforcing its time budget
and printing a pass line (run with `pytest tests/test_acceptance.py -v -s`).
"""

import io
import json
import random
import shutil
import time
from contextlib import contextmanager

from mf import (Proposition, Store, TopicMatrix, build_cms, cluster_sources,
                eval_gold, extract_propositions, filter_sources, find_lms,
                generalize_store, generate_sources, iter_sentences,
                load_expansion_table, load_gold, load_taxonomy,
                salient_properties, sample_hits, tuple_weight)
from mf.cli import main

from .conftest import FIXTURES
from .randstores import brute_force_sources, make_random_store


@contextmanager
def budget(name, seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"{name}: {elapsed:.2f}s exceeds {seconds}s budget"
    print(f"{name}: PASS ({elapsed:.2f}s < {seconds}s)")


CONTROL_CHAIN = """\
# sent_id = school1
1\tJohn\tJohn\tPROPN\t_\t_\t2\tnsubj\t_\t_
2\tdecided\tdecide\tVERB\t_\t_\t0\troot\t_\t_
3\tto\tto\tPART\t_\t_\t4\tmark\t_\t_
4\tgo\tgo\tVERB\t_\t_\t2\txcomp\t_\t_
5\tto\tto\tADP\t_\t_\t6\tcase\t_\t_
6\tschool\tschool\tNOUN\t_\t_\t4\tobl\t_\t_
"""


def test_c01_control_chain_tuple_set():
    with budget("criterion 1 (six-tuple extraction)", 1.0):
        sent = list(iter_sentences(CONTROL_CHAIN.splitlines(keepends=True)))[0]
        got = {occ.prop for occ in extract_propositions(sent)}
        expected = {
            Proposition("NV", ("john", "decide")),
            Proposition("NV", ("john", "go")),
            Proposition("NVV", ("john", "decide", "go")),
            Proposition("VPN", ("go", "to", "school")),
            Proposition("NVPN", ("john", "go", "to", "school")),
            Proposition("NVVPN", ("john", "decide", "go", "to", "school")),
        }
        assert got == expected


def test_c02_generalization_merge():
    with budget("criterion 2 (generalization merge)", 1.0):
        store = Store()
        store.add(Proposition("VPN", ("live", "in", "city")), 10)
        store.add(Proposition("VPN", ("live", "in", "new_york")), 5)
        store.freeze()
        tax = load_taxonomy(io.StringIO(
            "NODES\nwordnet_city\tclass\n"
            "LEXICON\ncity\twordnet_city\nnew york\twordnet_city\n"))
        result = generalize_store(store, tax)
        assert list(result) == [
            (Proposition("VPN", ("live", "in", "wordnet_city")), 15)]


def test_c03_weight_normalization_property():
    with budget("criterion 3 (weight normalization, 1000 stores)", 30.0):
        rng = random.Random(20260810)
        for _ in range(1000):
            store = make_random_store(rng)
            for key in store.pattern_keys():
                total = sum(
                    tuple_weight(t.slots[key.blank_position], t,
                                 key.blank_position, store)
                    for t in store.tuples_matching(key))
                assert abs(total - 1.0) <= 1e-9


def test_c04_source_weights_match_oracle():
    with budget("criterion 4 (source-weight oracle, 200 stores)", 60.0):
        rng = random.Random(4042)
        for _ in range(200):
            store = make_random_store(rng)
            for lexeme in sorted(store.lexemes())[:3]:
                expected = brute_force_sources(lexeme, store)
                got = {s.lexeme: s.weight
                       for s in generate_sources(lexeme, store)}
                assert set(got) == set(expected)
                for s, w in expected.items():
                    assert abs(got[s] - w) <= 1e-9


def test_c05_relatedness_properties():
    with budget("criterion 5 (relatedness properties)", 10.0):
        rng = random.Random(555)
        for _ in range(40):
            t = rng.randint(1, 50)
            vocab = rng.randint(2, 100)
            raw = [[rng.random() for _ in range(t)] for _ in range(vocab)]
            totals = [sum(topic) for topic in zip(*raw)]
            tm = TopicMatrix(t, {f"w{i}": [x / total for x, total in zip(row, totals)]
                                 for i, row in enumerate(raw)})
            words = sorted(tm.vocabulary())
            for _ in range(20):
                w1, w2 = rng.choice(words), rng.choice(words)
                r = tm.relatedness(w1, w2)
                assert r == tm.relatedness(w2, w1)
                assert r >= 0.0
                assert r * r <= (tm.relatedness(w1, w1)
                                 * tm.relatedness(w2, w2)) + 1e-9
        # hand matrices, exact dot products
        hand = TopicMatrix(2, {"a": (1.0, 0.0), "b": (0.0, 1.0),
                               "c": (0.5, 0.5), "d": (0.2, 0.8)})
        assert hand.relatedness("a", "b") == 0.0
        assert hand.relatedness("c", "d") == 0.5
        assert hand.relatedness("a", "a") == 1.0


def test_c06_scale_invariance(corpus_store, taxonomy, topic_matrix):
    with budget("criterion 6 (frequency scale invariance)", 5.0):
        scaled = Store()
        for prop, freq in corpus_store:
            scaled.add(prop, freq * 7)
        scaled.freeze()

        def full_run(store):
            props = salient_properties("poverty", store, 50)
            sources = filter_sources(generate_sources("poverty", store),
                                     "poverty", topic_matrix, 0.04)
            cms = build_cms(cluster_sources(sources, taxonomy, 5), 10)
            return props, sources, cms

        base_props, base_sources, base_cms = full_run(corpus_store)
        new_props, new_sources, new_cms = full_run(scaled)

        assert [(wt.prop, wt.position) for wt in new_props] == \
            [(wt.prop, wt.position) for wt in base_props]
        for a, b in zip(base_props, new_props):
            assert abs(a.weight - b.weight) <= 1e-9
        assert [s.lexeme for s in new_sources] == \
            [s.lexeme for s in base_sources]
        for a, b in zip(base_sources, new_sources):
            assert abs(a.weight - b.weight) <= 1e-9
        assert [cm.node for cm in new_cms] == \
            [cm.node for cm in base_cms]
        for a, b in zip(base_cms, new_cms):
            assert abs(a.weight - b.weight) <= 1e-9
            assert a.shared_patterns == b.shared_patterns


def test_c07_end_to_end_pipeline(tmp_path):
    with budget("criterion 7 (end-to-end fixture pipeline)", 10.0):
        workdir = tmp_path / "out"
        args = ["--workdir", str(workdir), "--no-generalize"]
        assert main(["extract", "--corpus", str(FIXTURES / "poverty.conllu"),
                     *args]) == 0
        assert main(["cms", "--target", "poverty",
                     "--topic-matrix", str(FIXTURES / "topics.tsv"),
                     "--taxonomy", str(FIXTURES / "taxonomy.tsv"),
                     "--threshold", "0.04", "--k", "5", *args]) == 0
        records = json.loads(
            (workdir / "cms.poverty.json").read_text(encoding="utf-8"))
        assert 0 < len(records) <= 10
        by_node = {rec["source_node"]: rec for rec in records}
        for node in ("wordnet_adversary", "wordnet_chasm", "wordnet_illness"):
            assert node in by_node, f"expected {node} among top CMs"
            assert len(by_node[node]["patterns"]) >= 5
        # the anti-relatedness filter removed the topically close decoys
        members = {m["lexeme"] for rec in records for m in rec["members"]}
        assert "corruption" not in members and "recession" not in members


def test_c08_lm_retrieval_and_sampling(corpus_sentences):
    with budget("criterion 8 (LM retrieval and sampling)", 5.0):
        targets = {"poverty", "poor"}
        sources = {"chronic", "cure", "treat", "medicine", "country",
                   "cure-all"}
        hits = list(find_lms(corpus_sentences, [(targets, sources, "poverty",
                                                  "wordnet_illness")]))
        amod = [h for h in hits if h.matched_target == "poverty"
                and h.matched_source == "chronic" and h.deprel == "amod"]
        assert amod, "chronic poverty hits missing"
        over = [h for h in hits if h.matched_target == "poor"
                and h.matched_source == "country"]
        assert over, "poor country overgeneration hit missing"
        assert not any(h.matched_source == "cure-all" for h in hits), \
            "no-arc sentence must not produce a hit"

        assert len({h.sentence_id for h in hits}) > 10
        sampled = sample_hits(hits, per_pair=10, seed=13)
        assert len(sampled) == 10
        assert sample_hits(hits, per_pair=10, seed=13) == sampled
        shuffled = hits[:]
        random.Random(99).shuffle(shuffled)  # stand-in for scheduling order
        assert sample_hits(shuffled, per_pair=10, seed=13) == sampled


def test_c09_gold_harness(tmp_path):
    with budget("criterion 9 (gold harness 10/13)", 5.0):
        gold_dir = FIXTURES / "gold"
        gold = load_gold(gold_dir / "gold.tsv")
        # a copy, so the store's index file is written outside the source tree
        shutil.copyfile(gold_dir / "gold_store.tsv", tmp_path / "gold_store.tsv")
        store = Store.load(tmp_path / "gold_store.tsv")
        table = load_expansion_table(gold_dir / "gold_expansion.tsv")
        report = eval_gold(gold, store, table, threshold=0.04, top_sources=100,
                           top_patterns=10)
        assert report.summary == "found 10 of 13"
        by_name = {r.name: r for r in report.results}
        assert not by_name["Machines->People"].found
        assert not by_name["Containers for Money->Investments"].found


def test_c10_corpus_scale_results_out_of_reach():
    """Published source lists, expert-approval rates, agreement statistics
    and per-pair weights depend on billion-word corpora plus human
    annotation; criteria 3-9 stand in for them at desk scale."""
    print("criterion 10 (not reproducible at desk scale): PASS (by design)")
