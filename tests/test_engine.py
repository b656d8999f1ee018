import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from mf import (PatternKey, Proposition, Store, Taxonomy, TopicMatrix,
                WeightedSource, build_cms, cluster_sources, filter_sources,
                generate_sources, load_taxonomy, rank_sources, salient_properties)

from mf.labels import label_arity

from .randstores import (brute_force_sources, brute_force_tuple_weight,
                         make_random_store, store_lexemes)


def vn(v, n, f=1):
    return Proposition("VN", (v, n)), f


def _store(*entries):
    store = Store()
    for prop, freq in entries:
        store.add(prop, freq)
    return store.freeze()


def test_salient_properties_ranking():
    store = _store(vn("fight", "poverty", 3), vn("fight", "terrorism", 6),
                   vn("cure", "poverty", 5))
    ranked = salient_properties("poverty", store, 10)
    assert [wt.prop.slots[0] for wt in ranked] == ["cure", "fight"]
    assert ranked[0].weight == 1.0
    assert ranked[1].weight == pytest.approx(3 / 9)
    # tuples of one pattern split its mass by frequency
    store = _store(vn("fight", "poverty", 3), vn("fight", "terrorism", 6),
                   vn("fight", "enemy", 1))
    for lexeme, weight in (("poverty", 0.3), ("terrorism", 0.6)):
        [wt] = salient_properties(lexeme, store, None)
        assert wt.weight == pytest.approx(weight, abs=1e-12)


def test_salient_properties_poverty_fixture(corpus_store):
    top = {wt.prop.text for wt in salient_properties("poverty", corpus_store, 20)}
    assert "NVPN majority live in poverty" in top
    assert "VN fight poverty" in top
    assert "AdvPN deep in poverty" in top


def test_salient_properties_truncation_and_singleton():
    store = _store(vn("fight", "poverty", 3))
    ranked = salient_properties("poverty", store, 99)
    assert len(ranked) == 1 and ranked[0].weight == 1.0
    assert salient_properties("absent", store, 5) == []


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["VN", "NV", "NPN"]),
                          st.lists(st.sampled_from("abc"), min_size=3, max_size=3),
                          st.integers(1, 3)), max_size=40),
       st.sampled_from("abc"), st.integers(1, 12))
def test_salient_properties_prefix_is_the_full_ranking(entries, lexeme, n):
    # three words and frequencies up to 3 make tied weights common
    store = Store()
    for label, words, freq in entries:
        store.add(Proposition(label, tuple(words[:label_arity(label)])), freq)
    store.freeze()
    full = salient_properties(lexeme, store, None)
    # reference: a stable sort of the store's (tuple, position) order, with
    # each weight's pattern total from a linear scan
    reference = sorted(((prop, i, brute_force_tuple_weight(prop, i, store), freq)
                        for prop, freq in store
                        for i, slot in enumerate(prop.slots) if slot == lexeme),
                       key=lambda r: (-r[2], -r[3]))
    assert [(wt.prop, wt.position, wt.weight, wt.frequency) for wt in full] == reference
    assert salient_properties(lexeme, store, n) == full[:n]


def test_generate_sources_mixed_patterns():
    store = _store(
        vn("fight", "poverty", 3), vn("fight", "terrorism", 6),
        vn("fight", "crime", 1),
        (Proposition("NPN", ("lift", "out of", "poverty")), 2),
        (Proposition("NPN", ("lift", "out of", "slump")), 2))
    ranked = generate_sources("poverty", store)
    weights = {s.lexeme: s.weight for s in ranked}
    assert weights["terrorism"] == pytest.approx(0.3, abs=1e-12)
    assert weights["crime"] == pytest.approx(0.3, abs=1e-12)
    assert weights["slump"] == pytest.approx(0.5, abs=1e-12)
    assert ranked[0].lexeme == "slump"
    # terrorism outranks crime on raw frequency at equal weight
    assert [s.lexeme for s in ranked[1:]] == ["terrorism", "crime"]


def test_generate_sources_sums_over_shared_patterns():
    store = _store(vn("fight", "poverty", 1), vn("fight", "crime", 1),
                   vn("cure", "poverty", 1), vn("cure", "crime", 1))
    ranked = generate_sources("poverty", store)
    assert len(ranked) == 1
    src = ranked[0]
    assert src.lexeme == "crime"
    assert src.weight == pytest.approx(1.0)
    assert len(src.evidence) == 2
    assert src.weight == pytest.approx(sum(src.evidence.values()))


def test_generate_sources_no_shared_patterns():
    store = _store(vn("fight", "poverty", 2))
    assert generate_sources("poverty", store) == []


def test_generate_sources_matches_brute_force():
    rng = random.Random(42)
    for _ in range(40):
        store = make_random_store(rng)
        for lexeme in store_lexemes(store)[:3]:
            expected = brute_force_sources(lexeme, store)
            got = {s.lexeme: s.weight for s in generate_sources(lexeme, store)}
            assert set(got) == set(expected)
            for s, w in expected.items():
                assert got[s] == pytest.approx(w, abs=1e-9)


def test_filter_sources_keep_boundary_and_oov():
    tm = TopicMatrix(2, {"poverty": (0.3, 0.0), "corruption": (0.3, 0.0),
                         "edge": (0.04 / 0.3, 0.0), "far": (0.0, 1.0)})
    sources = generate_sources("poverty", _store(
        vn("fight", "poverty", 1), vn("fight", "corruption", 1),
        vn("fight", "edge", 1), vn("fight", "far", 1), vn("fight", "oovword", 1)))
    kept = filter_sources(sources, "poverty", tm, 0.04)
    names = [s.lexeme for s in kept]
    assert "corruption" not in names          # 0.09 > 0.04
    assert "edge" in names                    # equality keeps the source
    assert "far" in names and "oovword" in names


def test_filter_sources_identity_cases():
    store = _store(vn("fight", "poverty", 1), vn("fight", "crime", 2))
    sources = generate_sources("poverty", store)
    assert filter_sources(sources, "poverty", None, 0.04) == sources
    tm = TopicMatrix(1, {"poverty": (1.0,), "crime": (1.0,)})
    assert filter_sources(sources, "poverty", tm, float("inf")) == sources
    # threshold 0 with strictly positive relatedness keeps only OOV
    store2 = _store(vn("fight", "poverty", 1), vn("fight", "crime", 2),
                    vn("fight", "oovword", 1))
    sources2 = generate_sources("poverty", store2)
    kept = filter_sources(sources2, "poverty", tm, 0.0)
    assert [s.lexeme for s in kept] == ["oovword"]
    for threshold in (-0.5, float("nan")):
        with pytest.raises(ValueError):
            filter_sources(sources2, "poverty", tm, threshold)


def test_filter_output_is_sublist():
    rng = random.Random(17)
    store = make_random_store(rng, max_tuples=60, vocab=12)
    lexeme = store_lexemes(store)[0]
    sources = generate_sources(lexeme, store)
    tm = TopicMatrix(2, {w: (rng.random(), rng.random())
                         for w in store_lexemes(store)})
    kept = filter_sources(sources, lexeme, tm, 0.2)
    index = {id(s): i for i, s in enumerate(sources)}
    positions = [index[id(s)] for s in kept]
    assert positions == sorted(positions)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_rank_sources_is_the_filtered_prefix(seed, data):
    store = make_random_store(random.Random(seed), max_tuples=60, vocab=12)
    words = store_lexemes(store)
    # two topics and four probabilities make equal relatedness, and one
    # exactly at the threshold, common; words without a vector are OOV
    vectors = data.draw(st.dictionaries(
        st.sampled_from(words), st.tuples(*[st.sampled_from((0.0, 0.1, 0.2, 0.5))] * 2)))
    tm = data.draw(st.sampled_from((None, TopicMatrix(2, vectors))))
    target = data.draw(st.sampled_from(words + ["absent"]))
    related = sorted({tm.relatedness(target, w) for w in words}) if tm else []
    threshold = data.draw(st.sampled_from(related) if related
                          else st.floats(0.0, 0.5))
    expected = filter_sources(generate_sources(target, store), target, tm, threshold)
    top = data.draw(st.integers(-1, len(expected) + 2))
    if top < 1:
        with pytest.raises(ValueError):
            rank_sources(target, store, tm, threshold, top)
    else:
        assert rank_sources(target, store, tm, threshold, top) == expected[:top]


class CountingTopics(TopicMatrix):
    def __init__(self, *args):
        super().__init__(*args)
        self.asked = []

    def relatedness(self, w1, w2):
        self.asked.append(w2)
        return super().relatedness(w1, w2)


def test_rank_sources_tests_relatedness_only_up_to_the_last_kept():
    rng = random.Random(5)
    for _ in range(100):
        store = make_random_store(rng, max_tuples=80, vocab=8)
        words = store_lexemes(store)
        target = rng.choice(words)
        vectors = {w: (rng.random(), rng.random()) for w in words
                   if w == target or rng.random() < 0.8}
        ranking = generate_sources(target, store)
        kept = filter_sources(ranking, target, TopicMatrix(2, vectors), 0.3)
        for k in range(1, len(kept) + 2):
            tm = CountingTopics(2, vectors)
            rank_sources(target, store, tm, 0.3, k)
            # the candidates ranked no lower than the k-th kept one
            reached = ranking[:ranking.index(kept[k - 1]) + 1] if k <= len(kept) \
                else ranking
            assert tm.asked == [s.lexeme for s in reached if s.lexeme in vectors]

LOCATION_TAXONOMY = """\
NODES
wordnet_location\tclass
wordnet_city\tclass
LEXICON
area\twordnet_location
room\twordnet_location
apartment\twordnet_location
city\twordnet_city
region\twordnet_location
EDGES
wordnet_city\twordnet_location
"""


def test_cluster_sources_location_example():
    entries = []
    for noun in ("poverty", "area", "room", "apartment", "city", "region"):
        for verb in ("live", "reside", "settle", "stay", "remain"):
            entries.append((Proposition("VPN", (verb, "in", noun)), 2))
    store = _store(*entries)
    sources = generate_sources("poverty", store)
    tax = load_taxonomy(io.StringIO(LOCATION_TAXONOMY))
    concepts = cluster_sources(sources, tax, k=5)
    by_node = {c.node: c for c in concepts}
    assert "wordnet_location" in by_node
    top = by_node["wordnet_location"]
    assert {m.lexeme for m in top.members} == {"area", "room", "apartment",
                                               "city", "region"}
    assert len(top.shared_patterns) >= 5
    assert top.weight == pytest.approx(sum(m.weight for m in top.members))


def test_cluster_concept_weight_is_member_sum():
    tax = load_taxonomy(io.StringIO(LOCATION_TAXONOMY))
    entries = []
    for verb in ("live", "reside", "settle", "stay", "remain"):
        entries.append((Proposition("VPN", (verb, "in", "poverty")), 1))
        entries.append((Proposition("VPN", (verb, "in", "area")), 3))
        entries.append((Proposition("VPN", (verb, "in", "city")), 1))
    store = _store(*entries)
    sources = generate_sources("poverty", store)
    concepts = cluster_sources(sources, tax, k=5)
    location = next(c for c in concepts if c.node == "wordnet_location")
    assert location.weight == pytest.approx(
        sum(m.weight for m in location.members), abs=1e-12)

    tenths = [WeightedSource(f"w{i}", 0.1, {PatternKey("VN", (f"v{i}", None)): 0.1})
              for i in range(10)]
    tax = load_taxonomy(io.StringIO(
        "NODES\nwordnet_w\tclass\nLEXICON\n"
        + "".join(f"w{i}\twordnet_w\n" for i in range(10))))
    [concept] = cluster_sources(tenths, tax, k=5)
    # added left to right, the same on every Python; a compensated sum
    # (the built-in sum since 3.12, or math.fsum) gives 1.0
    assert concept.weight == 0.9999999999999999


def test_cluster_singletons_need_k_patterns():
    tax = load_taxonomy(io.StringIO(
        "NODES\nwordnet_area\tclass\nwordnet_food\tclass\n"
        "LEXICON\narea\twordnet_area\nbread\twordnet_food\n"))
    entries = [(Proposition("VPN", (v, "in", "poverty")), 1) for v in
               ("live", "reside", "settle", "stay", "remain")]
    entries += [(Proposition("VPN", (v, "in", "area")), 1) for v in
                ("live", "reside", "settle", "stay", "remain")]
    entries += [(Proposition("VPN", ("live", "in", "bread")), 1)]
    store = _store(*entries)
    sources = generate_sources("poverty", store)
    concepts = cluster_sources(sources, tax, k=5)
    nodes = {c.node for c in concepts}
    assert nodes == {"wordnet_area"}  # bread shares only 1 pattern


def test_cluster_prunes_dominated_identical_member_sets(corpus_store, taxonomy,
                                                        topic_matrix):
    sources = filter_sources(generate_sources("poverty", corpus_store),
                             "poverty", topic_matrix, 0.04)
    concepts = cluster_sources(sources, taxonomy, k=5)
    nodes = {c.node for c in concepts}
    # wordnet_condition has exactly the members of wordnet_illness and is
    # its ancestor, so only the more specific node is emitted
    assert "wordnet_illness" in nodes
    assert "wordnet_condition" not in nodes


def test_build_cms():
    tax = load_taxonomy(io.StringIO(LOCATION_TAXONOMY))
    entries = []
    for noun in ("poverty", "area", "room"):
        for verb in ("live", "reside", "settle", "stay", "remain"):
            entries.append((Proposition("VPN", (verb, "in", noun)), 1))
    store = _store(*entries)
    sources = generate_sources("poverty", store)
    concepts = cluster_sources(sources, tax, k=5)
    assert concepts
    assert build_cms(concepts, top_m=10) == concepts
    assert build_cms(concepts * 3, 1) == concepts[:1]
    assert build_cms([], 10) == []
    with pytest.raises(ValueError):
        build_cms(concepts, 0)


@st.composite
def stores_and_taxonomies(draw):
    """A random store, and a random class taxonomy that files some of its
    lexemes under one or two classes; each class's parents come before it."""
    store = make_random_store(random.Random(draw(st.integers(0, 2**32 - 1))),
                              max_tuples=60, vocab=12)
    classes = [f"c{i}" for i in range(draw(st.integers(1, 6)))]
    parents = {c: draw(st.sets(st.sampled_from(classes[:i]), max_size=2))
               for i, c in enumerate(classes) if i}
    lexicon = {}
    for lexeme in store_lexemes(store):
        filed = draw(st.sets(st.sampled_from(classes), max_size=2))
        if filed:
            lexicon[lexeme] = filed
    return store, Taxonomy(dict.fromkeys(classes, "class"), parents, lexicon)


@settings(max_examples=200, deadline=None)
@given(stores_and_taxonomies(), st.integers(1, 4), st.integers(1, 4))
def test_cluster_sources_is_the_cm_ranking(store_tax, k, top_m):
    store, tax = store_tax
    for lexeme in store_lexemes(store)[:3]:
        concepts = cluster_sources(generate_sources(lexeme, store), tax, k)
        for c in concepts:
            assert len(c.shared_patterns) >= k
            assert c.shared_patterns == {p for m in c.members for p in m.evidence}
            weight = 0.0
            for m in c.members:
                weight += m.weight
            assert c.weight == weight
        nodes = [c.node for c in concepts]
        assert len(set(nodes)) == len(nodes)
        keys = [(-c.weight, c.node) for c in concepts]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert build_cms(concepts, top_m) == concepts[:top_m]


def test_rankings_deterministic(corpus_store, taxonomy, topic_matrix):
    def run():
        sources = generate_sources("poverty", corpus_store)
        kept = filter_sources(sources, "poverty", topic_matrix, 0.04)
        concepts = cluster_sources(kept, taxonomy, 5)
        return ([(s.lexeme, s.weight) for s in kept],
                [(c.node, c.weight) for c in concepts])

    first = run()
    for _ in range(3):
        assert run() == first
