import io

import pytest
from hypothesis import given, settings, strategies as st

from mf import load_taxonomy, map_noun
from mf.errors import FormatError

from .lexemes import LEXEMES


def test_mixed_candidates_prefer_classes(taxonomy):
    assert map_noun("nirvana", taxonomy) == {"wordnet_nirvana"}


def test_names_map_to_person_class(taxonomy):
    assert map_noun("stevens", taxonomy) == {"wordnet_person"}
    assert map_noun("john", taxonomy) == {"wordnet_person"}
    assert map_noun("John", taxonomy) == {"wordnet_person"}


def test_instance_only_maps_to_parent_class(taxonomy):
    assert map_noun("new york", taxonomy) == {"wordnet_city"}
    assert map_noun("new_york", taxonomy) == {"wordnet_city"}


def test_exact_match(taxonomy):
    assert map_noun("enemy", taxonomy) == {"wordnet_enemy"}
    assert map_noun("area", taxonomy) == {"wordnet_location"}


def test_substring_is_word_boundary_aware(taxonomy):
    # "york" occurs as a word inside "new york" and "new york times"
    assert map_noun("york", taxonomy) == {"wordnet_city", "wordnet_newspaper"}
    # "yor" is a character substring only, so it must not match
    assert map_noun("yor", taxonomy) == set()


def test_unknown_noun_empty(taxonomy):
    assert map_noun("qwzx", taxonomy) == set()


def test_map_noun_returns_classes_only(taxonomy):
    for word in ("nirvana", "new york", "enemy", "john", "york",
                 "peter gabriel", "cancer"):
        for node in map_noun(word, taxonomy):
            assert taxonomy.kind(node) == "class", (word, node)


def test_node_id_recognized_for_generalized_slots(taxonomy):
    assert map_noun("wordnet_enemy", taxonomy) == {"wordnet_enemy"}


def test_ancestors_and_hyponymy(taxonomy):
    assert "wordnet_illness" in taxonomy.ancestors("wordnet_cancer")
    assert "wordnet_condition" in taxonomy.ancestors("wordnet_cancer")
    assert "wordnet_cancer" in taxonomy.ancestors("wordnet_cancer")
    assert "wordnet_cancer" not in taxonomy.ancestors("wordnet_illness")


def test_cycle_detected():
    text = ("NODES\na\tclass\nb\tclass\n"
            "EDGES\na\tb\nb\ta\n")
    with pytest.raises(FormatError):
        load_taxonomy(io.StringIO(text))


def test_deep_chain_loads_and_its_cycle_is_detected():
    depth = 3000
    nodes = "".join(f"c{i}\tclass\n" for i in range(depth))
    edges = "".join(f"c{i}\tc{i + 1}\n" for i in range(depth - 1))
    text = f"NODES\n{nodes}EDGES\n{edges}"
    assert len(load_taxonomy(io.StringIO(text)).ancestors("c0")) == depth
    with pytest.raises(FormatError, match="cycle"):
        load_taxonomy(io.StringIO(text + f"c{depth - 1}\tc0\n"))
    with pytest.raises(FormatError, match="unknown node 'missing'"):
        load_taxonomy(io.StringIO(text + f"c{depth - 1}\tmissing\n"))


def test_instance_without_class_ancestor_rejected():
    text = "NODES\nx\tinstance\n"
    with pytest.raises(FormatError):
        load_taxonomy(io.StringIO(text))


def test_bad_kind_rejected():
    text = "NODES\nx\tthing\n"
    with pytest.raises(FormatError):
        load_taxonomy(io.StringIO(text))


def test_lexicon_referencing_unknown_node_rejected():
    text = "NODES\na\tclass\nLEXICON\nword\tmissing\n"
    with pytest.raises(FormatError):
        load_taxonomy(io.StringIO(text))


@st.composite
def dags(draw):
    """(kinds, parents) of a random DAG whose instances all have a class
    ancestor: node 0 is a class, every node's parents come before it, and
    an instance has at least one parent."""
    ids = draw(st.lists(LEXEMES, min_size=1, max_size=8, unique=True))
    kinds, parents = {}, {}
    for i, node in enumerate(ids):
        kind = "class" if i == 0 else draw(st.sampled_from(["class", "instance"]))
        kinds[node] = kind
        parents[node] = set() if i == 0 else draw(
            st.sets(st.sampled_from(ids[:i]), min_size=int(kind == "instance")))
    return kinds, parents


@settings(max_examples=100, deadline=None)
@given(dags(), st.randoms(use_true_random=False))
def test_taxonomy_ancestors_are_the_transitive_closure(dag, rng):
    kinds, parents = dag
    nodes = [f"{n}\t{k}\n" for n, k in kinds.items()]
    edges = [f"{c}\t{p}\n" for c in parents for p in parents[c]]
    rng.shuffle(nodes)
    rng.shuffle(edges)
    tax = load_taxonomy(io.StringIO("# taxonomy\nNODES\n" + "".join(nodes)
                                    + "EDGES\n" + "".join(edges)))
    closure = {n: set(ps) for n, ps in parents.items()}
    changed = True
    while changed:
        changed = False
        for n in closure:
            reached = set().union(closure[n], *(closure[p] for p in closure[n]))
            changed |= reached != closure[n]
            closure[n] = reached
    for n in kinds:
        assert tax.kind(n) == kinds[n]
        assert tax.ancestors(n, reflexive=False) == closure[n]
        assert tax.ancestors(n) == closure[n] | {n}
