import io
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional

import pytest
from hypothesis import given, settings, strategies as st

import mf
from mf import Taxonomy, load_taxonomy, map_noun
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
            assert taxonomy.kinds[node] == "class", (word, node)


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


def test_cycle_error_names_one_node_under_every_hash_seed():
    # x sits under two disjoint cycles, p <-> r and q <-> s
    text = ("NODES\nx\tclass\np\tclass\nq\tclass\nr\tclass\ns\tclass\n"
            "EDGES\nx\tp\nx\tq\np\tr\nr\tp\nq\ts\ns\tq\n")
    code = ("import io, sys\nfrom mf import load_taxonomy\n"
            "try:\n    load_taxonomy(io.StringIO(sys.stdin.read()))\n"
            "except Exception as exc:\n    print(exc)\n")
    package_root = str(Path(mf.__file__).parents[1])
    messages = {subprocess.run(
        [sys.executable, "-B", "-c", code], input=text, check=True,
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=package_root)).stdout
        for seed in ("1", "2", "3", "4", "5", "6")}
    assert len(messages) == 1
    assert "hypernym cycle through" in messages.pop()


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


def _instance_chain(depth, top):
    """Instances i<depth-1> -> ... -> i0, with i0 under the class `top`
    if given; nodes are listed bottom first."""
    nodes = "".join(f"i{i}\tinstance\n" for i in reversed(range(depth)))
    edges = "".join(f"i{i + 1}\ti{i}\n" for i in range(depth - 1))
    if top is not None:
        nodes += f"{top}\tclass\n"
        edges += f"i0\t{top}\n"
    return f"NODES\n{nodes}EDGES\n{edges}"


def test_deep_instance_chain_loads_in_linear_time():
    text = _instance_chain(4000, "c")
    start = time.perf_counter()
    tax = load_taxonomy(io.StringIO(text))
    assert time.perf_counter() - start < 1.0
    assert tax.classes({"i3999"}) == {"c"}


def test_instance_without_class_ancestor_rejected():
    with pytest.raises(FormatError, match="instance 'x' has no class ancestor"):
        load_taxonomy(io.StringIO("NODES\nx\tinstance\n"))
    # a chain is refused at its top, the instance the climb ends at
    with pytest.raises(FormatError, match="instance 'i0' has no class ancestor"):
        load_taxonomy(io.StringIO(_instance_chain(5, None)))


def test_bad_kind_rejected():
    text = "NODES\nx\tthing\n"
    with pytest.raises(FormatError) as err:
        load_taxonomy(io.StringIO(text))
    assert err.value.row == 2


def test_node_listed_again_with_another_kind_rejected():
    text = "NODES\nx\tclass\ny\tclass\nx\tclass\nx\tinstance\n"
    with pytest.raises(FormatError, match="'x' listed again") as err:
        load_taxonomy(io.StringIO(text))
    assert err.value.row == 5


@pytest.mark.parametrize("person, row", [
    ("PERSON\nperson\nperson\n", 6),
    ("PERSON\nperson\nPERSON\nthing\n", 7),
    ("PERSON\nperson\tthing\n", 5),
])
def test_person_takes_one_node_in_one_row(person, row):
    text = "NODES\nperson\tclass\nthing\tclass\n" + person
    with pytest.raises(FormatError) as err:
        load_taxonomy(io.StringIO(text))
    assert err.value.row == row


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
        assert tax.kinds[n] == kinds[n]
        assert tax.ancestors(n) == closure[n] | {n}


# The noun-to-class mapping as it was written before Taxonomy owned it,
# kept as the reference for map_noun: nodes carry their kind and parents,
# and the lexicon and names are normalized by the caller.

def _normalize(item):
    return " ".join(item.lower().replace("_", " ").split())


class _RefNode(NamedTuple):
    kind: str
    parents: frozenset


@dataclass
class _RefTaxonomy:
    nodes: dict
    lexical_index: dict
    given_names: set
    surnames: set
    person_class: Optional[str]

    def __post_init__(self):
        self._multiword = {}
        for item in self.lexical_index:
            words = item.split(" ")
            if len(words) > 1:
                for w in words:
                    self._multiword.setdefault(w, set()).add(item)

    def nearest_classes(self, node_id):
        node = self.nodes[node_id]
        if node.kind == "class":
            return {node_id}
        out = set()
        frontier = set(node.parents)
        seen = set()
        while frontier:
            nxt = set()
            for cur in frontier:
                if cur in seen:
                    continue
                seen.add(cur)
                if self.nodes[cur].kind == "class":
                    out.add(cur)
                else:
                    nxt |= set(self.nodes[cur].parents)
            frontier = nxt
        return out

    def _to_classes(self, node_ids):
        classes = {n for n in node_ids if self.nodes[n].kind == "class"}
        if classes:
            return classes
        out = set()
        for n in node_ids:
            out |= self.nearest_classes(n)
        return out


def _ref_map_noun(noun, tax):
    q = _normalize(noun)
    if tax.person_class and (q in tax.given_names or q in tax.surnames):
        return {tax.person_class}
    if noun in tax.nodes:
        return tax._to_classes({noun})
    nodes = set(tax.lexical_index.get(q, ()))
    if not nodes:
        for item in tax._multiword.get(q, ()):
            nodes |= tax.lexical_index[item]
    if not nodes:
        return set()
    return tax._to_classes(nodes)


_WORDS = st.sampled_from(["new", "York", "times", "big", "Apple", "john"])
_ITEMS = st.builds(lambda words, sep: sep.join(words),
                   st.lists(_WORDS, min_size=1, max_size=3),
                   st.sampled_from([" ", "_", "  "]))


@settings(max_examples=300, deadline=None)
@given(dags(), st.data())
def test_map_noun_matches_the_reference(dag, data):
    kinds, parents = dag
    ids = sorted(kinds)
    lexicon = data.draw(st.dictionaries(
        st.one_of(_ITEMS, st.sampled_from(ids)),
        st.lists(st.sampled_from(ids), min_size=1, max_size=3), max_size=8))
    names = data.draw(st.dictionaries(st.one_of(_ITEMS, st.sampled_from(ids)),
                                      st.sampled_from(["given", "surname"]),
                                      max_size=3))
    person = data.draw(st.one_of(st.none(), st.sampled_from(ids)))
    tax = Taxonomy(kinds, parents, lexicon, names, person)

    index = {}
    for item, nodes in lexicon.items():
        index.setdefault(_normalize(item), set()).update(nodes)
    ref = _RefTaxonomy(
        {n: _RefNode(k, frozenset(parents[n])) for n, k in kinds.items()}, index,
        {_normalize(n) for n, t in names.items() if t == "given"},
        {_normalize(n) for n, t in names.items() if t == "surname"}, person)
    words = {w for item in lexicon for w in _normalize(item).split(" ")}
    for noun in [*ids, *lexicon, *words, *names, "qwzx"]:
        assert map_noun(noun, tax) == _ref_map_noun(noun, ref), noun
