import io
import random

import pytest

from mf import Proposition, Store, generalize_store, load_taxonomy
from mf.errors import StoreStateError

from .randstores import make_random_store

CITY_TAXONOMY = """\
NODES
wordnet_city\tclass
LEXICON
city\twordnet_city
new york\twordnet_city
"""

AMBIG_TAXONOMY = """\
NODES
wordnet_bank_building\tclass
wordnet_river_bank\tclass
LEXICON
bank\twordnet_bank_building
bank\twordnet_river_bank
"""


def _tax(text):
    return load_taxonomy(io.StringIO(text))


def test_merge_and_sum():
    store = Store()
    store.add(Proposition("VPN", ("live", "in", "city")), 10)
    store.add(Proposition("VPN", ("live", "in", "new_york")), 5)
    store.freeze()
    result = generalize_store(store, _tax(CITY_TAXONOMY))
    assert list(result) == [
        (Proposition("VPN", ("live", "in", "wordnet_city")), 15)]


def test_unmappable_store_unchanged(corpus_store):
    empty_tax = _tax("NODES\nroot\tclass\n")
    result = generalize_store(corpus_store, empty_tax)
    assert result == corpus_store


def test_ambiguous_noun_copies_frequency():
    store = Store().add(Proposition("VN", ("rob", "bank")), 4).freeze()
    result = generalize_store(store, _tax(AMBIG_TAXONOMY))
    assert result.freq(Proposition("VN", ("rob", "wordnet_bank_building"))) == 4
    assert result.freq(Proposition("VN", ("rob", "wordnet_river_bank"))) == 4
    assert result.total() == 8


def test_ambiguity_bookkeeping_identity():
    # k-way ambiguity grows the total by (k-1) * freq per ambiguous tuple
    store = Store()
    store.add(Proposition("VN", ("rob", "bank")), 4)
    store.add(Proposition("VN", ("fight", "poverty")), 3)
    store.freeze()
    result = generalize_store(store, _tax(AMBIG_TAXONOMY))
    assert result.total() == store.total() + (2 - 1) * 4


def test_verbs_and_prepositions_untouched():
    # "live" is also a lexical item, but only noun slots are rewritten
    tax = _tax("NODES\nwordnet_life\tclass\nwordnet_city\tclass\n"
               "LEXICON\nlive\twordnet_life\ncity\twordnet_city\n")
    store = Store().add(Proposition("VPN", ("live", "in", "city")), 2).freeze()
    result = generalize_store(store, tax)
    assert list(result) == [
        (Proposition("VPN", ("live", "in", "wordnet_city")), 2)]


def test_frequencies_never_decrease():
    rng = random.Random(3)
    tax = _tax(AMBIG_TAXONOMY)
    for _ in range(10):
        store = make_random_store(rng, max_tuples=40, vocab=8)
        result = generalize_store(store, tax)
        for prop, freq in store:
            rewritten_total = sum(f for p, f in result
                                  if p.label == prop.label)
            assert rewritten_total >= freq or freq == 0
        assert result.total() >= store.total()


def test_output_is_frozen():
    store = Store().add(Proposition("VN", ("a", "b"))).freeze()
    result = generalize_store(store, _tax("NODES\nroot\tclass\n"))
    # a query needs a frozen store, and a frozen store takes no more tuples
    assert result.tuples_containing("a") == ((Proposition("VN", ("a", "b")), 0),)
    with pytest.raises(StoreStateError):
        result.add(Proposition("VN", ("c", "d")))
