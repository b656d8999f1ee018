"""Rewriting noun slots to taxonomy classes and merging identical tuples.

Ambiguous nouns fan out to every candidate class, and each copy carries
the full original frequency.
"""

import functools
import itertools

from .labels import noun_positions
from .store import Proposition, Store
from .taxonomy import Taxonomy, map_noun


def generalize_store(store: Store, tax: Taxonomy) -> Store:
    """Return a new frozen store with noun slots rewritten to class ids.

    Nouns with no taxonomy candidates keep their original lexeme; identical
    rewritten tuples are merged with summed frequencies.
    """
    @functools.cache
    def options(lexeme: str) -> tuple[str, ...]:
        return tuple(sorted(map_noun(lexeme, tax))) or (lexeme,)

    out = Store()
    for prop, freq in store:
        nouns = noun_positions(prop.label)
        if not nouns:
            out.add(prop, freq)
            continue
        label, slots = prop
        for rewritten in itertools.product(*[options(s) if i in nouns else (s,)
                                             for i, s in enumerate(slots)]):
            out.add(tuple.__new__(Proposition, (label, rewritten)), freq)
    return out.freeze()
