"""Random store generation and independent brute-force oracles.

The oracles deliberately avoid the store's indexes and the engine's
bookkeeping: everything is recomputed by scanning all tuples.
"""

import random

from mf import Proposition, Store

LABELS = ("NV", "VN", "VPN", "NPN", "AN", "NN", "NVPN")


def make_random_store(rng: random.Random, max_tuples: int = 100,
                      vocab: int = 30) -> Store:
    words = [f"w{i:02d}" for i in range(rng.randint(2, vocab))]
    store = Store()
    for _ in range(rng.randint(1, max_tuples)):
        label = rng.choice(LABELS)
        arity = {"NV": 2, "VN": 2, "AN": 2, "NN": 2, "VPN": 3, "NPN": 3,
                 "NVPN": 4}[label]
        slots = tuple(rng.choice(words) for _ in range(arity))
        store.add(Proposition(label, slots), rng.randint(1, 20))
    return store.freeze()


def brute_force_tuple_weight(prop: Proposition, position: int,
                             store: Store) -> float:
    """Frequency over the linear-scan total of same-pattern tuples."""
    total = 0
    for other, freq in store:
        if other.label != prop.label:
            continue
        if all(a == b for i, (a, b) in enumerate(zip(other.slots, prop.slots))
               if i != position):
            total += freq
    return store.freq(prop) / total


def store_lexemes(store: Store) -> list[str]:
    """The store's lexemes, sorted, from a scan of its rows."""
    return sorted({slot for prop, _ in store for slot in prop.slots})


def brute_force_sources(lexeme: str, store: Store) -> dict[str, float]:
    """Double loop over all tuple pairs, per the summation definition."""
    weights: dict[str, float] = {}
    entries = list(store)
    for prop, _ in entries:
        for i, slot in enumerate(prop.slots):
            if slot != lexeme:
                continue
            wt = brute_force_tuple_weight(prop, i, store)
            for other, _ in entries:
                if other.label != prop.label:
                    continue
                if any(a != b for j, (a, b) in
                       enumerate(zip(other.slots, prop.slots)) if j != i):
                    continue
                s = other.slots[i]
                if s != lexeme:
                    weights[s] = weights.get(s, 0.0) + wt
    return weights


def brute_force_containing(lexeme: str, store: Store) -> set:
    return {(prop, i) for prop, _ in store
            for i, slot in enumerate(prop.slots) if slot == lexeme}
