"""Salient properties, source lexeme generation, relatedness filtering,
and clustering of sources into weighted conceptual metaphors.

A tuple's weight relative to a lexeme filling slot i is its frequency
divided by the summed frequency of every tuple matching the pattern that
blanks slot i. A candidate source lexeme accumulates the weights of the
seed's tuples whose patterns it also fills; which patterns those are is
kept as per-source evidence, because pattern sharing is what a conceptual
metaphor transfers.

`rank_sources` keeps a target's best sources in one lazy pass: it sums
every candidate's weight over the store's ids and sorts the ids, then walks
that ranking, applies the topic-relatedness filter to each candidate it
reaches, and stops once `top` have passed. Only the kept sources are made
into `WeightedSource`s with their evidence, so the cost of the filter and
of the strings follows `top`, not the candidate count.

Each ranking breaks ties by a fixed key, so results are identical across
runs and schedules: salient properties by (weight desc, frequency desc,
then the store's tuple and slot order), sources by (weight desc, evidence
frequency desc, lexeme asc), and source concepts by (weight desc, node
asc). A conceptual metaphor is a source concept of the target's sources,
so the best concepts are its CMs, in the same order.
"""

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterator

from .store import PatternKey, Proposition, Store
from .taxonomy import CLASS, Taxonomy, map_noun
from .topics import TopicMatrix


@dataclass(frozen=True)
class WeightedTuple:
    prop: Proposition
    position: int
    weight: float
    frequency: int


@dataclass
class WeightedSource:
    lexeme: str
    weight: float
    evidence: dict[PatternKey, float] = field(default_factory=dict)
    evidence_freq: int = 0


@dataclass
class SourceConcept:
    node: str
    members: tuple[WeightedSource, ...]
    shared_patterns: frozenset[PatternKey]
    weight: float


def tuple_weight(lexeme: str, prop: Proposition, position: int, store: Store) -> float:
    """Frequency of the tuple over the total of its blanked-slot pattern."""
    freq = store.freq(prop)
    if freq == 0:
        raise ValueError(f"tuple not in store: {prop.text}")
    if not 0 <= position < len(prop.slots) or prop.slots[position] != lexeme:
        raise ValueError(
            f"lexeme {lexeme!r} does not fill slot {position} of {prop.text}")
    return freq / store.pattern_total(prop.pattern(position))


def salient_properties(lexeme: str, store: Store,
                       top_n: int | None) -> list[WeightedTuple]:
    """Rank every tuple containing the lexeme by its relative weight.

    top_n=None returns the full ranking.
    """
    if top_n is not None and top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    index = store.index
    freqs, totals = index.row_freq, index.pattern_total
    # n, the store's (tuple, position) order, breaks ties, so no two keys
    # ever compare their rows
    keyed = sorted((-(freqs[r] / totals[p]), -freqs[r], n, r, i)
                   for n, (r, i, p) in enumerate(index.entries(lexeme)))
    return [WeightedTuple(index.proposition(r), i, -weight, -freq)
            for weight, freq, _, r, i in keyed[:top_n]]


def _ranked_sources(lexeme: str, store: Store,
                    keep: Callable[[str], bool] | None) -> Iterator[WeightedSource]:
    """Candidate source lexemes by the seed-tuple weights they share, best
    first, skipping those `keep` rejects (none when it is None).

    A lexeme s is a candidate when some tuple puts s in the same blanked
    position of a pattern that one of the seed's tuples fills; it then
    collects that seed tuple's weight. The sums run over the store's ids,
    in the store's order. `keep` runs, and evidence and pattern keys are
    made, only for the candidates the caller draws.
    """
    index = store.index
    freqs, totals = index.row_freq, index.pattern_total
    slots, row_start = index.slots, index.row_start
    seed = index.lexeme_id(lexeme)
    entries = index.entries(lexeme)
    weights = []  # each seed entry's weight
    acc: dict[int, list] = {}  # source id -> [weight, evidence freq, seed entries]
    for k, (r, i, p) in enumerate(entries):
        wt = freqs[r] / totals[p]
        weights.append(wt)
        for other in index.rows_of(p):
            s = slots[row_start[other] + i]
            if s == seed:
                continue
            entry = acc.get(s)
            if entry is None:
                entry = acc[s] = [0.0, 0, []]
            entry[0] += wt
            entry[1] += freqs[other]
            # a pattern's rows differ in its blank slot, so a source meets
            # each seed entry once
            entry[2].append(k)
    keys: dict[int, PatternKey] = {}  # seed entry -> its pattern, made once
    for s, (weight, freq, seen) in sorted(
            acc.items(), key=lambda item: (-item[1][0], -item[1][1], item[0])):
        name = index.lexemes[s]
        if keep is not None and not keep(name):
            continue
        evidence = {}
        for k in seen:
            key = keys.get(k)
            if key is None:
                r, i, _ = entries[k]
                key = keys[k] = index.pattern_key(r, i)
            evidence[key] = weights[k]
        yield WeightedSource(name, weight, evidence, freq)


def _unrelated(target: str, tm: TopicMatrix | None,
               threshold: float) -> Callable[[str], bool] | None:
    """The relatedness filter's keep-test for the target's sources: a source
    survives when it is out of vocabulary or its relatedness to the target
    is at most the threshold. None when it keeps every source."""
    if not threshold >= 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    if tm is None or tm.is_oov(target):
        return None
    return lambda lexeme: (tm.is_oov(lexeme)
                           or tm.relatedness(target, lexeme) <= threshold)


def generate_sources(lexeme: str, store: Store) -> list[WeightedSource]:
    """Weight every candidate source lexeme by the seed-tuple weights it
    shares, best first."""
    return list(_ranked_sources(lexeme, store, None))


def filter_sources(sources: list[WeightedSource], target: str,
                   tm: TopicMatrix | None, threshold: float) -> list[WeightedSource]:
    """Drop sources whose topic relatedness to the target exceeds the
    threshold; out-of-vocabulary sources always survive. Order preserved."""
    keep = _unrelated(target, tm, threshold)
    return list(sources) if keep is None else [s for s in sources if keep(s.lexeme)]


def rank_sources(target: str, store: Store, tm: TopicMatrix | None,
                 threshold: float, top: int) -> list[WeightedSource]:
    """The target's best `top` sources that pass the relatedness filter (no
    filter without a topic matrix): `filter_sources(generate_sources(...))
    [:top]`, but the ranking is walked once and stops at the `top`-th kept
    source, so the filter tests and the sources made are only those it
    reaches."""
    if top < 1:
        raise ValueError(f"top must be >= 1, got {top}")
    return list(islice(_ranked_sources(target, store,
                                       _unrelated(target, tm, threshold)), top))


def cluster_sources(sources: list[WeightedSource], tax: Taxonomy,
                    k: int) -> list[SourceConcept]:
    """Group sources under taxonomy classes they are hyponyms of.

    A class qualifies when its members' target-shared patterns union to k
    or more; for identical member sets only the most specific qualifying
    nodes are kept. Concept weight is the sum of member weights.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    member_map: dict[str, list[WeightedSource]] = {}
    for src in sources:
        nodes: set[str] = set()
        for cls in map_noun(src.lexeme, tax):
            nodes |= {n for n in tax.ancestors(cls) if tax.kinds[n] == CLASS}
        for node in nodes:
            member_map.setdefault(node, []).append(src)

    qualifying: dict[str, SourceConcept] = {}
    for node, members in member_map.items():
        patterns = frozenset(p for m in members for p in m.evidence)
        if len(patterns) >= k:
            # left to right on every Python: since 3.12 the built-in sum
            # compensates float rounding, which would move weights and tie order
            weight = 0.0
            for m in members:
                weight += m.weight
            qualifying[node] = SourceConcept(node, tuple(members), patterns, weight)

    # identical member sets: keep only nodes with no qualifying descendant
    by_members: dict[frozenset, list[str]] = {}
    for node, concept in qualifying.items():
        by_members.setdefault(frozenset(m.lexeme for m in concept.members),
                              []).append(node)
    concepts = []
    for nodes in by_members.values():
        for node in nodes:
            dominated = any(other != node and node in tax.ancestors(other)
                            for other in nodes)
            if not dominated:
                concepts.append(qualifying[node])
    concepts.sort(key=lambda c: (-c.weight, c.node))
    return concepts


def build_cms(concepts: list[SourceConcept], top_m: int) -> list[SourceConcept]:
    """The target's conceptual metaphors: its best top_m source concepts,
    as cluster_sources ranked them."""
    if top_m < 1:
        raise ValueError(f"top_m must be >= 1, got {top_m}")
    return concepts[:top_m]
