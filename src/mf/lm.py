"""Domain expansion and dependency-link retrieval of candidate metaphors.

A hit is any sentence arc whose endpoint lemmas land in (targets x sources)
of a conceptual metaphor, in either direction and under any dependency
label; one pass checks every arc against all conceptual metaphors at once,
and no metaphoricity judgment is made. The expansion table is a plain
dict from a lexeme to the set of its related lexemes. Sampling caps hits
per domain pair and is reproducible: groups and pools are sorted
internally, so the result does not depend on input order or scheduling.
"""

import random
from typing import Collection, Iterable, Iterator, NamedTuple, Optional, Sequence

from . import textio
from .conllu import Sentence
from .engine import salient_properties
from .errors import FormatError
from .labels import ROLE_PREP, label_roles
from .store import Store
from .textio import TextSource


def load_expansion_table(source: TextSource) -> dict[str, set[str]]:
    """Read TSV rows "lexeme <TAB> relation <TAB> related" into a map from
    each lexeme to its related lexemes; the relation is not used."""
    table: dict[str, set[str]] = {}
    for rowno, cols in textio.rows(source):
        if len(cols) != 3:
            raise FormatError("expected lexeme <TAB> relation <TAB> related", rowno)
        table.setdefault(cols[0], set()).add(cols[2])
    return table


def expand_domain(seed: set[str], table: Optional[dict[str, set[str]]],
                  store: Store, top_p: int,
                  memo: Optional[dict[str, frozenset[str]]] = None) -> set[str]:
    """Union of the seeds, their related lexemes in the table, and the
    content lexemes of each seed's top_p highest-weight store patterns.

    `memo` keeps each lexeme's expansion: calls that share one memo must
    share the table, store and top_p too, and then expand each lexeme once.
    """
    if memo is None:
        memo = {}
    out = set(seed)
    for lexeme in seed:
        if lexeme not in memo:
            related = set(table.get(lexeme, ())) if table is not None else set()
            for wt in salient_properties(lexeme, store, top_p):
                roles = label_roles(wt.prop.label)
                for i, slot in enumerate(wt.prop.slots):
                    if i != wt.position and roles[i] != ROLE_PREP:
                        related.add(slot)
            memo[lexeme] = frozenset(related)
        out |= memo[lexeme]
    return out


class LMHit(NamedTuple):
    sentence_id: str
    target_token: int
    source_token: int
    deprel: str
    direction: str  # "target-headed" | "source-headed"
    matched_target: str
    matched_source: str
    target_domain: str
    source_domain: str
    text: str  # the hit sentence's text, shared by all its hits


def find_lms(sentences: Iterable[Sentence],
             specs: Sequence[tuple[Collection[str], Collection[str], str, str]]
             ) -> Iterator[LMHit]:
    """Stream a hit for every arc, direction and spec whose target lexemes
    hold the lemma at the arc's target end and whose source lexemes the one
    at its source end. A spec is one conceptual metaphor's (target lexemes,
    source lexemes, target domain, source domain); duplicate specs give
    duplicate hits. The specs are indexed by lemma first, so each arc looks
    up its target end once per direction, whatever the number of specs, and
    its source end only when the target end is in some spec."""
    on_target: dict[str, set[int]] = {}
    on_source: dict[str, set[int]] = {}
    for i, (targets, sources, _, _) in enumerate(specs):
        for lemma in targets:
            on_target.setdefault(lemma, set()).add(i)
        for lemma in sources:
            on_source.setdefault(lemma, set()).add(i)
    for sentence in sentences:
        tokens, text = sentence.tokens, None
        for tok in tokens:
            if tok.head == 0:
                continue
            head = tokens[tok.head - 1]
            for t, s, direction in ((tok, head, "source-headed"),
                                    (head, tok, "target-headed")):
                # most arcs end here, before any set is made
                as_target = on_target.get(t.lemma)
                if as_target is None or (as_source := on_source.get(s.lemma)) is None:
                    continue
                matched = as_target & as_source
                if not matched:
                    continue
                if text is None:
                    text = sentence.text
                for i in matched:
                    _, _, t_dom, s_dom = specs[i]
                    yield tuple.__new__(LMHit, (
                        sentence.id, t.index, s.index, tok.deprel, direction,
                        t.lemma, s.lemma, t_dom, s_dom, text))


def sample_hits(hits: Iterable[LMHit], per_pair: int, seed: int) -> list[LMHit]:
    """Uniformly sample at most per_pair hits per (target domain, source
    domain) pair, without replacement, at most one hit per sentence id per
    pair: sentences that share an id count as one.

    Deterministic under the seed regardless of input order: each pair group
    draws from its own generator seeded by (seed, pair)."""
    if per_pair < 1:
        raise ValueError(f"per_pair must be >= 1, got {per_pair}")
    groups: dict[tuple[str, str], dict[str, LMHit]] = {}
    for hit in hits:
        pair = (hit.target_domain, hit.source_domain)
        per_sentence = groups.setdefault(pair, {})
        best = per_sentence.get(hit.sentence_id)
        if best is None or hit < best:  # tokens, then relation, then the rest
            per_sentence[hit.sentence_id] = hit
    out: list[LMHit] = []
    for pair in sorted(groups):
        pool = [groups[pair][sid] for sid in sorted(groups[pair])]
        rng = random.Random(f"{seed}|{pair[0]}|{pair[1]}")
        out.extend(rng.sample(pool, min(per_pair, len(pool))))
    return out
