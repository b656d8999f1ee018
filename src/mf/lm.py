"""Domain expansion and dependency-link retrieval of candidate metaphors.

A hit is any sentence arc whose endpoint lemmas land in (targets x sources),
in either direction and under any dependency label; no metaphoricity
judgment is made. Sampling caps hits per domain pair and is reproducible:
groups and pools are sorted internally, so the result does not depend on
input order or scheduling.
"""

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from . import textio
from .conllu import Sentence
from .engine import salient_properties
from .errors import FormatError
from .labels import ROLE_PREP, label_roles
from .store import Store
from .textio import TextSource


class ExpansionTable:
    """Lexeme -> semantically related lexemes.

    File format: TSV rows "lexeme <TAB> relation <TAB> related" (relation unused).
    """

    def __init__(self, rows: Iterable[tuple[str, str, str]] = ()):
        self._related: dict[str, set[str]] = {}
        for lexeme, _, related in rows:
            self._related.setdefault(lexeme, set()).add(related)

    def related(self, lexeme: str) -> set[str]:
        return set(self._related.get(lexeme, ()))


def load_expansion_table(source: TextSource) -> ExpansionTable:
    rows = []
    for rowno, cols in textio.rows(source):
        if len(cols) != 3:
            raise FormatError("expected lexeme <TAB> relation <TAB> related", rowno)
        rows.append((cols[0], cols[1], cols[2]))
    return ExpansionTable(rows)


def expand_domain(seed: set[str], table: Optional[ExpansionTable],
                  store: Optional[Store] = None, top_p: int = 0) -> set[str]:
    """Union of the seeds, their table expansions, and the content lexemes
    of each seed's top_p highest-weight store patterns."""
    out = set(seed)
    for lexeme in seed:
        if table is not None:
            out |= table.related(lexeme)
        if store is not None and top_p > 0:
            for wt in salient_properties(lexeme, store, top_p):
                roles = label_roles(wt.prop.label)
                for i, slot in enumerate(wt.prop.slots):
                    if i != wt.position and roles[i] != ROLE_PREP:
                        out.add(slot)
    return out


@dataclass(frozen=True)
class LMHit:
    sentence_id: str
    target_token: int
    source_token: int
    deprel: str
    direction: str  # "target-headed" | "source-headed"
    matched_target: str
    matched_source: str
    target_domain: str
    source_domain: str


def find_lms(sentences: Iterable[Sentence], targets: set[str], sources: set[str],
             target_domain: Optional[str] = None,
             source_domain: Optional[str] = None) -> Iterator[LMHit]:
    """Stream hits for every arc linking a target lemma to a source lemma.

    Domain tags default to the matched lexemes; drivers retrieving per
    conceptual metaphor pass the CM's domains so sampling can group by
    concept pair.
    """
    if not targets or not sources:
        return
    for sentence in sentences:
        for tok in sentence.tokens:
            if tok.head == 0:
                continue
            head = sentence.token_at(tok.head)
            for t_tok, s_tok in ((tok, head), (head, tok)):
                if t_tok.lemma in targets and s_tok.lemma in sources:
                    direction = ("target-headed" if t_tok.index == tok.head
                                 else "source-headed")
                    yield LMHit(
                        sentence_id=sentence.id,
                        target_token=t_tok.index,
                        source_token=s_tok.index,
                        deprel=tok.deprel,
                        direction=direction,
                        matched_target=t_tok.lemma,
                        matched_source=s_tok.lemma,
                        target_domain=target_domain or t_tok.lemma,
                        source_domain=source_domain or s_tok.lemma,
                    )


def sample_hits(hits: Iterable[LMHit], per_pair: int, seed: int) -> list[LMHit]:
    """Uniformly sample at most per_pair hits per (target domain, source
    domain) pair, without replacement, at most one hit per sentence per pair.

    Deterministic under the seed regardless of input order: each pair group
    draws from its own generator seeded by (seed, pair)."""
    if per_pair < 1:
        raise ValueError(f"per_pair must be >= 1, got {per_pair}")
    groups: dict[tuple[str, str], dict[str, LMHit]] = {}
    for hit in hits:
        pair = (hit.target_domain, hit.source_domain)
        per_sentence = groups.setdefault(pair, {})
        best = per_sentence.get(hit.sentence_id)
        if best is None or (hit.target_token, hit.source_token, hit.deprel) < \
                (best.target_token, best.source_token, best.deprel):
            per_sentence[hit.sentence_id] = hit
    out: list[LMHit] = []
    for pair in sorted(groups):
        pool = [groups[pair][sid] for sid in sorted(groups[pair])]
        rng = random.Random(f"{seed}|{pair[0]}|{pair[1]}")
        out.extend(rng.sample(pool, min(per_pair, len(pool))))
    return out
