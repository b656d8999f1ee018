"""Evaluation harness against a gold list of target-source domain mappings.

Gold file: TSV rows "name <TAB> T|S <TAB> lexeme". For each mapping both
sides are expanded, sources are generated per expanded target lexeme, and
a mapping counts as found when any top-ranked source lexeme lands in the
expanded source set. Reported pair weights are min-max scaled to [0, 1]
across the whole report.
"""

from typing import NamedTuple, Optional

from . import textio
from .engine import rank_sources
from .errors import FormatError
from .lm import expand_domain
from .store import Store
from .textio import TextSource
from .topics import TopicMatrix


class GoldMapping(NamedTuple):
    name: str
    targets: frozenset[str] = frozenset()
    sources: frozenset[str] = frozenset()


class GoldPair(NamedTuple):
    target: str
    source: str
    weight: float
    scaled: float


class MappingResult(NamedTuple):
    name: str
    found: bool
    pairs: tuple[GoldPair, ...] = ()
    skipped: bool = False


class GoldReport(NamedTuple):
    results: list[MappingResult]

    @property
    def evaluated(self) -> int:
        return sum(1 for r in self.results if not r.skipped)

    @property
    def found(self) -> int:
        return sum(1 for r in self.results if r.found)

    @property
    def summary(self) -> str:
        return f"found {self.found} of {self.evaluated}"

    def render(self) -> str:
        lines = []
        for r in self.results:
            if r.skipped:
                lines.append(f"{r.name}: skipped (empty expansion)")
            elif not r.pairs:
                lines.append(f"{r.name}: none")
            else:
                pairs = ", ".join(f"{p.target} -> {p.source} ({p.scaled:.2f})"
                                  for p in r.pairs)
                lines.append(f"{r.name}: {pairs}")
        lines.append(self.summary)
        return "\n".join(lines) + "\n"


def load_gold(source: TextSource) -> list[GoldMapping]:
    sides: dict[str, dict[str, set[str]]] = {}
    for rowno, cols in textio.rows(source):
        if len(cols) != 3 or cols[1] not in ("T", "S"):
            raise FormatError("expected name <TAB> T|S <TAB> lexeme", rowno)
        sides.setdefault(cols[0], {"T": set(), "S": set()})[cols[1]].add(cols[2])
    return [GoldMapping(name, frozenset(side["T"]), frozenset(side["S"]))
            for name, side in sides.items()]


def eval_gold(gold: list[GoldMapping], store: Store,
              table: Optional[dict[str, set[str]]] = None,
              tm: Optional[TopicMatrix] = None, *,
              threshold: float, top_sources: int, top_patterns: int,
              warn=None) -> GoldReport:
    """Check each gold mapping for a generated (target, source) pair."""
    hits = []  # (mapping name, its (target, source, weight) hits or None if skipped)
    memo = {}
    for mapping in gold:
        expanded_t = expand_domain(mapping.targets, table, store, top_patterns, memo)
        expanded_s = expand_domain(mapping.sources, table, store, top_patterns, memo)
        if not expanded_t or not expanded_s:
            if warn is not None:
                warn(f"{mapping.name}: empty expansion, skipped")
            hits.append((mapping.name, None))
            continue
        hits.append((mapping.name, [
            (target, src.lexeme, src.weight) for target in sorted(expanded_t)
            for src in rank_sources(target, store, tm, threshold, top_sources)
            if src.lexeme in expanded_s]))

    weights = [w for _, found in hits if found for _, _, w in found]
    lo, hi = min(weights, default=0.0), max(weights, default=0.0)
    return GoldReport([
        MappingResult(name, False, skipped=True) if found is None else
        MappingResult(name, bool(found), tuple(
            GoldPair(t, s, w, (w - lo) / (hi - lo) if hi > lo else 1.0)
            for t, s, w in found))
        for name, found in hits])
