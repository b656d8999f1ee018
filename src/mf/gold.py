"""Evaluation harness against a gold list of target-source domain mappings.

Gold file: TSV rows "name <TAB> T|S <TAB> lexeme". For each mapping both
sides are expanded, sources are generated per expanded target lexeme, and
a mapping counts as found when any top-ranked source lexeme lands in the
expanded source set. Reported pair weights are min-max scaled to [0, 1]
across the whole report.
"""

from dataclasses import dataclass, field
from typing import Optional

from . import textio
from .engine import rank_sources
from .errors import FormatError
from .lm import expand_domain
from .store import Store
from .textio import TextSource
from .topics import TopicMatrix


@dataclass
class GoldMapping:
    name: str
    targets: set[str] = field(default_factory=set)
    sources: set[str] = field(default_factory=set)


@dataclass
class GoldPair:
    target: str
    source: str
    weight: float
    scaled: float = 0.0


@dataclass
class MappingResult:
    name: str
    found: bool
    pairs: list[GoldPair] = field(default_factory=list)
    skipped: bool = False


@dataclass
class GoldReport:
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
    mappings: dict[str, GoldMapping] = {}
    for rowno, cols in textio.rows(source):
        if len(cols) != 3 or cols[1] not in ("T", "S"):
            raise FormatError("expected name <TAB> T|S <TAB> lexeme", rowno)
        mapping = mappings.setdefault(cols[0], GoldMapping(cols[0]))
        (mapping.targets if cols[1] == "T" else mapping.sources).add(cols[2])
    return list(mappings.values())


def eval_gold(gold: list[GoldMapping], store: Store,
              table: Optional[dict[str, set[str]]] = None,
              tm: Optional[TopicMatrix] = None, *,
              threshold: float, top_sources: int, top_patterns: int,
              warn=None) -> GoldReport:
    """Check each gold mapping for a generated (target, source) pair."""
    results = []
    memo = {}
    for mapping in gold:
        expanded_t = expand_domain(mapping.targets, table, store, top_patterns, memo)
        expanded_s = expand_domain(mapping.sources, table, store, top_patterns, memo)
        if not expanded_t or not expanded_s:
            if warn is not None:
                warn(f"{mapping.name}: empty expansion, skipped")
            results.append(MappingResult(mapping.name, False, skipped=True))
            continue
        pairs = []
        for target in sorted(expanded_t):
            for src in rank_sources(target, store, tm, threshold, top_sources):
                if src.lexeme in expanded_s:
                    pairs.append(GoldPair(target, src.lexeme, src.weight))
        results.append(MappingResult(mapping.name, bool(pairs), pairs))

    weights = [p.weight for r in results for p in r.pairs]
    if weights:
        lo, hi = min(weights), max(weights)
        for r in results:
            for p in r.pairs:
                p.scaled = (p.weight - lo) / (hi - lo) if hi > lo else 1.0
    return GoldReport(results)
