"""Weighted proposition tuples and the frequency store over them.

A proposition is a pattern-labeled tuple of lemmas; a pattern key is a
proposition with exactly one slot blanked. The store counts identical
tuples, then freezes into an indexed read-only structure for lexeme and
pattern queries.
"""

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from . import textio
from .errors import FormatError, StoreStateError
from .labels import label_arity
from .textio import TextSource, TextTarget

BLANK_TEXT = "_"


@dataclass(frozen=True, order=True)
class Proposition:
    label: str
    slots: tuple[str, ...]

    def __post_init__(self):
        if len(self.slots) != label_arity(self.label):
            raise FormatError(
                f"label {self.label} takes {label_arity(self.label)} slots, "
                f"got {len(self.slots)}")

    def pattern(self, position: int) -> "PatternKey":
        """Blank out the slot at `position`."""
        slots = tuple(None if i == position else s
                      for i, s in enumerate(self.slots))
        return PatternKey(self.label, slots)

    @property
    def text(self) -> str:
        return " ".join((self.label,) + self.slots)


@dataclass(frozen=True)
class PatternKey:
    label: str
    slots: tuple[Optional[str], ...]

    def __post_init__(self):
        if sum(1 for s in self.slots if s is None) != 1:
            raise FormatError(
                f"pattern key must have exactly one blank slot: {self.slots}")
        if len(self.slots) != label_arity(self.label):
            raise FormatError(
                f"label {self.label} takes {label_arity(self.label)} slots, "
                f"got {len(self.slots)}")

    @property
    def blank_position(self) -> int:
        return self.slots.index(None)

    def fill(self, lexeme: str) -> Proposition:
        slots = tuple(lexeme if s is None else s for s in self.slots)
        return Proposition(self.label, slots)

    def matches(self, prop: Proposition) -> bool:
        return prop.pattern(self.blank_position) == self

    @property
    def text(self) -> str:
        rendered = tuple(BLANK_TEXT if s is None else s for s in self.slots)
        return " ".join((self.label,) + rendered)


@dataclass(frozen=True)
class Occurrence:
    """One extracted proposition instance with provenance."""
    prop: Proposition
    sentence_id: str
    token_indices: tuple[int, ...]


class Store:
    """Build-then-freeze collection of propositions with frequencies.

    Mutation (add/merge) is only allowed before freeze(); lexeme and
    pattern queries only after. A frozen store is immutable and safe to
    share across readers.
    """

    def __init__(self):
        self._counts: dict[Proposition, int] = {}
        self._frozen = False
        self._by_lexeme: dict[str, frozenset] = {}
        self._by_pattern: dict[PatternKey, frozenset] = {}
        self._pattern_totals: dict[PatternKey, int] = {}

    # -- lifecycle -----------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    def _require_frozen(self):
        if not self._frozen:
            raise StoreStateError("store must be frozen before queries")

    def _require_mutable(self):
        if self._frozen:
            raise StoreStateError("cannot mutate a frozen store")

    def add(self, prop: Proposition, frequency: int = 1) -> "Store":
        self._require_mutable()
        if frequency < 1:
            raise ValueError(f"frequency must be >= 1, got {frequency}")
        self._counts[prop] = self._counts.get(prop, 0) + frequency
        return self

    def update(self, occurrences: Iterable[Occurrence]) -> "Store":
        for occ in occurrences:
            self.add(occ.prop)
        return self

    def merge(self, other: "Store") -> "Store":
        """Additive merge of another store (shard) into this one."""
        self._require_mutable()
        for prop, freq in other._counts.items():
            self._counts[prop] = self._counts.get(prop, 0) + freq
        return self

    def freeze(self, min_freq: int = 1) -> "Store":
        """Drop tuples below min_freq, build indexes, and seal the store."""
        self._require_mutable()
        if min_freq < 1:
            raise ValueError(f"min_freq must be >= 1, got {min_freq}")
        if min_freq > 1:
            self._counts = {p: f for p, f in self._counts.items() if f >= min_freq}
        by_lexeme: dict[str, set] = {}
        by_pattern: dict[PatternKey, set] = {}
        totals: dict[PatternKey, int] = {}
        for prop, freq in self._counts.items():
            for i, lexeme in enumerate(prop.slots):
                by_lexeme.setdefault(lexeme, set()).add((prop, i))
                key = prop.pattern(i)
                by_pattern.setdefault(key, set()).add(prop)
                totals[key] = totals.get(key, 0) + freq
        self._by_lexeme = {l: frozenset(s) for l, s in by_lexeme.items()}
        self._by_pattern = {k: frozenset(s) for k, s in by_pattern.items()}
        self._pattern_totals = totals
        self._frozen = True
        return self

    # -- plain views (allowed in either state) ---------------------------

    def freq(self, prop: Proposition) -> int:
        return self._counts.get(prop, 0)

    def total(self) -> int:
        return sum(self._counts.values())

    def __len__(self) -> int:
        return len(self._counts)

    def __iter__(self) -> Iterator[tuple[Proposition, int]]:
        return iter(sorted(self._counts.items()))

    def __contains__(self, prop: Proposition) -> bool:
        return prop in self._counts

    def __eq__(self, other) -> bool:
        return isinstance(other, Store) and self._counts == other._counts

    def lexemes(self) -> set[str]:
        return {l for prop in self._counts for l in prop.slots}

    # -- queries (frozen only) -------------------------------------------

    def tuples_containing(self, lexeme: str) -> set[tuple[Proposition, int]]:
        """All (tuple, position) pairs whose slot at position equals lexeme."""
        self._require_frozen()
        return set(self._by_lexeme.get(lexeme, frozenset()))

    def tuples_matching(self, key: PatternKey) -> set[Proposition]:
        """All tuples whose blanking at the key's blank position yields it."""
        self._require_frozen()
        return set(self._by_pattern.get(key, frozenset()))

    def pattern_total(self, key: PatternKey) -> int:
        """Summed frequency of all tuples matching the key."""
        self._require_frozen()
        return self._pattern_totals.get(key, 0)

    def pattern_keys(self) -> Iterator[PatternKey]:
        self._require_frozen()
        return iter(self._pattern_totals)

    # -- persistence -------------------------------------------------------

    def save(self, target: TextTarget) -> None:
        """Write TSV rows (label, slots..., frequency) sorted by identity.

        Paths ending in .gz are written gzip-compressed.
        """
        with textio.writer(target) as fh:
            for prop, freq in sorted(self._counts.items()):
                fh.write("\t".join((prop.label,) + prop.slots + (str(freq),)) + "\n")

    @classmethod
    def load(cls, source: TextSource) -> "Store":
        """Read a store TSV (gzip detected by magic bytes) and freeze it.

        Raises FormatError with the row number for bad arity or frequency.
        """
        store = cls()
        for rowno, cols in textio.rows(source):
            if len(cols) < 3:
                raise FormatError("expected label, slots..., frequency", rowno)
            label, slots, freq_text = cols[0], tuple(cols[1:-1]), cols[-1]
            try:
                freq = int(freq_text)
            except ValueError:
                raise FormatError(
                    f"non-integer frequency {freq_text!r}", rowno) from None
            if freq < 1:
                raise FormatError(f"frequency must be >= 1, got {freq}", rowno)
            try:
                prop = Proposition(label, slots)
            except FormatError as exc:
                raise FormatError(str(exc), rowno) from None
            store.add(prop, freq)
        return store.freeze()


def merge_stores(stores: Iterable[Store]) -> Store:
    """Combine shard stores into one fresh unfrozen store."""
    merged = Store()
    for shard in stores:
        merged.merge(shard)
    return merged
