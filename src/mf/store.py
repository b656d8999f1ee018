"""Weighted proposition tuples and the frequency store over them.

A proposition is a pattern-labeled tuple of lemmas; a pattern key is a
proposition with exactly one slot blanked. Both are plain typed tuples, so
hashing, equality and ordering run at C speed. The slot-count rule (a label
takes exactly `label_arity` slots) is checked where a tuple enters a store,
in `Store.add`. The store counts identical tuples, then freezes into a
read-only store; the first lexeme or pattern query builds its index.
"""

from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional

from . import textio
from .errors import FormatError, StoreStateError
from .labels import label_arity
from .textio import TextSource, TextTarget

BLANK_TEXT = "_"


class Proposition(NamedTuple):
    label: str
    slots: tuple[str, ...]

    def pattern(self, position: int) -> "PatternKey":
        """Blank out the slot at `position`."""
        if not 0 <= position < len(self.slots):
            raise IndexError(f"no slot {position} in {self.text}")
        return _pattern_key(self.label, self.slots, position)

    @property
    def text(self) -> str:
        return " ".join((self.label,) + self.slots)


class PatternKey(NamedTuple):
    label: str
    slots: tuple[Optional[str], ...]

    @property
    def blank_position(self) -> int:
        return self.slots.index(None)

    @property
    def text(self) -> str:
        rendered = tuple(BLANK_TEXT if s is None else s for s in self.slots)
        return " ".join((self.label,) + rendered)


def _pattern_key(label: str, slots: tuple[str, ...], position: int) -> PatternKey:
    # tuple.__new__ skips the NamedTuple constructor's Python-level call,
    # which the index build would otherwise pay once per slot of every tuple
    return tuple.__new__(PatternKey, (label, slots[:position] + (None,)
                                      + slots[position + 1:]))


class Occurrence(NamedTuple):
    """One extracted proposition instance with provenance."""
    prop: Proposition
    sentence_id: str
    token_indices: tuple[int, ...]


class _Index(NamedTuple):
    by_lexeme: dict[str, tuple[tuple[Proposition, int], ...]]
    by_pattern: dict[PatternKey, tuple[Proposition, ...]]
    totals: dict[PatternKey, int]


class Store:
    """Build-then-freeze collection of propositions with frequencies.

    Mutation (add, update) is only allowed before freeze(); lexeme and
    pattern queries only after. The first query builds the index; queries
    return tuples in identity order, so float sums over them are the same
    on every run. A frozen store is immutable and safe to share across
    readers.
    """

    def __init__(self):
        self._counts: dict[Proposition, int] = {}
        self._frozen = False

    # -- lifecycle -----------------------------------------------------

    def _require_mutable(self):
        if self._frozen:
            raise StoreStateError("cannot mutate a frozen store")

    def add(self, prop: Proposition, frequency: int = 1) -> "Store":
        """Count a tuple; FormatError if its label takes another slot count."""
        self._require_mutable()
        if frequency < 1:
            raise ValueError(f"frequency must be >= 1, got {frequency}")
        if len(prop.slots) != label_arity(prop.label):
            raise FormatError(
                f"label {prop.label} takes {label_arity(prop.label)} slots, "
                f"got {len(prop.slots)}")
        self._counts[prop] = self._counts.get(prop, 0) + frequency
        return self

    def update(self, occurrences: Iterable[Occurrence]) -> "Store":
        for occ in occurrences:
            self.add(occ.prop)
        return self

    def freeze(self, min_freq: int = 1) -> "Store":
        """Drop tuples below min_freq and seal the store."""
        self._require_mutable()
        if min_freq < 1:
            raise ValueError(f"min_freq must be >= 1, got {min_freq}")
        if min_freq > 1:
            self._counts = {p: f for p, f in self._counts.items() if f >= min_freq}
        self._frozen = True
        return self

    @cached_property
    def _index(self) -> _Index:
        if not self._frozen:
            raise StoreStateError("store must be frozen before queries")
        by_lexeme: dict[str, list] = {}
        by_pattern: dict[PatternKey, list] = {}  # key -> [total, tuples...]
        for prop, freq in self:
            label, slots = prop
            for i, lexeme in enumerate(slots):
                by_lexeme.setdefault(lexeme, []).append((prop, i))
                matching = by_pattern.setdefault(_pattern_key(label, slots, i), [0])
                matching[0] += freq
                matching.append(prop)
        return _Index({l: tuple(v) for l, v in by_lexeme.items()},
                      {k: tuple(v[1:]) for k, v in by_pattern.items()},
                      {k: v[0] for k, v in by_pattern.items()})

    # -- plain views (allowed in either state) ---------------------------

    def freq(self, prop: Proposition) -> int:
        return self._counts.get(prop, 0)

    def total(self) -> int:
        return sum(self._counts.values())

    def __len__(self) -> int:
        return len(self._counts)

    def __iter__(self) -> Iterator[tuple[Proposition, int]]:
        return iter(sorted(self._counts.items()))

    def __eq__(self, other) -> bool:
        return isinstance(other, Store) and self._counts == other._counts

    def lexemes(self) -> set[str]:
        return {l for prop in self._counts for l in prop.slots}

    # -- queries (frozen only) -------------------------------------------

    def tuples_containing(self, lexeme: str) -> tuple[tuple[Proposition, int], ...]:
        """All (tuple, position) pairs whose slot at position equals lexeme,
        in (tuple, position) order."""
        return self._index.by_lexeme.get(lexeme, ())

    def tuples_matching(self, key: PatternKey) -> tuple[Proposition, ...]:
        """All tuples whose blanking at the key's blank position yields it,
        in tuple order."""
        return self._index.by_pattern.get(key, ())

    def pattern_total(self, key: PatternKey) -> int:
        """Summed frequency of all tuples matching the key."""
        return self._index.totals.get(key, 0)

    def pattern_keys(self) -> Iterator[PatternKey]:
        return iter(self._index.totals)

    # -- persistence -------------------------------------------------------

    def save(self, target: TextTarget) -> None:
        """Write TSV rows (label, slots..., frequency), sorted by identity,
        to a path; the file is replaced atomically, and a path ending in
        .gz is written gzip-compressed.
        """
        with textio.writer(target) as fh:
            for prop, freq in self:
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
                store.add(Proposition(label, slots), freq)
            except FormatError as exc:
                raise FormatError(str(exc), rowno) from None
        return store.freeze()


def merge_stores(stores: Iterable[Store]) -> Store:
    """Combine shard stores into one fresh unfrozen store."""
    merged = Store()
    counts = merged._counts
    for shard in stores:
        for prop, freq in shard._counts.items():
            counts[prop] = counts.get(prop, 0) + freq
    return merged
