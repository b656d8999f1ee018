"""Weighted proposition tuples and the frequency store over them.

A proposition is a pattern-labeled tuple of lemmas; a pattern key is a
proposition with exactly one slot blanked. Both are plain typed tuples, so
hashing, equality and ordering run at C speed. The slot-count rule (a label
takes exactly `label_arity` slots) is checked where a tuple enters a store,
in `Store.add`. The store counts identical tuples, then freezes into a
read-only store; the first lexeme or pattern query builds its index, one
set of int columns (`StoreIndex`).

A store loaded from a path caches that index beside the file, in
`<path>.idx`, when its first query builds it. A later load reads the
index instead of parsing the file, but only when the sha256 of the file's
bytes and of the index's payload both match the index's header; otherwise
it parses the file and builds the index again. The file stays the
canonical artifact: the index is a cache, safe to delete.
"""

from array import array
from bisect import bisect_left
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

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
        return PatternKey(self.label,
                          self.slots[:position] + (None,) + self.slots[position + 1:])

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


class Occurrence(NamedTuple):
    """One extracted proposition instance with provenance."""
    prop: Proposition
    sentence_id: str
    token_indices: tuple[int, ...]


# (name, array typecode) of each column: 32-bit ids and offsets, 64-bit
# frequencies, and the slot positions in bytes
_COLUMNS = (("row_label", "i"), ("row_freq", "q"), ("row_start", "i"),
            ("slots", "i"), ("slot_pattern", "i"),
            ("pattern_start", "i"), ("pattern_rows", "i"), ("pattern_total", "q"),
            ("lexeme_start", "i"), ("lexeme_rows", "i"), ("lexeme_pos", "b"))
_TYPECODES = "".join(typecode for _, typecode in _COLUMNS)
# the largest frequency and slot count those columns hold
_MAX_FREQ, _MAX_SLOTS = 2**63 - 1, 128
# magic and format version of the index file, a `textio` cache file
_MAGIC = b"mf-idx\x00\x01"


class StoreIndex:
    """A frozen store as int columns of `array`s, which hold no Python
    object per entry.

    Labels and lexemes are numbered in sorted order, so ids compare as their
    strings do, and rows are the store's tuples in sorted order. Row r has
    label `labels[row_label[r]]`, frequency `row_freq[r]` and the lexeme
    ids `slots[row_start[r]:row_start[r + 1]]`. Flat slot j lies in the
    pattern `slot_pattern[j]` that blanks it; patterns are numbered in the
    order of their first slot. Pattern p's rows, ascending, are
    `pattern_rows[pattern_start[p]:pattern_start[p + 1]]`, with summed
    frequency `pattern_total[p]`. Lexeme x fills slot `lexeme_pos[n]` of
    row `lexeme_rows[n]` for n from `lexeme_start[x]` to
    `lexeme_start[x + 1]`, in (row, position) order.

    The columns are `array`s in an index just built, and read-only
    `memoryview`s over the index file's bytes in an index read from its
    file.
    """

    def __init__(self, labels: list[str], lexemes: list[str], columns):
        self.labels = labels
        self.lexemes = lexemes
        for (name, _), column in zip(_COLUMNS, columns):
            setattr(self, name, column)

    @classmethod
    def build(cls, counts: dict[Proposition, int]) -> "StoreIndex":
        rows = sorted(counts.items())
        labels = sorted({prop.label for prop in counts})
        lexemes = sorted({lexeme for prop in counts for lexeme in prop.slots})
        label_id = dict(zip(labels, range(len(labels))))
        lexeme_id = dict(zip(lexemes, range(len(lexemes))))
        row_label, row_freq, row_start = array("i"), array("q"), array("i", [0])
        slots, slot_pattern, slot_row, slot_pos = (array("i") for _ in range(4))
        pattern_id: dict[tuple, int] = {}
        for r, ((label, words), freq) in enumerate(rows):
            row_label.append(label_id[label])
            row_freq.append(freq)
            slots.extend(map(lexeme_id.__getitem__, words))
            row_start.append(len(slots))
            for i in range(len(words)):
                key = (label, i) + words[:i] + words[i + 1:]
                slot_pattern.append(pattern_id.setdefault(key, len(pattern_id)))
                slot_row.append(r)
                slot_pos.append(i)
        pattern_start, by_pattern = _group(slot_pattern, len(pattern_id))
        pattern_rows = array("i", map(slot_row.__getitem__, by_pattern))
        pattern_total = array("q", bytes(8 * len(pattern_id)))
        try:
            for p, r in zip(slot_pattern, slot_row):
                pattern_total[p] += row_freq[r]
        except OverflowError:
            i = slot_pattern[row_start[r]:row_start[r + 1]].index(p)
            raise FormatError(f"the frequencies of pattern {rows[r][0].pattern(i).text} "
                              f"sum past {_MAX_FREQ}") from None
        lexeme_start, by_lexeme = _group(slots, len(lexemes))
        return cls(labels, lexemes, (
            row_label, row_freq, row_start, slots, slot_pattern,
            pattern_start, pattern_rows, pattern_total, lexeme_start,
            array("i", map(slot_row.__getitem__, by_lexeme)),
            array("b", map(slot_pos.__getitem__, by_lexeme))))

    # -- lookups -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.row_freq)

    def lexeme_id(self, lexeme: str) -> Optional[int]:
        x = bisect_left(self.lexemes, lexeme)
        return x if x < len(self.lexemes) and self.lexemes[x] == lexeme else None

    def entries(self, lexeme: str) -> list[tuple[int, int, int]]:
        """(row, position, pattern) of every slot the lexeme fills, in
        (row, position) order."""
        x = self.lexeme_id(lexeme)
        if x is None:
            return []
        lo, hi = self.lexeme_start[x], self.lexeme_start[x + 1]
        start, pattern = self.row_start, self.slot_pattern
        return [(r, i, pattern[start[r] + i])
                for r, i in zip(self.lexeme_rows[lo:hi], self.lexeme_pos[lo:hi])]

    def rows_of(self, pattern: int) -> Sequence[int]:
        return self.pattern_rows[self.pattern_start[pattern]:
                                 self.pattern_start[pattern + 1]]

    @cached_property
    def pattern_ids(self) -> dict[PatternKey, int]:
        """The id of every pattern key, inserted in id order."""
        ids: dict[PatternKey, int] = {}
        start, pattern = self.row_start, self.slot_pattern
        for r in range(len(self)):
            for j in range(start[r], start[r + 1]):
                if pattern[j] == len(ids):
                    ids[self.pattern_key(r, j - start[r])] = pattern[j]
        return ids

    # -- strings, made only for what a query returns ----------------------

    def _words(self, row: int) -> list[str]:
        lexemes = self.lexemes
        return [lexemes[x] for x in self.slots[self.row_start[row]:
                                               self.row_start[row + 1]]]

    def proposition(self, row: int) -> Proposition:
        return tuple.__new__(Proposition, (self.labels[self.row_label[row]],
                                           tuple(self._words(row))))

    def pattern_key(self, row: int, position: int) -> PatternKey:
        words: list = self._words(row)
        words[position] = None
        return tuple.__new__(PatternKey, (self.labels[self.row_label[row]],
                                          tuple(words)))

    # -- the index file ----------------------------------------------------

    def save(self, path: Path, store_bytes: bytes) -> None:
        """Write the index atomically, for the store file of these bytes."""
        textio.write_cache(path, _MAGIC, store_bytes, (self.labels, self.lexemes),
                           [getattr(self, name) for name, _ in _COLUMNS])

    @classmethod
    def read(cls, path: Path, store: Path) -> Optional["StoreIndex"]:
        """The index in the file, or None when there is none, or when
        `textio.read_cache` refuses it for the store file `store`."""
        cached = textio.read_cache(path, _MAGIC, store, 2, _TYPECODES)
        return None if cached is None else cls(*cached[0], cached[1])


def _group(keys: array, n_keys: int) -> tuple[array, array]:
    """Group the positions of `keys` by key: (start, order), where `order`
    lists key k's positions ascending from `start[k]` to `start[k + 1]`."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ordered = [keys[j] for j in order]
    start = array("i", (bisect_left(ordered, k) for k in range(n_keys + 1)))
    return start, array("i", order)


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
        # (index file, store file bytes) of a store loaded from a path
        self._index_file: Optional[tuple[Path, bytes]] = None

    # -- lifecycle -----------------------------------------------------

    def _require_mutable(self):
        if self._frozen:
            raise StoreStateError("cannot mutate a frozen store")

    def add(self, prop: Proposition, frequency: int = 1) -> "Store":
        """Count a tuple; FormatError if its label takes another slot count,
        if the frequency is below 1, or if its slot count or summed
        frequency does not fit the index."""
        self._require_mutable()
        if frequency < 1:
            raise FormatError(f"frequency must be >= 1, got {frequency}")
        if len(prop.slots) != label_arity(prop.label):
            raise FormatError(
                f"label {prop.label} takes {label_arity(prop.label)} slots, "
                f"got {len(prop.slots)}")
        if len(prop.slots) > _MAX_SLOTS:
            raise FormatError(f"{len(prop.slots)} slots, more than the {_MAX_SLOTS} "
                              f"the store index holds")
        count = self._counts.get(prop, 0) + frequency
        if count > _MAX_FREQ:
            raise FormatError(f"frequency {count} of {prop.text} is over {_MAX_FREQ}")
        self._counts[prop] = count
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
    def index(self) -> StoreIndex:
        """The int columns every query reads. The first query builds them,
        and writes them beside the file of a store loaded from a path."""
        if not self._frozen:
            raise StoreStateError("store must be frozen before queries")
        index = StoreIndex.build(self._counts)
        if self._index_file is not None:
            index.save(*self._index_file)
            self._index_file = None
        return index

    @cached_property
    def _counts(self) -> dict[Proposition, int]:
        # only a store read from its index file lacks the dict; it is made
        # from the columns the first time a view needs it
        index = self.index
        return {index.proposition(r): f for r, f in enumerate(index.row_freq)}

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
        index = self.index
        return tuple((index.proposition(r), i) for r, i, _ in index.entries(lexeme))

    def tuples_matching(self, key: PatternKey) -> tuple[Proposition, ...]:
        """All tuples whose blanking at the key's blank position yields it,
        in tuple order."""
        index = self.index
        p = index.pattern_ids.get(key)
        return () if p is None else tuple(map(index.proposition, index.rows_of(p)))

    def pattern_total(self, key: PatternKey) -> int:
        """Summed frequency of all tuples matching the key."""
        p = self.index.pattern_ids.get(key)
        return 0 if p is None else self.index.pattern_total[p]

    def pattern_keys(self) -> Iterator[PatternKey]:
        """Every pattern key, in the order of its first (tuple, position)."""
        return iter(self.index.pattern_ids)

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
        A path's index file is read instead when it matches the file.

        Raises FormatError with the row number for bad arity or frequency.
        """
        path = textio.as_path(source)
        data = None
        store = cls()
        if path is not None:
            index_file = path.with_name(path.name + ".idx")
            index = StoreIndex.read(index_file, path)
            if index is not None:
                del store._counts  # made from the columns only if a view asks
                store.index = index
                return store.freeze()
            data = path.read_bytes()
        for rowno, cols in textio.rows(textio.lines(source, data)):
            if len(cols) < 3:
                raise FormatError("expected label, slots..., frequency", rowno)
            label, slots, freq_text = cols[0], tuple(cols[1:-1]), cols[-1]
            try:
                freq = int(freq_text)
            except ValueError:
                raise FormatError(
                    f"non-integer frequency {freq_text!r}", rowno) from None
            try:
                store.add(Proposition(label, slots), freq)
            except FormatError as exc:
                raise FormatError(str(exc), rowno) from None
        if path is not None:
            store._index_file = (index_file, data)
        return store.freeze()


def merge_stores(stores: Iterable[Store]) -> Store:
    """Count shard stores' tuples into one fresh unfrozen store, through `add`."""
    merged = Store()
    for shard in stores:
        for prop, freq in shard._counts.items():
            merged.add(prop, freq)
    return merged
