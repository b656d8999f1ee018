"""Weighted proposition tuples and the frequency store over them.

A proposition is a pattern-labeled tuple of lemmas; a pattern key is a
proposition with exactly one slot blanked. Both are plain typed tuples, so
hashing, equality and ordering run at C speed. A store counts identical
tuples, checking each against its label's slot count, then freezes into
its int columns (`StoreIndex`) and nothing else. A store loaded from a
path writes its columns to `<path>.idx` when its first query builds them,
and a later load reads that cache instead of parsing the store while its
header holds the sha256 of the bytes a parse read and of its payload.
"""

from array import array
from bisect import bisect_left
from collections import Counter
from functools import cached_property
from itertools import accumulate, repeat
from operator import mul
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

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
    def text(self) -> str:
        rendered = tuple(BLANK_TEXT if s is None else s for s in self.slots)
        return " ".join((self.label,) + rendered)


class Occurrence(NamedTuple):
    """One extracted proposition instance with provenance."""
    prop: Proposition
    sentence_id: str
    token_indices: tuple[int, ...]


# each column's name and array typecode, the four row columns first: 32-bit
# ids and offsets, 64-bit frequencies, and the slot positions in bytes
_NAMES = ("row_label row_freq row_start slots slot_pattern pattern_start "
          "pattern_rows pattern_total lexeme_start lexeme_rows lexeme_pos").split()
_TYPECODES, _ROW_COLUMNS = "iqiiiiiqiib", 4
# the largest frequency and slot count those columns hold
_MAX_FREQ, _MAX_SLOTS = 2**63 - 1, 128
# magic and format version of the index file, a `textio` cache file
_MAGIC = b"mf-idx\x00\x01"


class StoreIndex:
    """A frozen store as int columns: `array`s in an index just built, and
    read-only `memoryview`s over the bytes of an index file.

    Labels and lexemes are numbered in sorted order, so ids compare as their
    strings do, and rows are the store's tuples in sorted order. Row r has
    label `labels[row_label[r]]`, frequency `row_freq[r]` and the lexeme ids
    `slots[row_start[r]:row_start[r + 1]]`. `group` builds the groups over
    these row columns: flat slot j lies in the pattern `slot_pattern[j]`
    that blanks it, numbered in the order of their first slot. Pattern p's
    rows, ascending, are `pattern_rows[pattern_start[p]:pattern_start[p + 1]]`,
    with summed frequency `pattern_total[p]`. Lexeme x fills slot
    `lexeme_pos[n]` of row `lexeme_rows[n]` for n from `lexeme_start[x]` to
    `lexeme_start[x + 1]`, in (row, position) order.
    """

    def __init__(self, labels: list[str], lexemes: list[str], columns):
        self.labels, self.lexemes = labels, lexemes
        self.__dict__.update(zip(_NAMES, columns))

    @classmethod
    def build(cls, rows: Iterable[tuple[Proposition, int]]) -> Optional["StoreIndex"]:
        """The row columns of (tuple, frequency) rows in ascending order; None
        at the first row that is not above the row before it."""
        label_ids: dict[str, int] = {}  # rows come in label order
        row_label, row_freq, row_start, words = array("i"), array("q"), array("i", [0]), []
        last = ()
        for prop, freq in rows:
            if prop <= last:
                return None
            last = prop
            row_label.append(label_ids.setdefault(prop.label, len(label_ids)))
            row_freq.append(freq)
            words += prop.slots
            row_start.append(len(words))
        lexemes = sorted(set(words))
        slots = array("i", map(dict(zip(lexemes, range(len(lexemes)))).__getitem__, words))
        return cls(list(label_ids), lexemes, (row_label, row_freq, row_start, slots))

    def group(self) -> None:
        """Build the groups over the row columns. A pattern's int key is its
        label id plus the label count times the number whose base-(B + 1)
        digits are its lexeme ids, B = len(lexemes), with B at the blank; a
        label fixes the slot count, so no two patterns share a key."""
        blank, places = len(self.lexemes), {}  # slot count -> each place value
        ids, totals = {}, {}  # pattern key -> id, and id -> summed frequency
        slot_pattern, slot_row, slot_pos = array("i"), array("i"), array("b")
        start, slots = self.row_start, self.slots
        for r, (label, freq) in enumerate(zip(self.row_label, self.row_freq)):
            words = slots[start[r]:start[r + 1]]
            n = len(words)
            place = places.get(n) or places.setdefault(n, [
                len(self.labels) * (blank + 1) ** (n - 1 - i) for i in range(n)])
            key = label + sum(map(mul, words, place))
            for x, value in zip(words, place):
                p = ids.setdefault(key + (blank - x) * value, len(ids))
                if (total := totals.get(p, 0) + freq) > _MAX_FREQ:
                    text = self.pattern_key(r, len(slot_pattern) - start[r]).text
                    raise FormatError(f"the frequencies of pattern {text} sum past "
                                      f"{_MAX_FREQ}")
                totals[p] = total
                slot_pattern.append(p)
            slot_row.extend(repeat(r, n))
            slot_pos.extend(range(n))
        pattern_start, by_pattern = _group(slot_pattern, len(ids))
        lexeme_start, by_lexeme = _group(slots, blank)
        self.__dict__.update(zip(_NAMES[_ROW_COLUMNS:], (
            slot_pattern, pattern_start, array("i", map(slot_row.__getitem__, by_pattern)),
            array("q", totals.values()), lexeme_start,
            array("i", map(slot_row.__getitem__, by_lexeme)),
            array("b", map(slot_pos.__getitem__, by_lexeme)))))

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
        """The id of every pattern key, made at the pattern's first row."""
        start, rows = self.row_start, map(self.pattern_rows.__getitem__,
                                          self.pattern_start[:-1])
        return {self.pattern_key(r, self.slot_pattern[start[r]:start[r + 1]].tolist()
                                 .index(p)): p for p, r in enumerate(rows)}

    def _words(self, row: int) -> list[str]:
        return list(map(self.lexemes.__getitem__,
                        self.slots[self.row_start[row]:self.row_start[row + 1]]))

    def proposition(self, row: int) -> Proposition:
        return tuple.__new__(Proposition, (self.labels[self.row_label[row]],
                                           tuple(self._words(row))))

    def pattern_key(self, row: int, position: int) -> PatternKey:
        words: list = self._words(row)
        words[position] = None
        return tuple.__new__(PatternKey, (self.labels[self.row_label[row]], tuple(words)))

    def save(self, path: Path, store_digest: bytes) -> None:
        """Write the index atomically, for the store file of sha256 `store_digest`."""
        textio.write_cache(path, _MAGIC, store_digest, (self.labels, self.lexemes),
                           [getattr(self, name) for name in _NAMES])

    @classmethod
    def read(cls, path: Path, store: Path) -> Optional["StoreIndex"]:
        """The index in the file; None if `read_cache` refuses it for `store`."""
        cached = textio.read_cache(path, _MAGIC, store, 2, _TYPECODES)
        return None if cached is None else cls(*cached[0], cached[1])


def _group(keys: Sequence[int], n_keys: int) -> tuple[array, array]:
    """Group the positions of `keys` by key with a counting sort: (start, order),
    where `order` lists key k's positions ascending from start[k] to start[k + 1]."""
    counts = Counter(keys)
    start = array("i", accumulate(map(counts.__getitem__, range(n_keys)), initial=0))
    order, free = array("i", bytes(4 * len(keys))), start[:-1]  # key -> next place
    for j, k in enumerate(keys):
        order[free[k]] = j
        free[k] += 1
    return start, order


def _counted(prop: Proposition, frequency: int, count: int = 0) -> int:
    """`count` plus `frequency`; FormatError if the tuple's label takes another
    slot count, if the frequency is below 1, or if the slots or sum do not fit."""
    if frequency < 1:
        raise FormatError(f"frequency must be >= 1, got {frequency}")
    if len(prop.slots) != label_arity(prop.label):
        raise FormatError(f"label {prop.label} takes {label_arity(prop.label)} slots, "
                          f"got {len(prop.slots)}")
    if len(prop.slots) > _MAX_SLOTS:
        raise FormatError(f"{len(prop.slots)} slots, more than the {_MAX_SLOTS} "
                          f"the store index holds")
    count += frequency
    if count > _MAX_FREQ:
        raise FormatError(f"frequency {count} of {prop.text} is over {_MAX_FREQ}")
    return count


def _parse(source: TextSource, count: Callable) -> Iterator[tuple[Proposition, int]]:
    """The (tuple, frequency) rows of a store TSV, each passed to `count`
    first; a FormatError, from the row or from `count`, names the row."""
    for rowno, cols in textio.rows(source):
        if len(cols) < 3:
            raise FormatError("expected label, slots..., frequency", rowno)
        label, *words, freq = cols
        if not textio.is_digits(freq):
            raise FormatError(f"non-integer frequency {freq!r}", rowno)
        prop, freq = tuple.__new__(Proposition, (label, tuple(words))), int(freq)
        try:
            count(prop, freq)
        except FormatError as exc:
            raise FormatError(str(exc), rowno) from None
        yield prop, freq


class Store:
    """Build-then-freeze collection of propositions with frequencies.

    A store counts its tuples in a dict until freeze() turns the dict into
    the row columns of its `StoreIndex`: add and update work only before,
    and lexeme and pattern queries only after. Queries return tuples in
    identity order, so float sums over them are the same on every run."""

    def __init__(self):
        self._counts: Optional[dict[Proposition, int]] = {}  # None once frozen
        self._columns: Optional[StoreIndex] = None
        self._index_file: Optional[tuple[Path, bytes]] = None  # (.idx, store sha256)

    def _require_mutable(self):
        if self._counts is None:
            raise StoreStateError("cannot mutate a frozen store")

    def add(self, prop: Proposition, frequency: int = 1) -> "Store":
        """Count a tuple; FormatError as `_counted` raises it."""
        self._require_mutable()
        self._counts[prop] = _counted(prop, frequency, self._counts.get(prop, 0))
        return self

    def update(self, occurrences: Iterable[Occurrence]) -> "Store":
        for occ in occurrences:
            self.add(occ.prop)
        return self

    def freeze(self, min_freq: int = 1) -> "Store":
        """Drop tuples below min_freq and turn the counts into the columns."""
        self._require_mutable()
        if min_freq < 1:
            raise ValueError(f"min_freq must be >= 1, got {min_freq}")
        if self._columns is None:  # `load` may have parsed them already
            # sorting the tuples alone compares each pair once, not twice
            kept = sorted(prop for prop, freq in self._counts.items() if freq >= min_freq)
            self._columns = StoreIndex.build(zip(kept, map(self._counts.__getitem__, kept)))
        self._counts = None
        return self

    @property
    def index(self) -> StoreIndex:
        """The columns every query reads. The first query builds their groups,
        and writes them beside the file of a store loaded from a path."""
        if self._counts is not None:
            raise StoreStateError("store must be frozen before queries")
        if not hasattr(self._columns, "lexeme_pos"):
            self._columns.group()
            if self._index_file is not None:
                self._columns.save(*self._index_file)
                self._index_file = None
        return self._columns

    def freq(self, prop: Proposition) -> int:
        if self._counts is not None:  # one lookup, not a column build per call
            return self._counts.get(prop, 0)
        rows = self._columns
        r = bisect_left(range(len(rows)), prop, key=rows.proposition)
        return rows.row_freq[r] if r < len(rows) and rows.proposition(r) == prop else 0

    def total(self) -> int:
        return sum(self._columns.row_freq if self._counts is None else self._counts.values())

    def __len__(self) -> int:
        return len(self._columns if self._counts is None else self._counts)

    def _row_texts(self) -> tuple[Iterator[str], Iterator[list[str]], Sequence[int]]:
        """Each row's label, slots and frequency, in row order; an unfrozen
        store reads the rows of a frozen copy."""
        rows = (self if self._counts is None else merge_stores([self]).freeze())._columns
        words, start = list(map(rows.lexemes.__getitem__, rows.slots)), rows.row_start
        return (map(rows.labels.__getitem__, rows.row_label),
                map(words.__getitem__, map(slice, start, start[1:])), rows.row_freq)

    def __iter__(self) -> Iterator[tuple[Proposition, int]]:
        labels, slots, freqs = self._row_texts()
        return zip(map(tuple.__new__, repeat(Proposition), zip(labels, map(tuple, slots))), freqs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Store) and list(self) == list(other)

    def tuples_containing(self, lexeme: str) -> tuple[tuple[Proposition, int], ...]:
        """Every (tuple, position) whose slot is the lexeme, by tuple, then position."""
        index = self.index
        return tuple((index.proposition(r), i) for r, i, _ in index.entries(lexeme))

    def tuples_matching(self, key: PatternKey) -> tuple[Proposition, ...]:
        """All tuples that equal the key but at its blank, in tuple order."""
        index = self.index
        p = index.pattern_ids.get(key)
        return () if p is None else tuple(map(index.proposition, index.rows_of(p)))

    def pattern_keys(self) -> Iterator[PatternKey]:
        """Every pattern key, in the order of its first (tuple, position)."""
        return iter(self.index.pattern_ids)

    def save(self, target: TextTarget) -> None:
        """Write TSV rows (label, slots..., frequency), sorted by identity,
        to a path, replaced atomically; a path ending in .gz is gzipped."""
        with textio.writer(target) as fh:
            for label, slots, freq in zip(*self._row_texts()):
                fh.write("\t".join([label, *slots, str(freq)]) + "\n")

    @classmethod
    def load(cls, source: TextSource) -> "Store":
        """Read a store TSV (gzip detected by magic bytes) and freeze it;
        FormatError names a bad row. A path's matching index file is read
        instead; a file in row order, as `save` writes it, is parsed straight
        into the row columns, and lines or a file out of order are counted first."""
        path = textio.as_path(source)
        store, digest = cls(), None
        if path is not None:
            index_file = path.with_name(path.name + ".idx")
            store._columns = StoreIndex.read(index_file, path)
            if store._columns is None:
                digest = textio.sha256()
                store._columns = StoreIndex.build(_parse(textio.lines(path, digest), _counted))
        if store._columns is None:  # lines, or a file out of order: counted
            if digest is not None:  # the first read stopped early: hash the second
                digest = textio.sha256()
            for _ in _parse(textio.lines(source, digest), store.add):
                pass
        if digest is not None:
            store._index_file = (index_file, digest.digest())
        return store.freeze()


def merge_stores(stores: Iterable[Store]) -> Store:
    """Count shard stores' tuples into one fresh unfrozen store, through `add`."""
    merged = Store()
    for shard in stores:
        for prop, freq in shard if shard._counts is None else shard._counts.items():
            merged.add(prop, freq)
    return merged
