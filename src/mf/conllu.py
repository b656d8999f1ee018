"""CoNLL-U reading: 10-column, tab-separated, UTF-8.

Only the ID, FORM, LEMMA, UPOS, HEAD and DEPREL columns are used.
Multiword-token ranges (ID "1-2") and empty nodes (ID "1.1") are skipped;
any other ID, and any HEAD, that is not a string of ASCII digits is a
ConlluParseError.
Lemmas are lower-cased on load; a "_" lemma falls back to the form.
A "# sent_id = <id>" comment names the sentence below it; the key must be
exactly "sent_id", so "# sent_id_orig = 7" is an ordinary comment. A
sentence without one is named "s<n>" after its position, prefixed with
the file name ("a.conllu:s3") when read from a path, so sentences from
different shards keep distinct ids.

The sentences of a path can be cached in a `textio` cache file: the file
name, the sentence ids and the interned words as tables, and as columns
each sentence's first token and each token's form, lemma, UPOS and deprel
ids and head. It is written only once every sentence has passed its
checks, and read in place of parsing the file while the sha256 of the
file's bytes still matches and it names the file.
"""

import re
from array import array
from itertools import chain, islice, repeat
from operator import lt, sub
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional

from . import textio
from .errors import ConlluParseError, SentenceStructureError
from .textio import TextSource

# a multiword-token range or an empty node
_SKIPPED_ID = re.compile(r"[0-9]+[-.][0-9]+")


class Token(NamedTuple):
    index: int
    surface: str
    lemma: str
    upos: str
    head: int
    deprel: str


class Sentence(NamedTuple):
    id: str
    tokens: tuple[Token, ...] = ()

    def token_at(self, index: int) -> Token:
        """Tokens are 1-based and contiguous, so position maps directly."""
        return self.tokens[index - 1]

    @property
    def text(self) -> str:
        return " ".join(t.surface for t in self.tokens)

    def validate(self) -> "Sentence":
        indices = [t.index for t in self.tokens]
        if indices != list(range(1, len(self.tokens) + 1)):
            raise SentenceStructureError(
                "token indices are not 1-based and contiguous", self.id)
        n = len(self.tokens)
        heads = [0]
        for t in self.tokens:
            if t.head == t.index:
                raise SentenceStructureError(
                    f"token {t.index} is its own head", self.id)
            if not 0 <= t.head <= n:
                raise SentenceStructureError(
                    f"token {t.index} has dangling head {t.head}", self.id)
            heads.append(t.head)
        roots = heads.count(0) - 1
        if roots != 1:
            raise SentenceStructureError(
                f"{roots} tokens have head 0, expected exactly one", self.id)
        # Follow heads from each token until a token already walked, so each
        # token is walked once. One marked by an earlier walk reaches the
        # root; one marked by this walk closes a cycle.
        walked_from = [-1] + [0] * n
        for start in range(1, n + 1):
            i = start
            while not walked_from[i]:
                walked_from[i] = start
                i = heads[i]
            if walked_from[i] == start:
                raise SentenceStructureError(
                    f"token {i} is on a head cycle", self.id)
        return self


# magic and format version of the cache file
_CACHE_MAGIC = b"mf-snt\x00\x01"
# each sentence's first token, then each token's form, lemma, UPOS and
# deprel ids (unsigned, so an id is never read from the end of the table)
# and head
_TYPECODES = "qIIIIi"
# the token fields the parser hands a cache write at a time: five a token
_CHUNK = 1 << 11


def iter_sentences(source: TextSource, cache: Optional[Path] = None) -> Iterator[Sentence]:
    """Stream sentences from a CoNLL-U path, an open file or its lines.

    Raises ConlluParseError for malformed lines (with line number) and
    SentenceStructureError for dangling heads, a root count other than
    one, or a head cycle (with sentence id).

    When `source` is a path and `cache` is given, the sentences are read
    from the cache file if it was written for the bytes and the name of
    this file.
    Otherwise the file is parsed, and the cache file written once the last
    sentence has been read; a cache file that cannot be written is skipped.
    """
    path = textio.as_path(source)
    if path is None or cache is None:
        yield from _parse(textio.lines(source), f"{path.name}:" if path else "")
        return
    cached = textio.read_cache(cache, _CACHE_MAGIC, path, 3, _TYPECODES)
    replay = None if cached is None else _replay(path.name, *cached)
    if replay is not None:
        yield from replay
        return
    data = path.read_bytes()
    columns = _Columns()
    for sentence in _parse(textio.lines(path, data), f"{path.name}:", columns.fields):
        columns.add(sentence)
        yield sentence
    columns.save(cache, data, path.name)


def _parse(lines: Iterable[str], prefix: str,
           fields: Optional[list] = None) -> Iterator[Sentence]:
    """The sentences of CoNLL-U lines; `fields`, if given, gets each token's
    form, lemma, UPOS, deprel and head in turn."""
    rows: list[Token] = []
    sent_id = None
    count = 0
    # the blank line chained after the input closes the last sentence
    for lineno, line in enumerate(chain(lines, ("",)), start=1):
        # a token line goes straight to its Token: the line ending, if any,
        # stays in the unused last column
        cols = line.split("\t")
        if len(cols) == 10:
            tok_id, form, lemma, upos, _, _, head, deprel, _, _ = cols
            if (tok_id.isdigit() and head.isdigit()
                    and tok_id.isascii() and head.isascii()):
                lemma = (lemma if lemma and lemma != "_" else form).lower()
                head = int(head)
                rows.append(tuple.__new__(Token, (int(tok_id), form, lemma, upos,
                                                  head, deprel)))
                if fields is not None:
                    fields += form, lemma, upos, deprel, head
                continue
        line = line.rstrip("\n").rstrip("\r")
        if not line.strip():
            if rows:
                count += 1
                yield Sentence(sent_id or f"{prefix}s{count}", tuple(rows)).validate()
                rows = []
            sent_id = None
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            if key.strip() == "sent_id" and value.strip():
                sent_id = value.strip()
            continue
        # stripping the line ending removes no tab, so the columns are as split
        if len(cols) != 10:
            raise ConlluParseError(
                f"expected 10 tab-separated columns, got {len(cols)}", lineno)
        # a token line with an ID and a HEAD of ASCII digits took the fast path
        tok_id, head = cols[0], cols[6]
        if not textio.is_digits(tok_id):
            if _SKIPPED_ID.fullmatch(tok_id):
                continue
            raise ConlluParseError(f"non-numeric ID {tok_id!r}", lineno)
        if not textio.is_digits(head):
            raise ConlluParseError(f"non-numeric HEAD {head!r}", lineno)


class _WordIds(dict):
    """Each word's id, given in the order the words are first looked up."""

    def __missing__(self, word: str) -> int:
        self[word] = n = len(self)
        return n


class _Columns:
    """A shard's sentences as the tables and columns of its cache file. The
    parser puts each token's fields in `fields`; a few hundred tokens at a
    time, while their words are likely still in the processor's caches, the
    heads go to their column and the words are numbered by one map, so only
    a new word costs a Python call."""

    def __init__(self):
        self.ids: list[str] = []
        self.word_ids = _WordIds()
        self.fields: list = []  # not yet in the columns
        self.starts = array("q", [0])
        self.token_words = array("I")  # each token's four word ids in turn
        self.heads = array("i")

    def add(self, sentence: Sentence) -> None:
        self.ids.append(sentence.id)
        self.starts.append(self.starts[-1] + len(sentence.tokens))
        if len(self.fields) >= _CHUNK:
            self._fill()

    def _fill(self) -> None:
        fields = self.fields
        self.heads.fromlist(fields[4::5])
        del fields[4::5]
        self.token_words.fromlist(list(map(self.word_ids.__getitem__, fields)))
        fields.clear()

    def save(self, cache: Path, data: bytes, name: str) -> None:
        """Write the cache file for the source file of bytes `data`."""
        self._fill()
        word_columns = [self.token_words[k::4] for k in range(4)]
        textio.write_cache(cache, _CACHE_MAGIC, data, ([name], self.ids, self.word_ids),
                           [self.starts, *word_columns, self.heads])


def _replay(name: str, tables: list[list[str]],
            columns: list[memoryview]) -> Optional[Iterator[Sentence]]:
    """The sentences of a cache file's tables and columns; None unless the
    file name is `name` and the columns fit together."""
    (names, ids, words), (starts, *word_columns, heads) = tables, columns
    n = len(heads)
    if (names != [name] or len(starts) != len(ids) + 1 or starts[0] != 0
            or starts[-1] != n or not all(map(lt, starts[:-1], starts[1:]))
            or any(len(c) != n or n and max(c) >= len(words) for c in word_columns)):
        return None
    lengths = list(map(sub, starts[1:], starts[:-1]))
    forms, lemmas, upos, deprels = (map(words.__getitem__, c) for c in word_columns)
    # every token in order, numbered from 1 within its sentence
    tokens = map(tuple.__new__, repeat(Token), zip(
        chain.from_iterable(map(range, repeat(1), [k + 1 for k in lengths])),
        forms, lemmas, upos, heads, deprels))
    return (tuple.__new__(Sentence, (sid, tuple(islice(tokens, k))))
            for sid, k in zip(ids, lengths))
