"""Per-word topic probability vectors and dot-product relatedness.

File format: a header line "T=<topic count>", then one row per word,
"lexeme <TAB> p1 <TAB> ... <TAB> pT", each probability finite and
non-negative, and no word in two rows. The numbers are ASCII, as
`textio.is_digits` and `textio.numbers` read them. Words missing from the
matrix are out of vocabulary; their relatedness to anything is 0 and
downstream filtering must keep them.

A matrix loaded from a path can be cached in a `textio` cache file: the
topic count, the words and their vectors, written only once every row has
passed its checks, and read in place of parsing the file while the sha256
of the file's bytes still matches.
"""

import math
import operator
from array import array
from pathlib import Path
from typing import Iterable, Mapping, Optional

from . import textio
from .errors import FormatError
from .textio import TextSource


class TopicMatrix:
    """The words' vectors lie one after another in one buffer of doubles,
    `_vectors`, where the vector of word w starts at `_start[w]`."""

    def __init__(self, topics: int, phi: Mapping[str, Iterable[float]]):
        if topics < 1:
            raise FormatError(f"topic count must be >= 1, got {topics}")
        self.topics = topics
        self._start: dict[str, int] = {}
        vectors = array("d")
        for word, values in phi.items():
            try:
                self._add(vectors, word, values)
            except FormatError as exc:
                raise FormatError(f"{word!r}: {exc}") from None
        self._vectors = memoryview(vectors)

    def _add(self, vectors: array, word: str, values: Iterable[float]) -> None:
        """Append `values` to `vectors` as the word's vector; FormatError
        unless they are `topics` finite, non-negative probabilities."""
        vec = array("d", values)
        if len(vec) != self.topics:
            raise FormatError(f"expected {self.topics} probabilities, got {len(vec)}")
        if not all(map(math.isfinite, vec)) or min(vec, default=0.0) < 0.0:
            raise FormatError("probabilities must be finite and non-negative")
        self._start[word] = len(vectors)
        vectors += vec

    def vocabulary(self) -> set[str]:
        return set(self._start)

    def vector(self, word: str) -> memoryview:
        start = self._start[word]
        return self._vectors[start:start + self.topics]

    def is_oov(self, word: str) -> bool:
        return word not in self._start

    def relatedness(self, w1: str, w2: str) -> float:
        """Sum over topics of phi(w1) * phi(w2), as the built-in `sum` adds
        the products in topic order; 0.0 when either word is OOV."""
        s1, s2 = self._start.get(w1), self._start.get(w2)
        if s1 is None or s2 is None:
            return 0.0
        v, t = self._vectors, self.topics
        return sum(map(operator.mul, v[s1:s1 + t], v[s2:s2 + t]))


# magic and format version of the cache file
_CACHE_MAGIC = b"mf-vec\x00\x02"


def load_topic_matrix(source: TextSource, cache: Optional[Path] = None) -> TopicMatrix:
    """Read and check a topic matrix; FormatError names the row at fault.

    When `source` is a path and `cache` is given, the matrix is read from
    the cache file if it was written for the bytes of this file. Otherwise
    the file is parsed, and the cache file written; a cache file that
    cannot be written is skipped.
    """
    path = textio.as_path(source)
    if path is None or cache is None:
        return _parse(source)
    cached = textio.read_cache(cache, _CACHE_MAGIC, path, 1, "qd")
    if cached is not None:
        (words,), (count, vectors) = cached
        if len(count) == 1 and count[0] >= 1 and len(vectors) == len(words) * count[0]:
            tm = TopicMatrix(count[0], {})
            tm._start = dict(zip(words, range(0, len(vectors), tm.topics)))
            tm._vectors = vectors
            return tm
    digest = textio.sha256()
    tm = _parse(textio.lines(path, digest))
    textio.write_cache(cache, _CACHE_MAGIC, digest.digest(), [tm._start],
                       [array("q", [tm.topics]), tm._vectors])
    return tm


def _parse(source: TextSource) -> TopicMatrix:
    tm = None
    vectors = array("d")
    for rowno, cols in textio.rows(source):
        if tm is None:
            header = "\t".join(cols)
            if not header.startswith("T="):
                raise FormatError("first row must be the header T=<count>", rowno)
            count = header[2:]
            if not (textio.is_digits(count) and int(count) >= 1):
                raise FormatError("topic count must be >= 1 in ASCII digits, "
                                  f"got {count!r}", rowno)
            tm = TopicMatrix(int(count), {})
            continue
        if cols[0] in tm._start:
            raise FormatError(f"word {cols[0]!r} listed again", rowno)
        try:
            tm._add(vectors, cols[0], textio.numbers(cols[1:]))
        except FormatError as exc:
            raise FormatError(str(exc), rowno) from None
        except ValueError:
            raise FormatError("non-numeric probability", rowno) from None
    if tm is None:
        raise FormatError("missing T=<count> header")
    tm._vectors = memoryview(vectors)
    return tm

