"""Per-word topic probability vectors and dot-product relatedness.

File format: a header line "T=<topic count>", then one row per word,
"lexeme <TAB> p1 <TAB> ... <TAB> pT", each probability finite and
non-negative. Words missing from the matrix are out of vocabulary; their
relatedness to anything is 0 and downstream filtering must keep them.
"""

import math
import operator
from array import array
from typing import Iterable, Mapping

from . import textio
from .errors import FormatError
from .textio import TextSource, TextTarget


class TopicMatrix:
    def __init__(self, topics: int, phi: Mapping[str, Iterable[float]]):
        if topics < 1:
            raise FormatError(f"topic count must be >= 1, got {topics}")
        self.topics = topics
        self._phi: dict[str, array] = {}
        for word, values in phi.items():
            try:
                self._add(word, values)
            except FormatError as exc:
                raise FormatError(f"{word!r}: {exc}") from None

    def _add(self, word: str, values: Iterable[float]) -> None:
        """Keep `values` as the word's vector; FormatError unless they are
        `topics` finite, non-negative probabilities."""
        vec = array("d", values)
        if len(vec) != self.topics:
            raise FormatError(f"expected {self.topics} probabilities, got {len(vec)}")
        if not all(map(math.isfinite, vec)) or min(vec, default=0.0) < 0.0:
            raise FormatError("probabilities must be finite and non-negative")
        self._phi[word] = vec

    def vocabulary(self) -> set[str]:
        return set(self._phi)

    def vector(self, word: str) -> array:
        return self._phi[word]

    def is_oov(self, word: str) -> bool:
        return word not in self._phi

    def relatedness(self, w1: str, w2: str) -> float:
        """Sum over topics of phi(w1) * phi(w2), as the built-in `sum` adds
        the products in topic order; 0.0 when either word is OOV."""
        v1, v2 = self._phi.get(w1), self._phi.get(w2)
        if v1 is None or v2 is None:
            return 0.0
        return sum(map(operator.mul, v1, v2))


def load_topic_matrix(source: TextSource) -> TopicMatrix:
    tm = None
    for rowno, cols in textio.rows(source):
        if tm is None:
            header = "\t".join(cols)
            if not header.startswith("T="):
                raise FormatError("first row must be the header T=<count>", rowno)
            try:
                topics = int(header[2:])
            except ValueError:
                raise FormatError(f"bad topic count {header[2:]!r}", rowno) from None
            if topics < 1:
                raise FormatError(f"topic count must be >= 1, got {topics}", rowno)
            tm = TopicMatrix(topics, {})
            continue
        try:
            tm._add(cols[0], map(float, cols[1:]))
        except FormatError as exc:
            raise FormatError(str(exc), rowno) from None
        except ValueError:
            raise FormatError("non-numeric probability", rowno) from None
    if tm is None:
        raise FormatError("missing T=<count> header")
    return tm


def save_topic_matrix(tm: TopicMatrix, target: TextTarget) -> None:
    with textio.writer(target) as fh:
        fh.write(f"T={tm.topics}\n")
        for word in sorted(tm.vocabulary()):
            probs = "\t".join(map(repr, tm.vector(word)))
            fh.write(f"{word}\t{probs}\n")
