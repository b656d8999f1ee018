"""Per-word topic probability vectors and dot-product relatedness.

File format: a header line "T=<topic count>", then one row per word,
"lexeme <TAB> p1 <TAB> ... <TAB> pT". Words missing from the matrix are
out of vocabulary; their relatedness to anything is 0 and downstream
filtering must keep them.
"""

import numpy as np

from . import textio
from .errors import FormatError
from .textio import TextSource, TextTarget


class TopicMatrix:
    def __init__(self, topics: int, phi: dict[str, np.ndarray]):
        if topics < 1:
            raise FormatError(f"topic count must be >= 1, got {topics}")
        for word, vec in phi.items():
            if vec.shape != (topics,):
                raise FormatError(f"{word!r}: expected {topics} probabilities")
            if np.any(vec < 0):
                raise FormatError(f"{word!r}: negative probability")
        self.topics = topics
        self._phi = {w: np.asarray(v, dtype=float) for w, v in phi.items()}

    def __contains__(self, word: str) -> bool:
        return word in self._phi

    def __len__(self) -> int:
        return len(self._phi)

    def vocabulary(self) -> set[str]:
        return set(self._phi)

    def vector(self, word: str) -> np.ndarray:
        return self._phi[word]

    def is_oov(self, word: str) -> bool:
        return word not in self._phi

    def relatedness(self, w1: str, w2: str) -> float:
        """Sum over topics of phi(w1) * phi(w2); 0.0 when either word is OOV."""
        if w1 not in self._phi or w2 not in self._phi:
            return 0.0
        return float(np.dot(self._phi[w1], self._phi[w2]))


def load_topic_matrix(source: TextSource) -> TopicMatrix:
    topics = None
    phi: dict[str, np.ndarray] = {}
    for rowno, cols in textio.rows(source):
        if topics is None:
            header = "\t".join(cols)
            if not header.startswith("T="):
                raise FormatError("first row must be the header T=<count>", rowno)
            try:
                topics = int(header[2:])
            except ValueError:
                raise FormatError(f"bad topic count {header[2:]!r}", rowno) from None
            continue
        if len(cols) != topics + 1:
            raise FormatError(
                f"expected lexeme plus {topics} probabilities, got {len(cols) - 1}",
                rowno)
        try:
            vec = np.array([float(x) for x in cols[1:]], dtype=float)
        except ValueError:
            raise FormatError("non-numeric probability", rowno) from None
        if np.any(vec < 0):
            raise FormatError("negative probability", rowno)
        phi[cols[0]] = vec
    if topics is None:
        raise FormatError("missing T=<count> header")
    return TopicMatrix(topics, phi)


def save_topic_matrix(tm: TopicMatrix, target: TextTarget) -> None:
    with textio.writer(target) as fh:
        fh.write(f"T={tm.topics}\n")
        for word in sorted(tm.vocabulary()):
            probs = "\t".join(repr(float(x)) for x in tm.vector(word))
            fh.write(f"{word}\t{probs}\n")
