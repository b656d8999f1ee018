"""CoNLL-U reading: 10-column, tab-separated, UTF-8.

Only the ID, FORM, LEMMA, UPOS, HEAD and DEPREL columns are used.
Multiword-token ranges (ID "1-2") and empty nodes (ID "1.1") are skipped;
any other ID, and any HEAD, that is not a string of digits is a
ConlluParseError.
Lemmas are lower-cased on load; a "_" lemma falls back to the form.
A "# sent_id = <id>" comment names the sentence below it; the key must be
exactly "sent_id", so "# sent_id_orig = 7" is an ordinary comment. A
sentence without one is named "s<n>" after its position, prefixed with
the file name ("a.conllu:s3") when read from a path, so sentences from
different shards keep distinct ids.
"""

import re
from itertools import chain
from typing import Iterator, NamedTuple

from . import textio
from .errors import ConlluParseError, SentenceStructureError
from .textio import TextSource

_SKIPPED_ID = re.compile(r"\d+[-.]\d+")  # a multiword-token range or an empty node


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


def iter_sentences(source: TextSource) -> Iterator[Sentence]:
    """Stream sentences from a CoNLL-U path, an open file or its lines.

    Raises ConlluParseError for malformed lines (with line number) and
    SentenceStructureError for dangling heads, a root count other than
    one, or a head cycle (with sentence id).
    """
    path = textio.as_path(source)
    prefix = f"{path.name}:" if path is not None else ""
    rows: list[Token] = []
    sent_id = None
    count = 0
    # the blank line chained after the input closes the last sentence
    for lineno, line in enumerate(chain(textio.lines(source), ("",)), start=1):
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
        cols = line.split("\t")
        if len(cols) != 10:
            raise ConlluParseError(
                f"expected 10 tab-separated columns, got {len(cols)}", lineno)
        tok_id, form, lemma, upos, _, _, head, deprel = cols[:8]
        if not tok_id.isdecimal():
            if _SKIPPED_ID.fullmatch(tok_id):
                continue
            raise ConlluParseError(f"non-numeric ID {tok_id!r}", lineno)
        if not head.isdecimal():
            raise ConlluParseError(f"non-numeric HEAD {head!r}", lineno)
        lemma = lemma if lemma and lemma != "_" else form
        rows.append(Token(int(tok_id), form, lemma.lower(), upos, int(head), deprel))
