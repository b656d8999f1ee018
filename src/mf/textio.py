"""How mf reads and writes its text files.

Every reader takes a path, as a str or a Path (gzip is detected by its
magic bytes), or lines: an open text file or any iterable of lines. A str
is always a path, which `lines`, the one opener, streams from disk. A
path that is not UTF-8, or a gzip file that is truncated or corrupt, is a
FormatError naming the path and the line.

Tabular files are read as rows of tab-separated columns. Blank lines are
skipped, and a line starting with '#' is a comment only if it comes before
the first data row and holds no tab, so lexemes such as '#metoo' survive a
write and a read in any row. JSON files are read whole, and malformed JSON
is a FormatError naming the file.

Every writer takes a path, picks gzip from a .gz suffix and writes to a
temporary file beside the target that replaces it only once the write has
succeeded, so a failed stage never leaves a half-written artifact behind;
`atomic` does the same for binary files.

A cache file holds a payload derived from a source file, for a later read
in place of parsing that file again. Its header holds a magic string with
the format version, this machine's byte order, the sha256 of the bytes a
parse of the source read, which `lines` hashes as they stream, so no
reader holds a copy of the file, and the sha256 of the payload. The
payload holds the int64 byte size of each string table and the length of
each typed column, then the tables, one string per line, then the columns
in this machine's byte order. A read decodes the tables and returns each
column as a view over its own bytes, so the tables' bytes are not kept. A
cache file is read only when the header matches and the sizes fit the
tables and columns the reader expects, and it is always safe to delete.
"""

import gzip
import io
import json
import os
import re
import struct
import sys
import zlib
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Optional, Sequence, Union

from .errors import FormatError

TextSource = Union[str, Path, IO[str], Iterable[str]]
TextTarget = Union[str, Path]

_GZIP_MAGIC = b"\x1f\x8b"
_UNREADABLE = (UnicodeDecodeError, EOFError, gzip.BadGzipFile, zlib.error)
# magic and format version, byte order of the payload, sha256 of the source
# file, sha256 of the payload that follows
_CACHE_HEADER = struct.Struct("8s1s32s32s")
_BYTE_ORDER = sys.byteorder[0].encode()
# the characters of numbers joined by commas, which float() never reads:
# float() also reads "1_0", " 4", "inf", "nan" and other scripts' digits
_NUMBERS = re.compile(r"[-+.0-9eE,]*")


def as_path(source: TextSource) -> Optional[Path]:
    """The file a source names, or None for open files and lines."""
    return Path(source) if isinstance(source, (str, Path)) else None


def lines(source: TextSource, digest=None) -> Iterator[str]:
    """Stream the lines of a source, line endings kept. `digest`, a sha256
    object, if given, is updated with every byte read from the path, so
    once the last line is read it is the digest of the file's bytes."""
    path = as_path(source)
    if path is None:
        yield from source
        return
    try:
        with open(path, "rb") if digest is None else io.BufferedReader(
                _Digesting(path, digest), 1 << 16) as fh:
            gz = fh.peek(2)[:2] == _GZIP_MAGIC
            with io.TextIOWrapper(gzip.GzipFile(fileobj=fh) if gz else fh,
                                  encoding="utf-8") as text:
                yield from text
    except _UNREADABLE as exc:
        what = ("not UTF-8" if isinstance(exc, UnicodeDecodeError)
                else f"truncated or corrupt gzip ({exc})")
        raise FormatError(f"{path}: {what} at line "
                          f"{_first_unreadable_line(path, gz)}") from None


class _Digesting(io.FileIO):
    """A file that adds to `digest` each byte that any read call reads."""
    read, readall = io.RawIOBase.read, io.RawIOBase.readall  # through readinto

    def __init__(self, path: Path, digest):
        super().__init__(path)
        self.digest = digest

    def readinto(self, buffer) -> int:
        n = super().readinto(buffer)
        self.digest.update(memoryview(buffer)[:n])
        return n


def _first_unreadable_line(path: Path, gz: bool) -> int:
    # the text reader decodes a buffer ahead, so it fails before it reaches
    # the line at fault; reading line by line finds that line
    read = 0
    try:
        with open(path, "rb") as fh, (gzip.GzipFile(fileobj=fh) if gz else fh) as binary:
            for line in binary:
                line.decode("utf-8")
                read += 1
    except _UNREADABLE:
        pass
    return read + 1


def rows(source: TextSource) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, tab-separated columns) for every data row.

    Line numbers count every line from 1, so errors can name the row.
    """
    in_data = False
    for rowno, line in enumerate(lines(source), start=1):
        line = line.rstrip("\n")
        if not line.strip() or (not in_data and line.startswith("#")
                                and "\t" not in line):
            continue
        in_data = True
        yield rowno, line.split("\t")


def is_digits(text: str) -> bool:
    """Whether `text` is ASCII digits: int() also reads "1_0", "+3", " 4"
    and other scripts' digits, such as the fullwidth "３"."""
    return text.isascii() and text.isdigit()


def numbers(texts: Sequence[str]) -> list[float]:
    """The floats `texts` spell, each in ASCII digits, ".", "e", "E", "+"
    and "-" as float() reads them; ValueError for any other text."""
    # one match over the joined texts: a match per text takes longer than
    # the float() calls
    if _NUMBERS.fullmatch(",".join(texts)) is None:
        raise ValueError(f"not ASCII numbers: {texts!r}")
    return list(map(float, texts))


def load_json(source: TextSource) -> Any:
    """Parse a JSON document; malformed JSON raises FormatError naming the
    file and the line the decoder stopped at."""
    try:
        return json.loads("".join(lines(source)))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{as_path(source) or 'JSON input'}: invalid JSON "
                          f"at line {exc.lineno}: {exc.msg}") from None


@contextmanager
def atomic(target: TextTarget) -> Iterator[IO[bytes]]:
    """Open a path for binary writing. The path is replaced atomically when
    the block exits without an exception; otherwise the temporary file is
    removed and the earlier file is left as it was.
    """
    path = Path(target)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as raw:
            yield raw
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def writer(target: TextTarget) -> Iterator[IO[str]]:
    """Open a path for UTF-8 text writing, gzip-compressed when it ends in
    .gz, replaced atomically as `atomic` does.
    """
    path = Path(target)
    with atomic(path) as raw:
        # no timestamp: the same text gives the same bytes, and .idx digest
        binary = (gzip.GzipFile(path, "wb", fileobj=raw, mtime=0)
                  if path.suffix == ".gz" else raw)
        with io.TextIOWrapper(binary, encoding="utf-8") as fh:
            yield fh


def write_cache(target: TextTarget, magic: bytes, source_digest: bytes,
                tables: Sequence[Iterable[str]], columns: Sequence) -> None:
    """Write a cache file atomically: the header for `magic` and the source
    file whose bytes have the sha256 `source_digest`, then the payload of
    string tables and columns (arrays or memoryviews), the columns written
    as they lie in memory. A cache file that cannot be written is skipped:
    the next read parses the source again."""
    texts = ["".join(s + "\n" for s in table).encode("utf-8") for table in tables]
    payload = [array("q", [len(t) for t in texts] + [len(c) for c in columns]),
               *texts, *columns]
    digest = sha256()
    for piece in payload:
        digest.update(piece)
    try:
        with atomic(target) as fh:
            fh.write(_CACHE_HEADER.pack(magic, _BYTE_ORDER, source_digest, digest.digest()))
            fh.writelines(payload)
    except OSError:
        pass


def read_cache(cache: TextTarget, magic: bytes, source: TextTarget, tables: int,
               typecodes: str) -> Optional[tuple[list[list[str]], list[memoryview]]]:
    """The `tables` string tables and the columns of the array typecodes
    `typecodes` that `write_cache` wrote to the cache file `cache` for the
    file `source`, each column a view over its own bytes, so the tables'
    bytes are freed once decoded. None when there is no cache file, when its
    header does not hold `magic`, this machine's byte order, the sha256 of
    the source file's bytes and the sha256 of the payload, or when the
    payload's sizes do not fit these tables and columns. The source file is
    hashed a chunk at a time, so its bytes are never held whole beside the
    cache's."""
    widths = [1] * tables + [array(t).itemsize for t in typecodes]
    sizes = array("q")
    try:
        with open(cache, "rb") as fh:
            header = fh.read(_CACHE_HEADER.size)
            sizes.fromfile(fh, len(widths))
            spans = [size * width for size, width in zip(sizes, widths)]
            # sizes that do not fit the file are refused before any is read
            if min(spans) < 0 or sum(spans) != os.fstat(fh.fileno()).st_size - fh.tell():
                return None
            pieces = [fh.read(span) for span in spans]
    except (OSError, EOFError, ValueError):  # no cache file, or one cut short
        return None
    digest, source_digest = sha256(sizes), sha256()
    for piece in pieces:
        digest.update(piece)
    with open(source, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            source_digest.update(chunk)
    if _CACHE_HEADER.unpack(header) != (magic, _BYTE_ORDER, source_digest.digest(),
                                        digest.digest()):
        return None
    try:
        strings = [str(piece, "utf-8").split("\n")[:-1] for piece in pieces[:tables]]
    except ValueError:  # a table that is not UTF-8
        return None
    return strings, [memoryview(piece).cast(t)
                     for piece, t in zip(pieces[tables:], typecodes)]


def sha256(data=b""):
    """A sha256 object, updated with `data`. hashlib is imported here: it loads
    OpenSSL, about 3 MiB, which stages that use no cache file do without."""
    import hashlib
    return hashlib.sha256(data)
