"""How mf reads and writes its text files.

Every reader takes a path, as a str or a Path (gzip is detected by its
magic bytes), or lines: an open text file or any iterable of lines. A str
is always a path. A path that is not UTF-8, or a gzip file that is
truncated or corrupt, is a FormatError naming the path and the line.

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
the format version, this machine's byte order, the sha256 of the source
file's bytes and the sha256 of the payload. The payload holds the int64
byte size of each string table and the length of each typed column, then
the tables, one string per line, then the columns in this machine's byte
order, which a read returns as views over the file's bytes. A cache file is
read only when the header matches and the sizes fit the tables and columns
the reader expects, and it is always safe to delete.
"""

import gzip
import io
import json
import os
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


def as_path(source: TextSource) -> Optional[Path]:
    """The file a source names, or None for open files and lines."""
    return Path(source) if isinstance(source, (str, Path)) else None


def lines(source: TextSource, data: Optional[bytes] = None) -> Iterator[str]:
    """Stream the lines of a source, line endings kept. `data`, if given,
    holds the bytes already read from the path, which are decoded instead
    of reading the file again."""
    path = as_path(source)
    if path is None:
        yield from source
        return

    def raw() -> IO[bytes]:
        return open(path, "rb") if data is None else io.BytesIO(data)
    with raw() as fh:
        gz = fh.read(2) == _GZIP_MAGIC
    try:
        with raw() as fh, io.TextIOWrapper(gzip.GzipFile(fileobj=fh) if gz else fh,
                                           encoding="utf-8") as text:
            yield from text
    except _UNREADABLE as exc:
        what = ("not UTF-8" if isinstance(exc, UnicodeDecodeError)
                else f"truncated or corrupt gzip ({exc})")
        raise FormatError(f"{path}: {what} at line "
                          f"{_first_unreadable_line(raw, gz)}") from None


def _first_unreadable_line(raw, gz: bool) -> int:
    # the text reader decodes a buffer ahead, so it fails before it reaches
    # the line at fault; reading line by line finds that line
    read = 0
    try:
        with raw() as fh, (gzip.GzipFile(fileobj=fh) if gz else fh) as binary:
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


def write_cache(target: TextTarget, magic: bytes, source: bytes,
                tables: Sequence[Iterable[str]], columns: Sequence) -> None:
    """Write a cache file atomically: the header for `magic` and the source
    file of bytes `source`, then the payload of string tables and columns
    (arrays or memoryviews), the columns written as they lie in memory. A
    cache file that cannot be written is skipped: the next read parses the
    source again."""
    texts = ["".join(s + "\n" for s in table).encode("utf-8") for table in tables]
    payload = [array("q", [len(t) for t in texts] + [len(c) for c in columns]),
               *texts, *columns]
    digest = _sha256()
    for piece in payload:
        digest.update(piece)
    try:
        with atomic(target) as fh:
            fh.write(_CACHE_HEADER.pack(magic, _BYTE_ORDER, _sha256(source).digest(),
                                        digest.digest()))
            fh.writelines(payload)
    except OSError:
        pass


def read_cache(cache: TextTarget, magic: bytes, source: TextTarget, tables: int,
               typecodes: str) -> Optional[tuple[list[list[str]], list[memoryview]]]:
    """The `tables` string tables and the columns of the array typecodes
    `typecodes` that `write_cache` wrote to the cache file `cache` for the
    file `source`, each column a view over the cache file's bytes. None when
    there is no cache file, when its header does not hold `magic`, this
    machine's byte order, the sha256 of the source file's bytes and the
    sha256 of the payload, or when the payload's sizes do not fit these
    tables and columns. The source file is hashed a chunk at a time, so its
    bytes are never held whole beside the cache's."""
    try:
        blob = Path(cache).read_bytes()
    except OSError:
        return None
    if len(blob) < _CACHE_HEADER.size:
        return None
    payload = memoryview(blob)[_CACHE_HEADER.size:]
    source_digest = _sha256()
    with open(source, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            source_digest.update(chunk)
    if _CACHE_HEADER.unpack_from(blob) != (magic, _BYTE_ORDER, source_digest.digest(),
                                           _sha256(payload).digest()):
        return None
    widths = [1] * tables + [array(t).itemsize for t in typecodes]
    at, pieces = 8 * len(widths), []
    try:
        for size, width in zip(payload[:at].cast("q"), widths):
            pieces.append(payload[at:at + size * width])
            at += size * width
        strings = [str(piece, "utf-8").split("\n")[:-1] for piece in pieces[:tables]]
        columns = [piece.cast(t) for piece, t in zip(pieces[tables:], typecodes)]
    except (TypeError, ValueError):  # sizes that do not fit the payload
        return None
    return (strings, columns) if at == len(payload) else None


def _sha256(data=b""):
    # imported here: hashlib loads OpenSSL, about 3 MiB of memory, which
    # stages that neither read nor write a cache file do without
    import hashlib
    return hashlib.sha256(data)
