"""Pipeline configuration: flat key=value files with CLI-flag overrides."""

from typing import NamedTuple, Optional

from . import textio
from .errors import ConfigError
from .textio import TextSource


class PipelineConfig(NamedTuple):
    corpus: tuple[str, ...] = ()
    rules: Optional[str] = None
    taxonomy: Optional[str] = None
    topic_matrix: Optional[str] = None
    expansion_table: Optional[str] = None
    gold: Optional[str] = None
    sidecar: Optional[str] = None
    workdir: str = "out"
    targets: tuple[str, ...] = ()
    min_freq: int = 1
    threshold: float = 0.04
    k: int = 5
    top_sources: int = 100
    top_cms: int = 10
    per_pair: int = 10
    top_patterns: int = 10
    topics: Optional[int] = None  # when set, checked against the topic matrix
    seed: int = 1
    generalize: bool = True


def _count(text: str, key: str) -> int:
    if not (textio.is_digits(text) and int(text) >= 1):
        raise ConfigError(f"expected an integer >= 1, got {text!r}", key)
    return int(text)


def _threshold(text: str, key: str) -> float:
    try:
        (value,) = textio.numbers([text])
        if 0 <= value < float("inf"):
            return value
    except ValueError:
        pass
    raise ConfigError(f"expected a finite number >= 0, got {text!r}", key)


def _parse_bool(value: str, key: str) -> bool:
    if value.lower() not in ("true", "yes", "on", "1", "false", "no", "off", "0"):
        raise ConfigError(f"expected a boolean, got {value!r}", key)
    return value.lower() in ("true", "yes", "on", "1")


def _directory(text: str, key: str) -> str:
    if not text:
        raise ConfigError("must name a directory", key)
    return text


# each field's reader of its stripped text; the other fields are paths
_READERS = {
    **dict.fromkeys(("min_freq", "k", "top_sources", "top_cms", "per_pair",
                     "top_patterns", "topics", "seed"), _count),
    "threshold": _threshold, "generalize": _parse_bool, "workdir": _directory,
    "targets": lambda text, key: tuple(t.strip() for t in text.split(",") if t.strip()),
    "corpus": lambda text, key: (text,) if text else (),
}


def read_field(key: str, text: str):
    """Field `key`'s value written as `text`, read and range-checked, where
    an empty path is unset; ConfigError names the field of a bad value."""
    if key not in PipelineConfig._fields:
        raise ConfigError("unknown configuration key", key)
    return _READERS.get(key, lambda text, key: text or None)(text.strip(), key)


def load_config(source: TextSource) -> PipelineConfig:
    """Read key=value lines, each value by `read_field`; '#' comments and
    blank lines are skipped, and a line without '=' is a ConfigError."""
    values = {}
    for lineno, line in enumerate(textio.lines(source), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = map(str.strip, line.partition("="))
        if not sep:
            raise ConfigError(f"expected key=value on line {lineno}", key or line)
        values[key] = read_field(key, value)
    return PipelineConfig(**values)
