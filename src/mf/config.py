"""Pipeline configuration: flat key=value files with CLI-flag overrides."""

from typing import NamedTuple, Optional

from . import textio
from .errors import ConfigError
from .textio import TextSource

_INT_KEYS = ("min_freq", "k", "top_sources", "top_cms", "per_pair",
             "top_patterns", "seed", "topics")


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

    def validate(self) -> "PipelineConfig":
        for key in _INT_KEYS:
            value = getattr(self, key)
            if value is not None and value < 1:
                raise ConfigError("must be strictly positive", key)
        if not self.threshold >= 0:  # NaN too: no relatedness is <= NaN
            raise ConfigError(f"must be a number >= 0, got {self.threshold}", "threshold")
        if not self.workdir:
            raise ConfigError("must name a directory", "workdir")
        return self


def _parse_bool(value: str, key: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {value!r}", key)


def load_config(source: TextSource) -> PipelineConfig:
    """Read key=value lines; '#' comments and blank lines are skipped.

    Unknown keys and malformed values raise ConfigError naming the field.
    """
    values = {}
    for lineno, line in enumerate(textio.lines(source), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep:
            raise ConfigError(f"expected key=value on line {lineno}", key or line)
        if key not in PipelineConfig._fields:
            raise ConfigError("unknown configuration key", key)
        if key in _INT_KEYS:
            # ASCII digits only: int() also reads "1_0", "+3" and other scripts' digits
            if not (value.isascii() and value.isdigit()):
                raise ConfigError(f"expected an integer, got {value!r}", key)
            values[key] = int(value)
        elif key == "threshold":
            try:
                values[key] = float(value)
            except ValueError:
                raise ConfigError(f"expected a number, got {value!r}", key) from None
        elif key == "generalize":
            values[key] = _parse_bool(value, key)
        elif key == "targets":
            values[key] = tuple(t.strip() for t in value.split(",") if t.strip())
        elif key == "corpus":
            values[key] = (value,) if value else ()
        else:
            values[key] = value or None
    return PipelineConfig(**values).validate()
