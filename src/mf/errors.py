"""Shared exception types for the mf package."""


class MFError(Exception):
    """Base class for all mf errors."""


class _LocatedError(MFError):
    """An error that may carry where it happened, in the attribute `_where`
    names; the message is then prefixed with that place as `_place` shows it."""

    _where = _place = ""

    def __init__(self, message, where=None):
        setattr(self, self._where, where)
        if where is not None:
            message = f"{self._place.format(where)}: {message}"
        super().__init__(message)


class ConlluParseError(_LocatedError):
    """Malformed CoNLL-U input; carries the 1-based line number."""
    _where, _place = "line", "line {}"


class SentenceStructureError(_LocatedError):
    """Structurally invalid sentence (dangling head, no single root, cycle, ...)."""
    _where, _place = "sentence_id", "sentence {!r}"


class FormatError(_LocatedError):
    """Malformed row in a data file; carries the 1-based row number."""
    _where, _place = "row", "row {}"


class StoreStateError(MFError):
    """Operation incompatible with the store lifecycle (mutating a frozen
    store, or querying an unfrozen one)."""


class ConfigError(_LocatedError):
    """Invalid pipeline configuration; carries the offending field name."""
    _where, _place = "field", "{}"
