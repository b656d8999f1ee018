"""Shared exception types for the mf package."""


class MFError(Exception):
    """Base class for all mf errors."""


class ConlluParseError(MFError):
    """Malformed CoNLL-U input; carries the 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SentenceStructureError(MFError):
    """Structurally invalid sentence (dangling head, no single root, cycle, ...)."""

    def __init__(self, message, sentence_id=None):
        self.sentence_id = sentence_id
        if sentence_id is not None:
            message = f"sentence {sentence_id!r}: {message}"
        super().__init__(message)


class FormatError(MFError):
    """Malformed row in a data file; carries the 1-based row number."""

    def __init__(self, message, row=None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class StoreStateError(MFError):
    """Operation incompatible with the store lifecycle (mutating a frozen
    store, or querying an unfrozen one)."""


class ConfigError(MFError):
    """Invalid pipeline configuration; carries the offending field name."""

    def __init__(self, message, field=None):
        self.field = field
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)
