"""Source positions and diagnostics shared by every stage of the pipeline.

A position (the `span` field of a node or a diagnostic) is a plain `int`:
the character offset where the construct starts (an index into the source
`str`, not a byte of its UTF-8 encoding), or None for none.  Offset 0 is a
real position, so test a span with `is None`, never by its truth.
Line/column numbers are only computed when a diagnostic is rendered, via
LineIndex, so the rest of the pipeline can stay offset-based.

`Record` is the base of the package's plain classes, every node of the
surface and Viper ASTs among them: a `__slots__` class with a
hand-written `__init__` costs far less to define at import than a
dataclass, whose methods are generated and compiled from source text when
its module is imported, and the package imports no `dataclasses`.
"""

from __future__ import annotations

import bisect
from enum import Enum


class Record:
    """Base of the package's plain slots classes.  Equality and repr are
    those a dataclass would generate: two records are equal when they are
    of one class and their fields are, and the repr names each field.
    Both go over the fields in `__slots__` order, except those a subclass
    names in the class keyword `uncompared` (by default `span`, which
    positions a node and never tells two apart).  `unshown` names the
    fields left out of the repr, by default the uncompared ones.  As for
    a dataclass that is equal by value but not frozen, defining `__eq__`
    turns hashing off; a subclass that is hashable defines `__hash__`."""

    __slots__ = ()

    def __init_subclass__(cls, uncompared=("span",), unshown=None):
        super().__init_subclass__()
        slots = cls.__dict__.get("__slots__", ())
        cls._compared = tuple(f for f in slots if f not in uncompared)
        hidden = uncompared if unshown is None else unshown
        cls._shown = tuple(f for f in slots if f not in hidden)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ([getattr(self, f) for f in self._compared]
                == [getattr(other, f) for f in self._compared])

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{self.__class__.__qualname__}({args})"


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"
    OBLIGATION = "obligation"


class Category(Enum):
    PARSE = "parse"
    TYPE = "type"
    TRANSLATION = "translation"
    PERMISSION = "permission"
    FOLD_MISMATCH = "fold-mismatch"
    UNDECIDABLE_BRANCH = "undecidable-branch"
    CONTRACT_VIOLATION = "contract-violation"
    PURE_OBLIGATION = "pure-obligation"


class Diagnostic(Record, uncompared=()):
    __slots__ = ("severity", "category", "message", "span")

    def __init__(self, severity: Severity, category: Category, message: str,
                 span: int | None = None):
        self.severity = severity
        self.category = category
        self.message = message
        self.span = span

    def render(self, path: str, index: "LineIndex | None" = None) -> str:
        line, col = (0, 0)
        if self.span is not None and index is not None:
            line, col = index.position(self.span)
        return (f"{path}:{line}:{col}: {self.severity.value}"
                f"[{self.category.value}]: {self.message}")


class LineIndex:
    """Maps character offsets to 1-based (line, column) pairs; a column
    counts characters, so `⇝` (three bytes of UTF-8) is one column."""

    def __init__(self, source: str):
        self._starts = [0]
        i = source.find("\n")
        while i >= 0:
            self._starts.append(i + 1)
            i = source.find("\n", i + 1)

    def position(self, offset: int) -> tuple[int, int]:
        row = bisect.bisect_right(self._starts, offset) - 1
        return row + 1, offset - self._starts[row] + 1


def error(category: Category, message: str, span: int | None = None) -> Diagnostic:
    return Diagnostic(Severity.ERROR, category, message, span)


def warning(category: Category, message: str, span: int | None = None) -> Diagnostic:
    return Diagnostic(Severity.WARNING, category, message, span)


def obligation(message: str, span: int | None = None) -> Diagnostic:
    return Diagnostic(Severity.OBLIGATION, Category.PURE_OBLIGATION, message, span)


def sort_key(d: Diagnostic) -> tuple:
    start = d.span if d.span is not None else 1 << 60
    return (start, d.severity.value, d.category.value, d.message)


def has_errors(diags: list[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diags)
