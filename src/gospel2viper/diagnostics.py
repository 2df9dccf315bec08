"""Source spans and diagnostics shared by every stage of the pipeline.

A Span is a half-open byte-offset interval into the original source text.
Line/column numbers are only computed when a diagnostic is rendered, via
LineIndex, so the rest of the pipeline can stay offset-based.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import Enum


@dataclass(slots=True, unsafe_hash=True)
class Span:
    """Equal and hashed by value; never assigned after it is built, but not
    frozen, because a frozen dataclass sets each field through
    `object.__setattr__` and costs twice as much to build."""

    start: int
    end: int

    def slice(self, source: str) -> str:
        return source[self.start:self.end]


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


@dataclass
class Diagnostic:
    severity: Severity
    category: Category
    message: str
    span: Span | None = None

    def render(self, path: str, index: "LineIndex | None" = None) -> str:
        line, col = (0, 0)
        if self.span is not None and index is not None:
            line, col = index.position(self.span.start)
        return (f"{path}:{line}:{col}: {self.severity.value}"
                f"[{self.category.value}]: {self.message}")


class LineIndex:
    """Maps byte offsets to 1-based (line, column) pairs."""

    def __init__(self, source: str):
        self._starts = [0]
        i = source.find("\n")
        while i >= 0:
            self._starts.append(i + 1)
            i = source.find("\n", i + 1)

    def position(self, offset: int) -> tuple[int, int]:
        row = bisect.bisect_right(self._starts, offset) - 1
        return row + 1, offset - self._starts[row] + 1


def error(category: Category, message: str, span: Span | None = None) -> Diagnostic:
    return Diagnostic(Severity.ERROR, category, message, span)


def warning(category: Category, message: str, span: Span | None = None) -> Diagnostic:
    return Diagnostic(Severity.WARNING, category, message, span)


def obligation(message: str, span: Span | None = None) -> Diagnostic:
    return Diagnostic(Severity.OBLIGATION, Category.PURE_OBLIGATION, message, span)


def sort_key(d: Diagnostic) -> tuple:
    start = d.span.start if d.span is not None else 1 << 60
    return (start, d.severity.value, d.category.value, d.message)


def has_errors(diags: list[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diags)
