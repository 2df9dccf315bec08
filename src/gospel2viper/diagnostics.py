"""Source positions and diagnostics shared by every stage of the pipeline.

A position (the `span` field of a node or a diagnostic) is a plain `int`:
the character offset where the construct starts (an index into the source
`str`, not a byte of its UTF-8 encoding), or None for none.  Offset 0 is a
real position, so test a span with `is None`, never by its truth.
Line/column numbers are only computed when a diagnostic is rendered, via
LineIndex, so the rest of the pipeline can stay offset-based.

`Record` is the base of the package's plain classes, every node of the
surface and Viper ASTs among them: a `__slots__` class whose `__init__`,
equality and repr are derived from its slots, as a dataclass's are from
its fields.  Only `__init__` is compiled, once per shape of class, and the
package imports neither `dataclasses` nor `inspect`.
"""

from __future__ import annotations

import bisect
from enum import Enum
from types import FunctionType

# the globals of every derived `__init__`; one shared dict, since the
# generated code reads no global
_INIT_GLOBALS: dict = {}
# the code of the derived `__init__` of each shape: for each slot, the
# repr of the fresh list or dict it defaults to, or ""
_SHAPES: dict = {}


class Record:
    """Base of the package's plain slots classes.  A subclass with slots
    gets the `__init__` a dataclass would generate: one parameter per
    slot, in `__slots__` order, stored as is.  Defaults are class
    keywords for the last slots, in slot order,
    `class VarDeclS(VStmt, init=None, span=None)`; a default of `[]` or
    `{}` stands for a fresh empty one in each record, given when the
    argument is omitted or None.

    Equality and repr are those a dataclass would generate too: two
    records are equal when they are of one class and their fields are,
    and the repr names each field.  Both go over the fields in
    `__slots__` order, except those a subclass names in the class keyword
    `uncompared` (by default `span`, which positions a node and never
    tells two apart).  `unshown` names the fields left out of the repr,
    by default the uncompared ones.  As for a dataclass that is equal by
    value but not frozen, defining `__eq__` turns hashing off; a subclass
    that is hashable defines `__hash__`."""

    __slots__ = ()

    def __init_subclass__(cls, uncompared=("span",), unshown=None,
                          **defaults):
        super().__init_subclass__()
        slots = cls.__dict__.get("__slots__", ())
        cls._compared = tuple(f for f in slots if f not in uncompared)
        hidden = uncompared if unshown is None else unshown
        cls._shown = tuple(f for f in slots if f not in hidden)
        if list(defaults) != list(slots[len(slots) - len(defaults):]):
            raise TypeError(f"the defaults {list(defaults)} of {cls.__name__} "
                            f"are not its last slots {slots}")
        if slots:
            cls.__init__ = _derived_init(cls, slots, defaults)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ([getattr(self, f) for f in self._compared]
                == [getattr(other, f) for f in self._compared])

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{self.__class__.__qualname__}({args})"


def _derived_init(cls: type, slots: tuple, defaults: dict):
    """`cls.__init__` as one would write it by hand, one store per slot:
    that builds a node faster than a loop or `setattr` would.  Its code is
    compiled once per shape and renamed for each class: with one compile
    per class, requests measured 1-2% slower (Python 3.11)."""
    shape = tuple(repr(defaults[f]) if type(defaults.get(f)) in (list, dict)
                  else "" for f in slots)
    code = _SHAPES.get(shape)
    if code is None:
        params = "".join(f", a{i}" for i in range(len(shape)))
        body = "".join(f"    self.s{i} = {fresh} if a{i} is None else a{i}\n"
                       if fresh else f"    self.s{i} = a{i}\n"
                       for i, fresh in enumerate(shape))
        made: dict = {}
        exec(f"def __init__(self{params}):\n{body}", _INIT_GLOBALS, made)
        code = _SHAPES[shape] = made["__init__"].__code__
    # the body's only names are its attributes s0, s1, ..., in that order
    init = FunctionType(code.replace(co_varnames=("self", *slots),
                                     co_names=slots), _INIT_GLOBALS)
    init.__defaults__ = tuple(None if type(d) in (list, dict) else d
                              for d in defaults.values()) or None
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init


class Handlers(dict):
    """A walk's handler for each node class, which a handler looks up for
    each child, `table[type(child)](...)`: one Python frame per node.  A
    class without a handler, wherever it sits, gets the handler `default`,
    or without one raises TypeError(f"{unknown} {class name}")."""
    __slots__ = ("unknown", "default")

    def __init__(self, handlers: dict, unknown: str = "", default=None):
        super().__init__(handlers)
        self.unknown, self.default = unknown, default

    def __missing__(self, cls: type):
        if self.default is None:
            raise TypeError(f"{self.unknown} {cls.__name__}")
        return self.default


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


class Diagnostic(Record, uncompared=(), span=None):
    __slots__ = ("severity", "category", "message", "span")

    def __hash__(self) -> int:
        return hash((self.severity, self.category, self.message, self.span))

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
