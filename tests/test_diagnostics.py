import ast
import importlib
import pkgutil
from pathlib import Path

import gospel2viper
import pytest
from gospel2viper.diagnostics import (Category, Diagnostic, LineIndex,
                                      Record, Severity, error, has_errors,
                                      obligation, sort_key, warning)
from hypothesis import given, settings, strategies as hs


def test_line_index_positions():
    idx = LineIndex("ab\ncd\n\nx")
    assert idx.position(0) == (1, 1)
    assert idx.position(1) == (1, 2)
    assert idx.position(3) == (2, 1)
    assert idx.position(6) == (3, 1)
    assert idx.position(7) == (4, 1)


def reference_position(source, offset):
    """Line and column by walking the characters before `offset`."""
    line, col = 1, 1
    for ch in source[:offset]:
        line, col = (line + 1, 1) if ch == "\n" else (line, col + 1)
    return line, col


@settings(max_examples=200, deadline=None, database=None,
          derandomize=True)
@given(hs.text(alphabet="ab\r\n\u2028é"), hs.data())
def test_line_index_matches_a_character_walk(source, data):
    idx = LineIndex(source)
    for offset in (0, len(source), data.draw(hs.integers(0, len(source)))):
        assert idx.position(offset) == reference_position(source, offset)


def test_render_with_and_without_span():
    d = error(Category.PERMISSION, "boom", 3)
    assert d.render("f.ml", LineIndex("ab\ncd")) == \
        "f.ml:2:1: error[permission]: boom"
    assert error(Category.PARSE, "gone").render("f.ml") == \
        "f.ml:0:0: error[parse]: gone"


def test_sort_key_orders_spanless_last():
    # offset 0 is a position like any other, and sorts first
    first = warning(Category.PERMISSION, "a", 0)
    last = warning(Category.PERMISSION, "a")
    assert sorted([last, first], key=sort_key) == [first, last]
    assert first.render("f.ml", LineIndex("a")) == \
        "f.ml:1:1: warning[permission]: a"


def test_severity_helpers():
    diags = [warning(Category.PERMISSION, "w"), obligation("maybe")]
    assert not has_errors(diags)
    assert has_errors(diags + [error(Category.PARSE, "e")])
    assert obligation("m").severity is Severity.OBLIGATION


def test_diagnostic_is_plain_data():
    d = Diagnostic(Severity.ERROR, Category.TYPE, "m", 0)
    assert d == Diagnostic(Severity.ERROR, Category.TYPE, "m", 0)
    assert d != Diagnostic(Severity.ERROR, Category.TYPE, "m")


def record_classes():
    """(class, declared defaults, whether it has a hand-written
    `__init__`) for each `Record` subclass with slots in the package,
    read from its class statement in the source."""
    found = []
    for info in pkgutil.iter_modules(gospel2viper.__path__):
        module = importlib.import_module(f"gospel2viper.{info.name}")
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        for node in tree.body:
            cls = getattr(module, getattr(node, "name", ""), None)
            if not (isinstance(node, ast.ClassDef) and isinstance(cls, type)
                    and issubclass(cls, Record) and cls.__slots__):
                continue
            defaults = {k.arg: ast.literal_eval(k.value) for k in node.keywords
                        if k.arg not in ("uncompared", "unshown")}
            found.append((cls, defaults, any(
                isinstance(f, ast.FunctionDef) and f.name == "__init__"
                for f in node.body)))
    return found


RECORDS = record_classes()


def test_every_slotted_record_derives_its_init():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    slotted = {c for c in subclasses(Record)
               if c.__module__.startswith("gospel2viper.")
               and c.__dict__.get("__slots__")}
    assert {cls for cls, _, _ in RECORDS} == slotted
    assert len(RECORDS) == len(slotted) > 70
    assert [cls for cls, _, hand_written in RECORDS if hand_written] == []


@pytest.mark.parametrize(
    "cls, defaults", [(cls, defaults) for cls, defaults, _ in RECORDS],
    ids=[f"{cls.__module__.rpartition('.')[2]}.{cls.__qualname__}"
         for cls, _, _ in RECORDS])
def test_a_record_is_built_from_its_slots(cls, defaults):
    slots = cls.__slots__
    # the defaulted fields are the last ones, in slot order
    assert list(defaults) == list(slots[len(slots) - len(defaults):])
    values = [object() for _ in slots]
    positional = cls(*values)
    assert all(getattr(positional, f) is v for f, v in zip(slots, values))
    keyword = cls(**dict(zip(slots, values)))
    assert keyword == positional
    assert all(getattr(keyword, f) is v for f, v in zip(slots, values))
    required = values[:len(slots) - len(defaults)]
    bare, other = cls(*required), cls(*required)
    for f, default in defaults.items():
        assert getattr(bare, f) == default
        assert type(getattr(bare, f)) is type(default)
        if isinstance(default, (list, dict)):
            # a fresh one per record, and for an explicit None too
            assert getattr(bare, f) is not getattr(other, f)
            given_none = cls(*required, **{f: None})
            assert getattr(given_none, f) == default
            assert getattr(given_none, f) is not getattr(bare, f)
    with pytest.raises(TypeError):
        cls(*values, None)


@pytest.mark.parametrize("defaults", [{"z": 0}, {"x": 0}, {"y": 0, "x": 0}],
                         ids=["no-such-slot", "not-last", "out-of-order"])
def test_defaults_name_the_last_slots_in_order(defaults):
    with pytest.raises(TypeError, match="are not its last slots"):
        class Point(Record, **defaults):
            __slots__ = ("x", "y")
