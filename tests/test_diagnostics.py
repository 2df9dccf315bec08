from gospel2viper.diagnostics import (Category, Diagnostic, LineIndex,
                                      Severity, Span, error, has_errors,
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


@settings(max_examples=200, deadline=None, database=None)
@given(hs.text(alphabet="ab\r\n\u2028é"), hs.data())
def test_line_index_matches_a_character_walk(source, data):
    idx = LineIndex(source)
    for offset in (0, len(source), data.draw(hs.integers(0, len(source)))):
        assert idx.position(offset) == reference_position(source, offset)


def test_render_with_and_without_span():
    d = error(Category.PERMISSION, "boom", Span(3, 4))
    assert d.render("f.ml", LineIndex("ab\ncd")) == \
        "f.ml:2:1: error[permission]: boom"
    assert error(Category.PARSE, "gone").render("f.ml") == \
        "f.ml:0:0: error[parse]: gone"


def test_sort_key_orders_spanless_last():
    first = warning(Category.PERMISSION, "a", Span(0, 1))
    last = warning(Category.PERMISSION, "a")
    assert sorted([last, first], key=sort_key) == [first, last]


def test_severity_helpers():
    diags = [warning(Category.PERMISSION, "w"), obligation("maybe")]
    assert not has_errors(diags)
    assert has_errors(diags + [error(Category.PARSE, "e")])
    assert obligation("m").severity is Severity.OBLIGATION


def test_span_slice():
    assert Span(3, 5).slice("hello!") == "lo"


def test_diagnostic_is_plain_data():
    d = Diagnostic(Severity.ERROR, Category.TYPE, "m", Span(0, 1))
    assert d == Diagnostic(Severity.ERROR, Category.TYPE, "m", Span(0, 1))
