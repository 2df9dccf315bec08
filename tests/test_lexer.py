from pathlib import Path

from gospel2viper.lexer import T, lex
from lexer_oracle import reference_lex

import pytest
from hypothesis import given, settings, strategies as hs


def kinds(source, spec_mode=False):
    toks, diags = lex(source, spec_mode=spec_mode)
    assert not diags
    return [t.kind for t in toks]


def test_basic_tokens():
    assert kinds("let x = 1 + 2") == [
        T.LET, T.IDENT, T.EQ, T.INT, T.PLUS, T.INT, T.EOF]


def test_punctuation_longest_match():
    assert kinds("<- -> <> <= .. ++ && ||") == [
        T.LARROW, T.ARROW, T.NEQ, T.LE, T.DOTDOT, T.PLUSPLUS,
        T.AMPAMP, T.BARBAR, T.EOF]


def test_owns_digraph_and_arrows():
    for arrow in ("~>", "⇝", "↝", "⤳"):
        toks, diags = lex(f"c {arrow} x")
        assert not diags
        assert toks[1].kind is T.OWNS


def test_plain_comments_are_dropped_and_nest():
    assert kinds("a (* one (* nested *) two *) b") == [
        T.IDENT, T.IDENT, T.EOF]


def test_unterminated_comment_is_an_error():
    toks, diags = lex("a (* oops")
    assert toks == []
    assert len(diags) == 1
    assert "unterminated" in diags[0].message


def test_annotation_token_keeps_payload():
    toks, diags = lex("x (*@ fold p q *) y")
    assert not diags
    ann = toks[1]
    assert ann.kind is T.ANNOTATION
    assert ann.payload == " fold p q "
    # payload offset points into the original source
    assert ann.payload_offset == len("x (*@")


def test_spec_keywords_only_in_spec_mode():
    assert kinds("requires fold")[0] is T.IDENT
    assert kinds("requires fold", spec_mode=True)[:2] == [
        T.REQUIRES, T.FOLD]


def test_primed_identifiers():
    toks, _ = lex("v' x_1")
    assert [t.text for t in toks[:2]] == ["v'", "x_1"]


def test_unexpected_character():
    toks, diags = lex("a # b")
    assert toks == []
    assert "unexpected character" in diags[0].message


@pytest.mark.parametrize("source,n", [("", 1), ("  \n\t ", 1)])
def test_blank_input_is_just_eof(source, n):
    toks, diags = lex(source)
    assert not diags
    assert len(toks) == n and toks[0].kind is T.EOF


def test_spans_shift_with_base():
    toks, _ = lex("ab cd", base=100)
    assert toks[0].span.start == 100
    assert toks[1].span.start == 103


# -- differential tests against the character-at-a-time lexer ---------------

CORPUS = Path(__file__).parent / "corpus"
SOURCES = {p.name: p.read_text(encoding="utf-8")
           for p in sorted(CORPUS.glob("*.ml"))}
BASE = 7


def stream(result):
    toks, diags = result
    return [(t.kind, t.text, t.span, t.payload, t.payload_offset)
            for t in toks], diags


def reads_non_decimal_int(source, spec_mode):
    """Whether the reference lexer reads an INT that `int` rejects before
    it stops, which the master-regex lexer reports as an error instead."""
    toks, diags = reference_lex(source, BASE, spec_mode)
    if diags:
        toks, _ = reference_lex(source[:diags[0].span.start - BASE], BASE,
                                spec_mode)
    return any(t.kind is T.INT and not t.text.isdecimal() for t in toks)


def assert_same_as_reference(source):
    for spec_mode in (False, True):
        if reads_non_decimal_int(source, spec_mode):
            _, diags = lex(source, BASE, spec_mode)
            assert diags[0].message.startswith("unexpected character")
            continue
        new = lex(source, BASE, spec_mode)
        assert stream(new) == stream(reference_lex(source, BASE, spec_mode))
        for t in new[0]:
            if t.kind is T.ANNOTATION and not reads_non_decimal_int(
                    t.payload, True):
                assert stream(lex(t.payload, t.payload_offset, True)) == \
                    stream(reference_lex(t.payload, t.payload_offset, True))


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_corpus_lexes_as_the_reference_lexer_does(name):
    assert_same_as_reference(SOURCES[name])


PIECES = ["(*@", "(*", "*)", "~>", "⇝", "\xa0", "é", "٣", "Ⅷ", "½", "²",
          " ", "\n", "\t", "\f", "x", "_", "'", "0", "9", "(", ")", "-",
          "<", ">", "=", ".", "|", "@", "#", "requires", "let"]

EDITS = hs.lists(hs.tuples(hs.sampled_from(["insert", "delete", "replace"]),
                           hs.floats(0, 1), hs.sampled_from(PIECES)),
                 min_size=1, max_size=6)


def mutate(source, edits):
    # a delete removes as many characters as its piece has
    for op, where, piece in edits:
        at = int(where * len(source))
        if op == "insert":
            source = source[:at] + piece + source[at:]
        elif op == "delete":
            source = source[:at] + source[at + len(piece):]
        else:
            source = source[:at] + piece + source[at + len(piece):]
    return source


@settings(max_examples=300, deadline=None, database=None)
@given(hs.sampled_from(sorted(SOURCES)), EDITS)
def test_mutated_corpus_lexes_as_the_reference_lexer_does(name, edits):
    assert_same_as_reference(mutate(SOURCES[name], edits))
