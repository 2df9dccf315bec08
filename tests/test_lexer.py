import sys
from collections import Counter
from pathlib import Path

from gospel2viper import lexer
from gospel2viper.lexer import SPEC_KEYWORDS, T, lex
from gospel2viper.translate import translate_source
from lexer_oracle import reference_lex
from test_parser import wide_module

import pytest
from hypothesis import given, settings, strategies as hs


def kinds(source, spec_mode=False):
    toks, diags = lex(source, spec_mode=spec_mode)
    assert not diags
    return toks.kinds


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
        assert toks.kinds[1] == T.OWNS


def test_plain_comments_are_dropped_and_nest():
    assert kinds("a (* one (* nested *) two *) b") == [
        T.IDENT, T.IDENT, T.EOF]


def test_unterminated_comment_is_an_error():
    toks, diags = lex("a (* oops")
    assert len(toks) == 0
    assert len(diags) == 1
    assert "unterminated" in diags[0].message


def test_annotation_token_keeps_payload():
    source = "x (*@ fold p q *) y"
    toks, diags = lex(source)
    assert not diags
    # the whole comment, then its payload in spec mode, ended by an EOF at
    # the closing `*)`, then the code after it
    assert toks.kinds == [T.IDENT, T.ANNOTATION, T.FOLD, T.IDENT, T.IDENT,
                          T.EOF, T.IDENT, T.EOF]
    assert toks.texts[1] == "(*@ fold p q *)"
    # offsets point into the original source
    assert toks.starts[1:6] == [2, 6, 11, 13, source.index("*)")]


def test_spec_keywords_only_in_spec_mode():
    assert kinds("requires fold")[0] is T.IDENT
    assert kinds("requires fold", spec_mode=True)[:2] == [
        T.REQUIRES, T.FOLD]


def test_primed_identifiers():
    toks, _ = lex("v' x_1")
    assert toks.texts[:2] == ["v'", "x_1"]


def test_unexpected_character():
    toks, diags = lex("a # b")
    assert len(toks) == 0
    assert "unexpected character" in diags[0].message


def test_error_in_a_payload_is_kept_for_the_parser():
    toks, diags = lex("a (*@ b # c *) d # e")
    assert len(toks) == 0 and len(diags) == 1  # an error outside fails all
    assert diags[0].span == len("a (*@ b # c *) d ")
    toks, diags = lex("a (*@ b # c *) d")
    assert not diags
    assert toks.kinds == [T.IDENT, T.ANNOTATION, T.EOF, T.IDENT, T.EOF]
    assert toks.errors[1].message == "unexpected character '#'"
    assert toks.errors[1].span == len("a (*@ b ")


@pytest.mark.parametrize("source,n", [("", 1), ("  \n\t ", 1)])
def test_blank_input_is_just_eof(source, n):
    toks, diags = lex(source)
    assert not diags
    assert len(toks) == n and toks.kinds[0] == T.EOF


def test_spans_shift_with_base():
    toks, _ = lex("ab cd", base=100)
    assert toks.starts[:2] == [100, 103]


# -- differential tests against the character-at-a-time lexer ---------------

CORPUS = Path(__file__).parent / "corpus"
SOURCES = {p.name: p.read_text(encoding="utf-8")
           for p in sorted(CORPUS.glob("*.ml"))}
SOURCES["wide_module"] = wide_module()
BASE = 7


def stream(toks):
    return list(zip(toks.kinds, toks.texts, toks.starts))


def reference_stream(toks):
    return [(t.kind, t.text, t.span) for t in toks]


def reads_non_decimal_int(source, base, spec_mode):
    """Whether the reference lexer reads an INT that `int` rejects before
    it stops, which `lex` reports as an error instead."""
    toks, diags = reference_lex(source, base, spec_mode)
    if diags:
        toks, _ = reference_lex(source[:diags[0].span - base], base,
                                spec_mode)
    return any(t.kind is T.INT and not t.text.isdecimal() for t in toks)


def inline(toks):
    """The reference lexer's program-mode tokens with each annotation's
    payload lexed in spec mode right after it, as `lex` does: the stream,
    and the payload errors by ANNOTATION token index (None where only the
    start of the message is known)."""
    out, errors = [], {}
    for t in toks:
        out.append((t.kind, t.text, t.span))
        if t.kind is not T.ANNOTATION:
            continue
        inner, diags = reference_lex(t.payload, t.payload_offset, True)
        if reads_non_decimal_int(t.payload, t.payload_offset, True):
            errors[len(out) - 1] = None
        elif diags:
            errors[len(out) - 1] = diags[0]
        else:
            out += reference_stream(inner)
            continue
        out.append((T.EOF, "", t.payload_offset + len(t.payload)))
    return out, errors


def assert_same_as_reference(source):
    for spec_mode in (False, True):
        toks, diags = lex(source, BASE, spec_mode)
        if reads_non_decimal_int(source, BASE, spec_mode):
            assert diags[0].message.startswith("unexpected character")
            continue
        ref, ref_diags = reference_lex(source, BASE, spec_mode)
        assert diags == ref_diags
        if spec_mode:  # one payload: a nested annotation stays one token
            assert stream(toks) == reference_stream(ref)
            continue
        expected, errors = inline(ref)
        assert stream(toks) == expected
        assert toks.errors.keys() == errors.keys()
        for at, error in errors.items():
            got = toks.errors[at]
            if error is None:
                assert got.message.startswith("unexpected character")
            else:
                assert got == error


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_corpus_lexes_as_the_reference_lexer_does(name):
    assert_same_as_reference(SOURCES[name])


# Edge cases of the one-pass lexer, each checked against the reference
EDGE_CASES = {
    "nested comment holding (*@": "a (* x (*@ y *) z *) b",
    "nested comment holding *)": "a (* x (* *) *) y *) b",
    "plain comment holding odd text": 'a (* "why?" été\xa0 *) b',
    "payload holding a plain comment": "a (*@ fold (* # é *) p *) b",
    "payload holding an annotation": "a (*@ fold (*@ # *) p *) b",
    "bad character in a payload": "a (*@ fold (* ½ *) p ² *) b",
    "bad character first": "½ a",
    "bad character after a comment": "x (* ok *) \xa0",
    "stray closer": "a *) b",
    "closer in an opener": "a (*) b *) c",
    "empty comment": "a (**) b",
    "starred comment": "a (***) b",
    "non-ASCII identifiers": "été aé x²",
    "ownership arrows": "a ⇝ b ↝ c ⤳ d",
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_case_lexes_as_the_reference_lexer_does(name):
    assert_same_as_reference(EDGE_CASES[name])


def test_closer_outside_a_comment_is_star_rparen():
    toks, diags = lex("a *) b")
    assert not diags
    assert toks.kinds == [T.IDENT, T.STAR, T.RPAREN, T.IDENT, T.EOF]
    assert toks.starts[1:3] == [2, 3] and toks.texts[1:3] == ["*", ")"]


def test_each_file_is_split_once(monkeypatch):
    calls = []

    class Counted:
        def split(self, source):
            calls.append(source)
            return split(source)

    split = lexer._SPLIT.split
    monkeypatch.setattr(lexer, "_SPLIT", Counted())
    source = (CORPUS / "checker_queue.ml").read_text(encoding="utf-8")
    program, diags = translate_source(source)
    assert program is not None, [d.message for d in diags]
    assert calls == [source]


def test_lexer_calls_per_distinct_text_on_a_wide_module():
    # A count of calls, unlike a time, does not depend on the machine.
    # Each token's kind is one probe of a table that learns an identifier
    # or integer the first time it meets one (one Python-level call), and
    # a spec keyword first lexed as an identifier is one of those.  Three
    # chained `map`s over every token made three C calls per token, which
    # a profile does not see, and no call per distinct text.
    source = wide_module()
    calls = Counter()

    def count(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    sys.setprofile(count)
    try:
        toks, diags = lex(source)
    finally:
        sys.setprofile(None)
    assert not diags
    words = {text for text, kind in zip(toks.texts, toks.kinds)
             if kind in (T.IDENT, T.INT) or text in SPEC_KEYWORDS}
    assert calls["__missing__"] == len(words) == 76
    assert sum(calls.values()) <= len(set(toks.texts)) + 20


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


@settings(max_examples=300, deadline=None, database=None,
          derandomize=True)
@given(hs.sampled_from(sorted(SOURCES)), EDITS)
def test_mutated_corpus_lexes_as_the_reference_lexer_does(name, edits):
    assert_same_as_reference(mutate(SOURCES[name], edits))
