"""Lexer for the OCaml-light surface language.

Each file is lexed once, into a `Tokens` stream: three parallel lists of
token kinds, start offsets and texts.  No object is built per token.
The code between two comments is read by one `split` over a compiled
pattern of all tokens, which yields the gaps between tokens and the
token texts alternately; the offsets are the running sums of their
lengths, and every gap must be whitespace.  The token classes are:

* whitespace: ASCII space, tab, CR and LF only, so a no-break space or
  a form feed is an unexpected character;
* integers: runs of Unicode decimal digits, the ones `int` reads, so a
  superscript `²` is an unexpected character;
* identifiers: a letter or `_`, then letters, digits, `_` and `'`;
* the punctuation in PUNCT, longest match first.

Ordinary ``(* ... *)`` comments nest and are discarded.  An annotation
comment ``(*@ ... *)`` becomes an ANNOTATION token whose text is the
whole comment, followed at once by the tokens of its payload, lexed in
spec mode, and an EOF token at the closing ``*)``; the parser reads an
annotation as that slice of the stream.  A lexical error in a payload
does not fail the file: its payload tokens are dropped and the error is
kept in `Tokens.errors` under the ANNOTATION token's index, for the
parser to report if it reaches that annotation.

In spec mode, the contract keywords (requires, ensures, predicate,
function, lemma, fold, unfold, apply) are hard keywords; in program mode
they are plain identifiers.  `lex(..., spec_mode=True)` lexes one payload
on its own, as the file's lexer does inline; an annotation nested in a
payload stays a single ANNOTATION token.

Token kinds are plain ints, the constants of class `T`; compare them
with `==`.
"""

from __future__ import annotations

import re
from itertools import accumulate

from .diagnostics import Category, Diagnostic, Span, error


class T:
    """Token kinds: distinct ints, which the parser compares far faster
    than `Enum` members."""
    (IDENT, INT, ANNOTATION,
     # punctuation
     LPAREN, RPAREN, LBRACE, RBRACE, LBRACKET, RBRACKET,
     SEMI, COLON, COMMA, DOT, DOTDOT,
     PIPE, ARROW, LARROW, OWNS,
     EQ, NEQ, LT, LE, GT, GE,
     PLUS, MINUS, STAR, SLASH, PLUSPLUS, AMPAMP, BARBAR,
     # program keywords
     TYPE, OF, MUTABLE, LET, IN, IF, THEN, ELSE, MATCH, WITH, TRUE, FALSE,
     # annotation-mode keywords
     REQUIRES, ENSURES, PREDICATE, FUNCTION, LEMMA, FOLD, UNFOLD, APPLY,
     EOF) = range(52)


KEYWORDS = {
    "type": T.TYPE, "of": T.OF, "mutable": T.MUTABLE,
    "let": T.LET, "in": T.IN,
    "if": T.IF, "then": T.THEN, "else": T.ELSE,
    "match": T.MATCH, "with": T.WITH,
    "true": T.TRUE, "false": T.FALSE,
}

SPEC_KEYWORDS = {
    "requires": T.REQUIRES, "ensures": T.ENSURES,
    "predicate": T.PREDICATE, "function": T.FUNCTION, "lemma": T.LEMMA,
    "fold": T.FOLD, "unfold": T.UNFOLD, "apply": T.APPLY,
}

# The ASCII digraph and the unicode wiggle arrows all denote ownership.
PUNCT = {
    "~>": T.OWNS, "⇝": T.OWNS, "↝": T.OWNS, "⤳": T.OWNS,
    "<-": T.LARROW, "->": T.ARROW,
    "++": T.PLUSPLUS, "&&": T.AMPAMP, "||": T.BARBAR,
    "..": T.DOTDOT, "<>": T.NEQ, "<=": T.LE, ">=": T.GE,
    "(": T.LPAREN, ")": T.RPAREN, "{": T.LBRACE, "}": T.RBRACE,
    "[": T.LBRACKET, "]": T.RBRACKET,
    ";": T.SEMI, ":": T.COLON, ",": T.COMMA, ".": T.DOT,
    "|": T.PIPE, "=": T.EQ, "<": T.LT, ">": T.GT,
    "+": T.PLUS, "-": T.MINUS, "*": T.STAR, "/": T.SLASH,
}

# Kind by token text, for all but identifiers and integers.
_KINDS = {**PUNCT, **KEYWORDS}
_SPEC_KINDS = {**_KINDS, **SPEC_KEYWORDS}
_IDENT_OR_INT = (T.IDENT, T.INT)  # indexed by `text.isdecimal()`

# One token: an identifier (which must still start with a letter or `_`),
# punctuation, longest first, or an integer.  `split` keeps the group, so
# it yields [gap, token, gap, token, ..., gap]; a gap that is not blank
# holds a character that starts no token.
_SPLIT = re.compile(r"([^\W\d][\w']*|%s|\d+)"
                    % "|".join(map(re.escape,
                                   sorted(PUNCT, key=len, reverse=True))))
_BLANK = re.compile(r"[ \t\r\n]*")
_COMMENT_EDGE = re.compile(r"\(\*|\*\)")


class Tokens:
    """A token stream as parallel lists: token i has kind `kinds[i]` (a T
    constant), text `texts[i]` and its first character at offset
    `starts[i]` of the file.  `len` is the number of tokens."""

    __slots__ = ("kinds", "starts", "texts", "errors")

    def __init__(self) -> None:
        self.kinds: list[int] = []
        self.starts: list[int] = []
        self.texts: list[str] = []
        # index of an ANNOTATION token -> the lexical error in its payload
        self.errors: dict[int, Diagnostic] = {}

    def __len__(self) -> int:
        return len(self.kinds)

    def add(self, kind: int, start: int, text: str) -> None:
        self.kinds.append(kind)
        self.starts.append(start)
        self.texts.append(text)

    def span(self, i: int) -> Span:
        start = self.starts[i]
        return Span(start, start + len(self.texts[i]))


def _unexpected(ch: str, at: int) -> Diagnostic:
    return error(Category.PARSE, f"unexpected character {ch!r}",
                 Span(at, at + 1))


def lex(source: str, base: int = 0, spec_mode: bool = False
        ) -> tuple[Tokens, list[Diagnostic]]:
    """Tokenize `source`.  Returns (empty stream, [diagnostic]) on a
    lexical error outside every annotation.

    `base` shifts all offsets, so a payload lexed on its own keeps file
    positions.
    """
    toks = Tokens()
    diag = _lex(toks, source, 0, len(source), base, spec_mode)
    if diag is not None:
        return Tokens(), [diag]
    return toks, []


def _lex(toks: Tokens, source: str, i: int, n: int, base: int,
         spec: bool) -> Diagnostic | None:
    """Append the tokens of source[i:n] and an EOF at its end, or return
    the first lexical error."""
    kinds = _SPEC_KINDS if spec else _KINDS
    while True:
        opener = source.find("(*", i, n)
        end = n if opener < 0 else opener
        bad = _code(toks, source[i:end], base + i, kinds)
        if bad is not None:
            return _unexpected(source[bad - base], bad)
        if opener < 0:
            break
        depth = 1
        for edge in _COMMENT_EDGE.finditer(source, opener + 2, n):
            depth += 1 if edge.group() == "(*" else -1
            if not depth:
                break
        else:
            return error(Category.PARSE, "unterminated comment",
                         Span(base + opener, base + n))
        i = edge.end()
        if source.startswith("(*@", opener, n):
            at = len(toks)
            toks.add(T.ANNOTATION, base + opener, source[opener:i])
            if not spec:
                diag = _lex(toks, source, opener + 3, i - 2, base, True)
                if diag is not None:  # keep only the ANNOTATION token
                    del toks.kinds[at + 1:], toks.starts[at + 1:], \
                        toks.texts[at + 1:]
                    toks.errors[at] = diag
                    toks.add(T.EOF, base + i - 2, "")
    toks.add(T.EOF, base + n, "")
    return None


def _code(toks: Tokens, code: str, offset: int, kinds: dict) -> int | None:
    """Append the tokens of `code`, which holds no comment and starts at
    file offset `offset`; return the offset of the first character that
    starts no token, if there is one."""
    parts = _SPLIT.split(code)
    texts = parts[1::2]
    offsets = list(accumulate(map(len, parts), initial=offset))
    new = list(map(kinds.get, texts,
                   map(_IDENT_OR_INT.__getitem__, map(str.isdecimal, texts))))
    if not (code.isascii() and _BLANK.fullmatch("".join(parts[::2]))):
        bad = _first_bad(parts, offsets, new)
        if bad is not None:
            return bad
    toks.kinds += new
    toks.starts += offsets[1:-1:2]
    toks.texts += texts
    return None


def _first_bad(parts: list[str], offsets: list[int], kinds: list[int]
               ) -> int | None:
    """The offset of the first character that starts no token: one in a
    gap, or the first of an identifier that is not a letter or `_` (such
    as `Ⅷ`, `½` or `²`, which `[^\\W\\d]` lets through)."""
    bad = [offsets[g] + _BLANK.match(parts[g]).end()
           for g in range(0, len(parts), 2) if not _BLANK.fullmatch(parts[g])]
    bad += [offsets[t] for t, kind in zip(range(1, len(parts), 2), kinds)
            if kind == T.IDENT and not (parts[t][0].isalpha()
                                        or parts[t][0] == "_")]
    return min(bad, default=None)
