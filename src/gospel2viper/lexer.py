"""Lexer for the OCaml-light surface language.

One compiled master pattern reads each token together with the
whitespace before it, as the stdlib `tokenize` and `re.Scanner` modules
do.  The token classes are:

* whitespace: ASCII space, tab, CR and LF only, so a no-break space or
  a form feed is an unexpected character;
* integers: runs of Unicode decimal digits, the ones `int` reads, so a
  superscript `²` is an unexpected character;
* identifiers: a letter or `_`, then letters, digits, `_` and `'`;
* the punctuation in PUNCT, longest match first.

Ordinary ``(* ... *)`` comments nest and are discarded.  Annotation
comments ``(*@ ... *)`` become a single ANNOTATION token that keeps the
raw payload text and its offset, so the payload can be re-lexed in
annotation mode later.  In annotation mode the contract keywords
(requires, ensures, predicate, function, lemma, fold, unfold, apply)
are hard keywords; in program mode they are plain identifiers.

Token kinds are plain ints, the constants of class `T`; compare them
with `==`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

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

_ALL_KEYWORDS = {**SPEC_KEYWORDS, **KEYWORDS}

# Leading whitespace, then one token: a comment opener, an integer, an
# identifier (the caller rejects a non-letter start) or punctuation,
# longest first.  No group matches at end of input or a stray character.
_INT, _IDENT, _PUNCT = 2, 3, 4  # group numbers; 1 is the comment opener
_TOKEN = re.compile(r"[ \t\r\n]*(?:(\(\*@?)|(\d+)|([^\W\d][\w']*)|(%s))?"
                    % "|".join(map(re.escape,
                                   sorted(PUNCT, key=len, reverse=True))))
_COMMENT_EDGE = re.compile(r"\(\*|\*\)")


@dataclass(slots=True)
class Token:
    kind: int  # a T constant
    text: str
    start: int  # offset in the file; most spans are never asked for
    # only set on ANNOTATION tokens
    payload: str | None = field(default=None, repr=False)
    payload_offset: int = field(default=0, repr=False)

    @property
    def span(self) -> Span:
        return Span(self.start, self.start + len(self.text))

    def is_upper_ident(self) -> bool:
        return self.kind == T.IDENT and self.text[:1].isupper()


def _unexpected(ch: str, at: int) -> Diagnostic:
    return error(Category.PARSE, f"unexpected character {ch!r}",
                 Span(at, at + 1))


def lex(source: str, base: int = 0, spec_mode: bool = False
        ) -> tuple[list[Token], list[Diagnostic]]:
    """Tokenize `source`.  Returns ([], [diagnostic]) on a lexical error.

    `base` shifts all spans, so annotation payloads keep file positions.
    """
    keywords = _ALL_KEYWORDS if spec_mode else KEYWORDS
    toks: list[Token] = []
    append, match = toks.append, _TOKEN.match
    i, n = 0, len(source)
    while True:
        m = match(source, i)
        group = m.lastindex
        if group is None:
            i = m.end()
            if i == n:
                break
            return [], [_unexpected(source[i], base + i)]
        start, i = m.span(group)
        text = source[start:i]
        if group == _IDENT:
            if not (text[0].isalpha() or text[0] == "_"):
                return [], [_unexpected(text[0], base + start)]
            kind = keywords.get(text, T.IDENT)
        elif group == _PUNCT:
            kind = PUNCT[text]
        elif group == _INT:
            kind = T.INT
        else:
            depth = 1
            for edge in _COMMENT_EDGE.finditer(source, i):
                depth += 1 if edge.group() == "(*" else -1
                if not depth:
                    break
            else:
                return [], [error(Category.PARSE, "unterminated comment",
                                  Span(base + start, base + n))]
            i = edge.end()
            if len(text) == 3:
                append(Token(T.ANNOTATION, source[start:i], base + start,
                             source[start + 3:i - 2], base + start + 3))
            continue
        append(Token(kind, text, base + start))
    append(Token(T.EOF, "", base + n))
    return toks, []
