"""The character-at-a-time lexer that the master-regex lexer replaced,
kept unchanged as a reference oracle for the differential tests."""

from dataclasses import dataclass, field

from gospel2viper.diagnostics import Category, Span, error
from gospel2viper.lexer import KEYWORDS, SPEC_KEYWORDS, T

OWNS_ARROWS = ("⇝", "↝", "⤳")

PUNCT = [
    ("~>", T.OWNS), ("<-", T.LARROW), ("->", T.ARROW),
    ("++", T.PLUSPLUS), ("&&", T.AMPAMP), ("||", T.BARBAR),
    ("..", T.DOTDOT), ("<>", T.NEQ), ("<=", T.LE), (">=", T.GE),
    ("(", T.LPAREN), (")", T.RPAREN), ("{", T.LBRACE), ("}", T.RBRACE),
    ("[", T.LBRACKET), ("]", T.RBRACKET),
    (";", T.SEMI), (":", T.COLON), (",", T.COMMA), (".", T.DOT),
    ("|", T.PIPE), ("=", T.EQ), ("<", T.LT), (">", T.GT),
    ("+", T.PLUS), ("-", T.MINUS), ("*", T.STAR), ("/", T.SLASH),
]


@dataclass
class Token:
    kind: T
    text: str
    span: Span
    # only set on ANNOTATION tokens
    payload: str | None = field(default=None, repr=False)
    payload_offset: int = field(default=0, repr=False)


def _ident_start(ch):
    return ch.isalpha() or ch == "_"


def _ident_cont(ch):
    return ch.isalnum() or ch in "_'"


def reference_lex(source, base=0, spec_mode=False):
    toks = []
    i, n = 0, len(source)

    def tok(kind, start, end, **kw):
        toks.append(Token(kind, source[start:end],
                          Span(base + start, base + end), **kw))

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue

        if source.startswith("(*", i):
            start = i
            is_annot = source.startswith("(*@", i)
            depth, j = 1, i + (3 if is_annot else 2)
            while j < n and depth:
                if source.startswith("(*", j):
                    depth += 1; j += 2
                elif source.startswith("*)", j):
                    depth -= 1; j += 2
                else:
                    j += 1
            if depth:
                return [], [error(Category.PARSE, "unterminated comment",
                                  Span(base + start, base + n))]
            if is_annot:
                payload_start = start + 3
                tok(T.ANNOTATION, start, j,
                    payload=source[payload_start:j - 2],
                    payload_offset=base + payload_start)
            i = j
            continue

        if ch in OWNS_ARROWS:
            tok(T.OWNS, i, i + 1)
            i += 1
            continue

        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tok(T.INT, i, j)
            i = j
            continue

        if _ident_start(ch):
            j = i
            while j < n and _ident_cont(source[j]):
                j += 1
            word = source[i:j]
            kind = KEYWORDS.get(word)
            if kind is None and spec_mode:
                kind = SPEC_KEYWORDS.get(word)
            tok(kind or T.IDENT, i, j)
            i = j
            continue

        for text, kind in PUNCT:
            if source.startswith(text, i):
                tok(kind, i, i + len(text))
                i += len(text)
                break
        else:
            return [], [error(Category.PARSE, f"unexpected character {ch!r}",
                              Span(base + i, base + i + 1))]

    toks.append(Token(T.EOF, "", Span(base + n, base + n)))
    return toks, []
