"""Lexer for the OCaml-light surface language.

A file is lexed in one pass into a `Tokens` stream: parallel lists of
token kinds, start offsets and texts, with no object per token.  One
`split` of the whole file over a pattern of all tokens yields the gaps
and the token texts alternately; offsets are the running sums of their
lengths.  The pattern first tests that the next character is not a
blank.  No token starts with one, so the test only filters, and a blank
costs that one test instead of a failed try of every alternative.  Every
gap outside the comments must be ASCII space, tab, CR or LF, so a no-break
space or a form feed is an unexpected character.  The tokens are integers
(runs of the Unicode decimal digits that `int` reads, so `²` is
unexpected), identifiers (a letter or `_`, then letters, digits, `_` and
`'`), the punctuation in PUNCT, longest match first, and the comment
edges `(*`, `(*@` and `*)`.

No other token holds a `(`, `*` or `)` after its first character, so the
edges are tokens of their own.  The kind of an edge, and in program mode
of a contract keyword, is deferred until `lex` knows where the token
stands.  `list.index` finds the next deferred token, and each costs a
constant number of steps, so a file pays per comment and keyword, not
per token.  A keyword is a spec keyword in a payload and an identifier
elsewhere.  A `clean` file (ASCII, every gap blank) holds no unexpected
character, so only another file has the code and payload between edges
searched for one.  Plain comments are dropped, and a `*)` outside every
comment is a STAR and an RPAREN.  An annotation ``(*@ ... *)`` stays in
place as a slice of the stream: its `(*@` becomes an ANNOTATION token
whose text is the whole comment, its payload tokens take spec-mode
kinds, and its `*)` becomes the EOF that ends the payload.  A lexical
error in a payload does not fail the file: the payload tokens are
dropped and the error is kept in `Tokens.errors` under the ANNOTATION
token's index, for the parser to report if it reaches that annotation.

In spec mode, the contract keywords (requires, ensures, predicate,
function, lemma, fold, unfold, apply) are hard keywords; in program mode
they are plain identifiers.  `lex(..., spec_mode=True)` lexes one payload
on its own, as the file's lexer does inline; an annotation nested in a
payload stays a single ANNOTATION token.  Token kinds are plain ints,
the constants of class `T`; compare them with `==`.  A token's kind is
one probe of a `_KindTable` made per call, which calls into Python once
per distinct identifier or integer, not once per token.
"""

from __future__ import annotations

import re
from itertools import accumulate, islice

from .diagnostics import Category, Diagnostic, error


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
    "type": T.TYPE, "of": T.OF, "mutable": T.MUTABLE, "let": T.LET,
    "in": T.IN, "if": T.IF, "then": T.THEN, "else": T.ELSE,
    "match": T.MATCH, "with": T.WITH, "true": T.TRUE, "false": T.FALSE}

SPEC_KEYWORDS = {
    "requires": T.REQUIRES, "ensures": T.ENSURES, "predicate": T.PREDICATE,
    "function": T.FUNCTION, "lemma": T.LEMMA, "fold": T.FOLD,
    "unfold": T.UNFOLD, "apply": T.APPLY}

# The ASCII digraph and the unicode wiggle arrows all denote ownership.
PUNCT = {
    "~>": T.OWNS, "⇝": T.OWNS, "↝": T.OWNS, "⤳": T.OWNS, "<-": T.LARROW,
    "->": T.ARROW, "++": T.PLUSPLUS, "&&": T.AMPAMP, "||": T.BARBAR,
    "..": T.DOTDOT, "<>": T.NEQ, "<=": T.LE, ">=": T.GE, "(": T.LPAREN,
    ")": T.RPAREN, "{": T.LBRACE, "}": T.RBRACE, "[": T.LBRACKET,
    "]": T.RBRACKET, ";": T.SEMI, ":": T.COLON, ",": T.COMMA, ".": T.DOT,
    "|": T.PIPE, "=": T.EQ, "<": T.LT, ">": T.GT, "+": T.PLUS,
    "-": T.MINUS, "*": T.STAR, "/": T.SLASH}

# Kind by token text, for all but identifiers and integers; "" is the EOF.
# The kind of a comment edge, and in program mode of a contract keyword, is
# `_DEFERRED` until `lex` knows where the token stands.
_DEFERRED = -1
_KINDS = {**PUNCT, **KEYWORDS, "": T.EOF,
          **dict.fromkeys(("(*", "(*@", "*)", *SPEC_KEYWORDS), _DEFERRED)}
_SPEC_KINDS = {**_KINDS, **SPEC_KEYWORDS}


class _KindTable(dict):
    """Kind by token text, seeded with `_KINDS` or `_SPEC_KINDS`; another
    text is learned on first sight as INT if decimal, else IDENT."""
    __slots__ = ()

    def __missing__(self, text: str) -> int:
        kind = self[text] = T.INT if text.isdecimal() else T.IDENT
        return kind


# One token, after a test that skips a blank at once, in an order where most
# positions fail fast: an ASCII identifier, punctuation grouped by first
# character, longest first, an integer, or any other identifier.  `split`
# keeps the group: [gap, token, ..., token, gap].
_SPLIT = re.compile(r"(?=[^ \t\r\n])([A-Za-z_][\w']*|\((?:\*@?)?|\*\)?"
                    r"|<[-=>]?|->?|\+\+?|\.\.?|\|\|?|>=?|&&|~>|[)\[\]{};:,=/]"
                    r"|⇝|↝|⤳|\d+|[^\W\d][\w']*)")
_BLANK = " \t\r\n"


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


def lex(source: str, base: int = 0, spec_mode: bool = False
        ) -> tuple[Tokens, list[Diagnostic]]:
    """Tokenize `source`, its offsets shifted by `base` (so that a payload
    lexed on its own keeps file positions).  Returns (empty stream,
    [diagnostic]) on a lexical error outside every annotation.  Only a
    file that is not `clean` calls `first_bad`, once per region."""
    parts = _SPLIT.split(source)
    texts = parts[1::2]
    texts.append("")  # the EOF
    starts = list(islice(accumulate(map(len, parts), initial=base),
                         1, None, 2))
    table = _KindTable(_SPEC_KINDS if spec_mode else _KINDS)
    kinds = list(map(table.__getitem__, texts))
    clean = source.isascii() and not "".join(parts[::2]).strip(_BLANK)

    def first_bad(lo: int, hi: int) -> Diagnostic | None:
        """The first character that starts no token in tokens lo..hi-1 and
        their gaps: in a gap, or at an identifier's start (`½` or `²`)."""
        g = slice(2 * lo, 2 * hi + 1, 2)
        if (not "".join(parts[g]).strip(_BLANK)
                and "".join(texts[lo:hi]).isascii()):
            return None
        bad = [end - len(gap.lstrip(_BLANK))  # gap t ends at token t
               for end, gap in zip(starts[lo:hi + 1], parts[g])
               if gap.strip(_BLANK)]
        bad += [starts[t] for t in range(lo, hi) if kinds[t] == T.IDENT
                and not (texts[t][0].isalpha() or texts[t][0] == "_")]
        at = min(bad, default=None)
        return None if at is None else error(
            Category.PARSE, f"unexpected character {source[at - base]!r}",
            at)

    # (lo, hi, new, error): tokens lo..hi-1 become `new`; error is at lo - 1
    edits: list[tuple] = []
    eof = len(kinds) - 1
    kinds.append(_DEFERRED)  # the one found when none is left
    # code: the first token of the code or payload being read
    depth, code, inline, at = 0, 0, False, -1
    while (at := kinds.index(_DEFERRED, at + 1)) < eof:  # in token order
        text = texts[at]
        if text[0] not in "(*":  # a contract keyword
            kinds[at] = (SPEC_KEYWORDS[text] if depth == 1 and inline
                         else T.IDENT)
            continue
        if text != "*)":  # `(*` or `(*@`
            depth += 1
            if depth == 1:
                first = at
                if not clean and (diag := first_bad(code, first)):
                    return Tokens(), [diag]
                inline = not spec_mode and text == "(*@"
                code, bad, mark = first + 1, None, len(edits)
            elif depth == 2 and inline:
                nested = at
                bad = bad or not clean and first_bad(code, nested)
            continue
        last, depth = at, depth - 1
        if depth > 1 or depth == 1 and not inline:  # dropped with its parent
            continue
        if depth < 0:  # an edge `*)` outside every comment
            depth, star = 0, starts[last]
            edits.append((last, last + 1, [(T.STAR, star, "*"),
                                           (T.RPAREN, star + 1, ")")], None))
            continue
        lo = nested if depth else first
        comment = source[starts[lo] - base:starts[last] + 2 - base]
        if depth == 0 and inline:
            bad = bad or not clean and first_bad(code, last)
            if bad:  # keep only the ANNOTATION token and the EOF
                del edits[mark:]
                edits.append((first + 1, last, [], bad))
            texts[first], texts[last] = comment, ""
            kinds[first], kinds[last] = T.ANNOTATION, T.EOF
        else:  # drop the comment; an annotation stays one token
            edits.append((lo, last + 1, [(T.ANNOTATION, starts[lo], comment)]
                          if texts[lo] == "(*@" else [], None))
        code = last + 1
    kinds.pop()
    if depth:
        return Tokens(), [error(Category.PARSE, "unterminated comment",
                                starts[first])]
    if not clean and (diag := first_bad(code, eof)):
        return Tokens(), [diag]
    toks = Tokens()
    if not edits:
        toks.kinds, toks.starts, toks.texts = kinds, starts, texts
        return toks, []
    done = 0
    for lo, hi, new, diag in edits + [(len(texts), 0, [], None)]:
        toks.kinds += kinds[done:lo]
        toks.starts += starts[done:lo]
        toks.texts += texts[done:lo]
        if diag:
            toks.errors[len(toks) - 1] = diag
        for tok in new:
            toks.add(*tok)
        done = hi
    return toks, []
