"""Recursive-descent parser for OCaml-light modules and Gospel annotations.

Token kinds are the plain ints of `lexer.T`, compared with `==`.
Binary operators are parsed by precedence climbing (Pratt's "Top Down
Operator Precedence") in one frame per expression, `_P.parse_binary`,
whose loop keeps the right operands it has yet to finish on a stack: no
chain, `++` included, takes a frame per element.  Its operators come
from `_BINOPS`, derived from the operator table `viper_ast.BINARY` that
every stage reads.

The parser reads the file's one token stream (`lexer.Tokens`) by index:
`kinds[pos]`, `texts[pos]`, and `starts[pos]` where a node keeps its
position, which is its first token's start offset.  Every path, in
declarations, types, statements, annotations and expressions alike,
tests `kinds[pos]` inline and steps with `pos += 1`; there is no `at` or
`next` helper, and `expect` and `ident` are called where a token cannot
be tested in place or only to raise the error on a miss.  An annotation
is the slice of that stream from its ANNOTATION token to the EOF that
ends its payload, which the lexer has already lexed in spec mode;
nothing is lexed here, and the module parser reads the slice with its
own cursor.  A payload is dispatched on its leading keyword: predicate /
function / lemma introduce top-level ghost declarations, fold / unfold /
apply are ghost commands legal only inside a function body, and anything
else is parsed as a contract attached to the preceding function.

A block is a function body, a match arm, a parenthesised statement, or
an `if` branch that starts with `let`; it holds a flat list of items.  A
local `let x : t = e in` is one item of its block, and `x` is bound from
the next item to the end of that block: `if c then let x : t = e in a; b`
keeps `b` in the then-branch, and a name bound inside parentheses is
unbound after the `)`.  Ghost commands that open an `if` branch belong to
it, with the item after them, as OCaml reads them as comments.

The explicit-typing rule is enforced here: a local `let` without a type
annotation is a parse diagnostic.  Sequence indexing and slicing only
exist in spec mode; in program mode a bracket group after a call denotes
ghost arguments.

The parser checks syntax and where each annotation stands, and nothing
about names: the translator resolves and checks every name.  The module
it returns lists the ghost commands of the function bodies, as the parser
placed them in their blocks, so no second walk over the bodies looks for
them.  Only a syntax error stops the parse.  The other errors (an untyped
local, an annotation that does not parse or stands where none may) leave
out what they name, and the parse goes on to return its module beside
them, so that the translator can still check the module's names.
"""

from __future__ import annotations

import re

from .diagnostics import Category, Diagnostic, error
from .lexer import PUNCT, T, Tokens, lex
from .surface import (AnnotationPayload, AppE, Assertion, AssignE, BinE,
                      BoolLit, BoolT, ContractSpec, CtorDef, CtorE, FieldDef,
                      FieldE, FunDecl, GhostCommand,
                      GhostKind, IfA, IfE, IndexE, IntLit, IntT,
                      LemmaDef, LetIn, LetPatA, LogicalFunctionDef, MatchArm,
                      MatchE, NamedT, OwnsA, PredicateDef, PureA,
                      RecordAlloc, RecordKind, SeqE, SeqT, SepA, SliceFromE,
                      SurfaceDecl, SurfaceExpr, SurfaceModule, SurfaceType,
                      TypeDecl, UnE, UnitLit, VarE, VariantKind)
from .viper_ast import BINARY, CMP, LEVELS, LOW, UNARY


class ParseError(Exception):
    def __init__(self, diag: Diagnostic):
        super().__init__(diag.message)
        self.diag = diag


class TooDeep(ParseError):
    """Nesting past MAX_NESTING: a limit of this parser, not a sign that
    the tokens were read the wrong way, so a parser that would rewind and
    read them another way lets it pass."""


# Binary operators by token kind: (operator, precedence, floors of the left
# and right operands), as `viper_ast.LEVELS` has them.
_BINOPS = {PUNCT[op.surface]: (op.surface, *LEVELS[op.viper]) for op in BINARY}
# the same, indexed by token kind, None for a kind that is no operator
_OPERATORS = [_BINOPS.get(kind) for kind in range(T.EOF + 1)]
_ATOM_START = frozenset((T.INT, T.TRUE, T.FALSE, T.IDENT, T.LPAREN, T.LBRACE))
# what may extend a term into a longer one
_TERM_TAIL = _ATOM_START | {T.LBRACKET, T.DOT}

# Expressions, prefix minus, assertion atoms, and parenthesised, `if` and
# `match` statements nest at most this deep inside the outermost one, so the
# recursive parser and the stages after it stay inside Python's default
# recursion limit.  Chains (`&&` parts, block items, lets too) are lists.
MAX_NESTING = 64


class _P:
    """Token cursor with shared expression machinery.

    `spec` toggles the two grammar dialects: spec terms have sequence
    indexing/slicing, program terms have ghost-argument brackets.
    `depth` counts open nesting levels; a ParseError leaves it raised, so
    whoever catches one and parses on restores it together with `pos`.
    Every path reads `kinds[pos]` inline, as a call costs more than its
    test: it tests the token it needs and steps past it with `pos += 1`.
    `ident` and `expect` step past a token that the caller has not
    tested; where it has, it calls them only to raise the error on a miss,
    as `parse_expr` and `_assertion` call `enter` only past MAX_NESTING.
    `parse_binary` reads a name or field path `x.f.g` itself.  Every slice
    the parser reads ends in an EOF, and the cursor steps only past a
    token it has tested, never past that EOF, so a lookahead of one from
    any other token stays in the slice.
    """

    def __init__(self, tokens: Tokens):
        self.toks = tokens
        self.kinds = tokens.kinds
        self.starts = tokens.starts
        self.texts = tokens.texts
        self.pos = 0
        self.spec = False
        self.depth = 0

    # -- cursor helpers ----------------------------------------------------

    def expect(self, kind: int, what: str) -> int:
        """Step past a token of `kind`, which is never EOF; return its
        index."""
        i = self.pos
        if self.kinds[i] != kind:
            self.fail(f"expected {what}, found "
                      f"{self.texts[i] or 'end of input'!r}")
        self.pos = i + 1
        return i

    def fail(self, message: str, at: int | None = None) -> None:
        """Raise a parse error at the token of index `at`, by default the
        one at the cursor."""
        raise ParseError(error(Category.PARSE, message,
                               self.starts[self.pos if at is None else at]))

    def ident(self, what: str = "identifier") -> str:
        """Step past an identifier; return its text."""
        i = self.pos
        if self.kinds[i] != T.IDENT:
            self.expect(T.IDENT, what)  # raises
        self.pos = i + 1
        return self.texts[i]

    def enter(self) -> None:
        """Open one nesting level; the caller closes it with depth -= 1."""
        if self.depth > MAX_NESTING:
            raise TooDeep(error(Category.PARSE,
                                f"nesting deeper than {MAX_NESTING} levels",
                                self.starts[self.pos]))
        self.depth += 1

    # -- types -------------------------------------------------------------

    def parse_type(self) -> SurfaceType:
        at = self.pos
        name = self.ident("type name")
        base: SurfaceType
        if name == "int":
            base = IntT()
        elif name == "bool":
            base = BoolT()
        else:
            base = NamedT(name)
        pos = at + 1
        if self.kinds[pos] == T.IDENT and self.texts[pos] == "sequence":
            self.pos = pos + 1
            if not isinstance(base, IntT):
                self.fail("only int sequences are supported", at)
            return SeqT()
        return base

    # -- expressions -------------------------------------------------------

    def parse_expr(self) -> SurfaceExpr:
        if self.depth > MAX_NESTING:
            self.enter()  # raises TooDeep
        self.depth += 1
        e = self.parse_binary(LOW)
        self.depth -= 1
        return e

    def parse_binary(self, floor: int, term: SurfaceExpr | None = None
                     ) -> SurfaceExpr:
        """Operands and the operators of precedence `floor` and tighter
        between them, by precedence climbing in one loop.  An operand is a
        negation, or a postfix term applied to the atoms after it when it
        is a bare name.  A name or field path `x.f.g` is read here, and
        `parse_postfix` goes on from it only when an atom, `[` or `.`
        follows.  `term`, if given, is a parenthesised term that ends at
        the cursor: the first operand goes on from it."""
        kinds, texts, starts = self.kinds, self.texts, self.starts
        # (floor, left operand, operator) of each right operand being read
        pending: list[tuple] = []
        while True:
            pos = self.pos
            if (kinds[pos] == T.IDENT and term is None
                    and not texts[pos][0].isupper()):
                term = VarE(texts[pos], starts[pos])
                pos += 1
                while kinds[pos] == T.DOT and kinds[pos + 1] == T.IDENT:
                    term = FieldE(term, texts[pos + 1], term.span)
                    pos += 2
                self.pos = pos
            if term is not None and kinds[pos] not in _TERM_TAIL:
                e = term
            elif term is None and kinds[pos] == T.MINUS:
                e = self.parse_unary()
            else:
                e = self.parse_postfix(term)
                if (kinds[self.pos] in _ATOM_START
                        and isinstance(e, (VarE, CtorE))):
                    e = self.parse_app(e)
            term = None
            level = UNARY  # of `e`, the next operator's left operand
            while True:
                op = _OPERATORS[kinds[self.pos]]
                # a comparison after one is below its left floor: left to
                # the caller, which rejects it
                if op is not None and op[1] >= floor and op[2] <= level:
                    break
                if not pending:
                    return e
                floor, left, op = pending.pop()
                e = BinE(op[0], left, e, left.span)
                level = op[1]
            self.pos += 1
            pending.append((floor, e, op))
            floor = op[3]

    def parse_unary(self) -> SurfaceExpr:
        """A prefix minus and its operand, itself possibly negated."""
        start = self.starts[self.pos]
        self.pos += 1
        self.enter()
        e = UnE("-", self.parse_binary(UNARY), span=start)
        self.depth -= 1
        return e

    def parse_app(self, head: VarE | CtorE) -> AppE:
        """`head` applied to the atoms at the cursor: `f x (y + 1) z.a`,
        `f (x, y)` or `f ()`."""
        kinds = self.kinds
        args: list[SurfaceExpr] = []
        done = False
        while kinds[self.pos] in _ATOM_START:
            if kinds[self.pos] == T.LPAREN:
                inner, done = self._paren_args()
                args.extend(inner)
                if done:  # `f (x, y)` and `f ()` take nothing after them
                    break
            else:
                args.append(self.parse_postfix())
        app = AppE(head.name, args, span=head.span)
        if not self.spec and not done:
            while kinds[self.pos] == T.LBRACKET:
                self.pos += 1
                was = self.spec
                self.spec = True
                app.ghost_args.append(self.parse_expr())
                self.spec = was
                self.expect(T.RBRACKET, "']'")
        return app

    def _paren_args(self) -> tuple[list[SurfaceExpr], bool]:
        """The group at the cursor: ([a, b], True) for `(a, b)`, ([], True)
        for `()` and ([e], False) for one curried argument `(e)`."""
        kinds = self.kinds
        self.pos += 1
        if kinds[self.pos] == T.RPAREN:
            self.pos += 1
            return [], True
        args = [self.parse_expr()]
        closed = kinds[self.pos] == T.COMMA
        while kinds[self.pos] == T.COMMA:
            self.pos += 1
            args.append(self.parse_expr())
        self.expect(T.RPAREN, "')'")
        return args, closed

    def parse_postfix(self, e: SurfaceExpr | None = None) -> SurfaceExpr:
        """An atom, or the term `e` that ends at the cursor, then `.field`
        and, in spec terms, `[i]` and `[i ..]`."""
        kinds = self.kinds
        pos = self.pos
        kind = kinds[pos]
        if e is not None:
            pass
        elif kind == T.LPAREN and kinds[pos + 1] != T.RPAREN:
            self.pos = pos + 1
            e = self.parse_expr()
            self.expect(T.RPAREN, "')'")
        elif kind in _ATOM_START:
            text = self.texts[pos]
            span = self.starts[pos]
            if kind == T.LBRACE:
                e = self._record_body(None, span)
            else:
                self.pos = pos + 1
                if kind == T.IDENT:
                    if not text[0].isupper():
                        e = VarE(text, span)
                    elif kinds[pos + 1] == T.LBRACE:
                        e = self._record_body(text, span)
                    else:
                        e = CtorE(text, span)
                elif kind == T.INT:
                    e = IntLit(int(text), span)
                elif kind == T.LPAREN:
                    self.pos = pos + 2
                    e = UnitLit(span)  # `()`
                else:
                    e = BoolLit(kind == T.TRUE, span)
        else:
            self.fail("expected an expression, found "
                      f"{self.texts[pos] or 'end of input'!r}")
        while True:
            kind = kinds[self.pos]
            if kind == T.DOT:
                pos = self.pos + 1
                if kinds[pos] != T.IDENT:
                    self.pos = pos
                    self.ident("field name")  # raises
                self.pos = pos + 1
                e = FieldE(e, self.texts[pos], e.span)
            elif kind == T.LBRACKET and self.spec:
                self.pos += 1
                if kinds[self.pos] == T.DOTDOT:
                    self.fail("prefix slices are not part of the surface language")
                idx = self.parse_expr()
                if kinds[self.pos] == T.DOTDOT:
                    self.pos += 1
                    self.expect(T.RBRACKET, "']'")
                    e = SliceFromE(e, idx, span=e.span)
                else:
                    self.expect(T.RBRACKET, "']'")
                    e = IndexE(e, idx, span=e.span)
            else:
                return e

    def _record_body(self, ctor: str | None, span: int) -> RecordAlloc:
        """The `{ f = e; ... }` at the cursor, its `{` already tested."""
        kinds, texts = self.kinds, self.texts
        inits: list[tuple[str, SurfaceExpr]] = []
        pos = self.pos + 1
        while kinds[pos] != T.RBRACE:
            if kinds[pos] != T.IDENT or kinds[pos + 1] != T.EQ:
                self.pos = pos
                self.ident("field name")
                self.expect(T.EQ, "'='")  # raises
            self.pos = pos + 2
            inits.append((texts[pos], self.parse_expr()))
            pos = self.pos
            if kinds[pos] == T.SEMI:
                pos += 1
            elif kinds[pos] != T.RBRACE:
                self.fail("expected ';' or '}' in record literal")
        self.pos = pos + 1
        return RecordAlloc(ctor, inits, span=span)


# --------------------------------------------------------------------------
# annotation parsing

_GHOST_KINDS = {T.FOLD: GhostKind.FOLD, T.UNFOLD: GhostKind.UNFOLD,
                T.APPLY: GhostKind.APPLY}


def _annotation_payload(p: _P, span: int):
    """The payload at the cursor, which stands just past its ANNOTATION
    token, up to the EOF that ends it."""
    kinds = p.kinds
    kind = kinds[p.pos]
    if kind in _GHOST_KINDS:
        p.pos += 1
        target = p.ident("fold/unfold/apply target")
        payload = GhostCommand(_GHOST_KINDS[kind], target, _command_args(p),
                               span=span)
    elif kind == T.PREDICATE:
        p.pos += 1
        name = p.ident("predicate name")
        params = _spec_params(p)
        p.expect(T.EQ, "'='")
        payload = PredicateDef(name, params, _assertion(p), span=span)
    elif kind == T.FUNCTION:
        p.pos += 1
        name = p.ident("function name")
        params = _spec_params(p)
        p.expect(T.COLON, "':'")
        ret = p.parse_type()
        p.expect(T.EQ, "'='")
        payload = LogicalFunctionDef(name, params, ret, p.parse_expr(),
                                     span=span)
    elif kind == T.LEMMA:
        p.pos += 1
        name = p.ident("lemma name")
        params = _spec_params(p)
        req, ens = _clauses(p)
        payload = LemmaDef(name, params, req, ens, span=span)
    else:
        payload = _contract(p, span)
    if kinds[p.pos] != T.EOF:
        p.fail(f"unexpected {p.texts[p.pos]!r} at end of annotation")
    return payload


def _spec_params(p: _P) -> list[tuple[str, SurfaceType]]:
    kinds = p.kinds
    params = []
    while kinds[p.pos] == T.LPAREN:
        p.pos += 1
        name = p.ident("parameter name")
        p.expect(T.COLON, "':'")
        params.append((name, p.parse_type()))
        p.expect(T.RPAREN, "')'")
    return params


def _command_args(p: _P) -> list[SurfaceExpr]:
    """`(a, b)`, `()` or curried arguments; only the first may be a list."""
    kinds = p.kinds
    args: list[SurfaceExpr] = []
    if kinds[p.pos] == T.LPAREN:
        args, closed = p._paren_args()
        if closed:
            return args
    while (kind := kinds[p.pos]) in _ATOM_START:
        if kind == T.LPAREN:
            p.pos += 1
            args.append(p.parse_expr())
            p.expect(T.RPAREN, "')'")
        else:
            args.append(p.parse_postfix())
    return args


def _contract(p: _P, span: int) -> ContractSpec:
    kinds, texts = p.kinds, p.texts
    first = p.ident("contract header")
    results: list[str] = []
    if kinds[p.pos] in (T.COMMA, T.EQ):
        results = [first]
        while kinds[p.pos] == T.COMMA:
            p.pos += 1
            results.append(p.ident("result name"))
        p.expect(T.EQ, "'='")
        fn = p.ident("function name")
    else:
        fn = first
    param_names: list[str] = []
    while True:
        pos = p.pos
        if kinds[pos] == T.LPAREN and kinds[pos + 1] == T.RPAREN:
            p.pos = pos + 2  # `()`: explicitly no parameters
        elif kinds[pos] == T.IDENT:
            param_names.append(texts[pos])
            p.pos = pos + 1
        else:
            break
    ghost_params: list[tuple[str, SurfaceType]] = []
    while kinds[p.pos] == T.LBRACKET:
        p.pos += 1
        name = p.ident("ghost parameter name")
        p.expect(T.COLON, "':'")
        ghost_params.append((name, p.parse_type()))
        p.expect(T.RBRACKET, "']'")
    req, ens = _clauses(p)
    return ContractSpec(results, fn, param_names, ghost_params, req, ens,
                        span=span)


def _clauses(p: _P) -> tuple[list[Assertion], list[Assertion]]:
    kinds = p.kinds
    req: list[Assertion] = []
    ens: list[Assertion] = []
    while (kind := kinds[p.pos]) == T.REQUIRES or kind == T.ENSURES:
        p.pos += 1
        (req if kind == T.REQUIRES else ens).append(_assertion(p))
    return req, ens


# -- assertions -------------------------------------------------------------

_EXPR_CONT = frozenset((T.DOT, T.LBRACKET, T.OWNS,
                        *(k for k, op in _BINOPS.items() if op[1] >= CMP)))


def _assertion(p: _P) -> Assertion:
    # one nesting level for the whole chain: parentheses count, length not
    if p.depth > MAX_NESTING:
        p.enter()  # raises TooDeep
    p.depth += 1
    kinds = p.kinds
    parts = [_assertion_atom(p)]
    while kinds[p.pos] == T.AMPAMP:
        p.pos += 1
        parts.append(_assertion_atom(p))
    p.depth -= 1
    return parts[0] if len(parts) == 1 else SepA(parts, span=parts[0].span)


def _assertion_atom(p: _P) -> Assertion:
    kinds = p.kinds
    pos = p.pos
    kind = kinds[pos]
    if kind == T.IF:
        p.pos = pos + 1
        cond = p.parse_binary(CMP)
        p.expect(T.THEN, "'then'")
        then = _assertion(p)
        p.expect(T.ELSE, "'else'")
        return IfA(cond, then, _assertion(p), span=p.starts[pos])
    if kind == T.LET:
        p.pos = at = pos + 1
        ctor = p.ident("constructor pattern")
        if not ctor[0].isupper():
            p.fail("assertion let expects a constructor pattern", at)
        binder = p.ident("binder name")
        p.expect(T.EQ, "'='")
        scrut = p.parse_binary(CMP)
        p.expect(T.IN, "'in'")
        return LetPatA(ctor, binder, scrut, _assertion(p), span=p.starts[pos])
    term = None
    if kind == T.LPAREN:
        depth = p.depth
        p.pos = pos + 1
        try:
            inner = _assertion(p)
            p.expect(T.RPAREN, "')'")
            if isinstance(inner, PureA):
                term = inner.expr  # `(e)`: the expression goes on from it
            elif kinds[p.pos] not in _EXPR_CONT:
                return inner
        except TooDeep:
            raise
        except ParseError:
            pass
        if term is None:
            p.pos, p.depth = pos, depth
    e = p.parse_binary(CMP, term)
    if kinds[p.pos] != T.OWNS:
        return PureA(e, span=e.span)
    p.pos += 1
    p.expect(T.LBRACE, "'{'")
    fields = [p.ident("field name")]
    while kinds[p.pos] == T.SEMI:
        p.pos += 1
        fields.append(p.ident("field name"))
    p.expect(T.RBRACE, "'}'")
    return OwnsA(e, fields, span=e.span)


# --------------------------------------------------------------------------
# module parsing

_GHOST_LEADS = ("fold", "unfold", "apply")
# the keyword and name that open a declaring annotation's text
_DECL_HEAD = re.compile(r"\(\*@\s*(predicate|function|lemma)\s+"
                        r"([^\W\d][\w']*)")


def _annotation_is_ghost(text: str) -> bool:
    """Whether an annotation (its whole text, `(*@ ... *)`) whose payload
    does not parse starts like a ghost command."""
    head = text[3:-2].split(None, 1)
    return bool(head) and head[0] in _GHOST_LEADS


_STMT_END = frozenset((T.EOF, T.RPAREN, T.PIPE, T.TYPE, T.ELSE))


class _ModuleParser(_P):
    def __init__(self, tokens: Tokens):
        super().__init__(tokens)
        self.diags: list[Diagnostic] = []
        self.payloads: dict[int, tuple] = {}
        # every ghost command placed in a block, for the translator
        self.ghosts: list[GhostCommand] = []
        self.unparsed: dict[str, str] = {}  # see SurfaceModule

    def _annotation(self) -> tuple[AnnotationPayload | None, list[Diagnostic]]:
        """The payload of the annotation at the cursor and its diagnostics:
        the lexical error found in the payload, or the one that stopped its
        parse.  The payload's span is the ANNOTATION token's.  Its tokens
        are read by this cursor, in spec terms, from nesting depth 0, and
        the cursor comes back to the ANNOTATION token.  Each annotation is
        parsed once: one that ends a body is parsed there and placed by
        parse_module.  Whoever steps past it reports its diagnostics."""
        at = self.pos
        found = self.payloads.get(at)
        if found is not None:
            return found
        if at in self.toks.errors:
            found = None, [self.toks.errors[at]]
        else:
            spec, depth = self.spec, self.depth
            self.pos, self.spec, self.depth = at + 1, True, 0
            try:
                found = _annotation_payload(self, self.starts[at]), []
            except ParseError as e:
                found = None, [e.diag]
            self.pos, self.spec, self.depth = at, spec, depth
        self.payloads[at] = found
        return found

    # statement sequences ---------------------------------------------------

    def _block(self, empty: str, opener: int | None = None
               ) -> SurfaceExpr | GhostCommand:
        """A block that must not be empty: its one item, or a SeqE of its
        items.  A block opened by `(` (the index of that token) ends at the
        matching `)`, and its SeqE takes the `(` token's span."""
        items = self._stmt_seq()
        if opener is not None:
            self.expect(T.RPAREN, "')'")
        if not items:
            self.fail(empty)
        if len(items) == 1:
            return items[0]
        return SeqE(items, span=items[0].span if opener is None
                    else self.starts[opener])

    def _stmt_seq(self) -> list[SurfaceExpr | GhostCommand]:
        """The items of a block, up to the token that ends it.  A `let … in`
        is one item; no `;` may follow its `in`."""
        items: list[SurfaceExpr | GhostCommand] = []
        kinds = self.kinds
        while True:
            kind = kinds[self.pos]
            if kind == T.ANNOTATION:
                if not self._ghost(items):
                    break  # a contract or the next top-level declaration
                continue
            if kind in _STMT_END:
                break
            item = self._stmt_item()
            if item is None:
                break
            items.append(item)
            if not isinstance(item, LetIn):
                while kinds[self.pos] == T.SEMI:
                    self.pos += 1
        if items and isinstance(items[-1], LetIn):
            self.fail("expected an expression after 'in'")
        return items

    def _ghost(self, items: list) -> bool:
        """Step past the ghost command at the cursor, an annotation, and
        its payload, adding it to `items` if it parses; False, not moving,
        if it is none."""
        payload, diags = self._annotation()
        if not (_annotation_is_ghost(self.texts[self.pos]) if payload is None
                else isinstance(payload, GhostCommand)):
            return False
        self.pos = self.kinds.index(T.EOF, self.pos + 1) + 1
        self.diags.extend(diags)
        if payload is not None:
            items.append(payload)
            self.ghosts.append(payload)
        return True

    def _stmt_item(self) -> SurfaceExpr | None:
        kinds = self.kinds
        start = self.pos
        kind = kinds[start]
        if kind == T.LET:
            self.pos = at = start + 1
            name = self.ident("binder name")
            if name[0].isupper():
                self.fail("constructor patterns are only allowed in "
                          "assertions", at)
            typ = None
            if kinds[self.pos] == T.COLON:
                self.pos += 1
                typ = self.parse_type()
            self.expect(T.EQ, "'='")
            rhs = self.parse_expr()
            if kinds[self.pos] != T.IN:
                self.pos = start  # a new top-level declaration begins here
                return None
            if typ is None:
                self.diags.append(error(
                    Category.PARSE,
                    f"local '{name}' needs an explicit type annotation",
                    self.starts[at]))
            self.pos += 1
            return LetIn(name, typ, rhs, span=self.starts[start])
        if kind == T.MATCH:
            return self._match()
        if kind == T.IF:
            self.enter()
            self.pos = start + 1
            cond = self.parse_expr()
            self.expect(T.THEN, "'then'")
            then = self._branch()
            els = None
            if kinds[self.pos] == T.ELSE:
                self.pos += 1
                els = self._branch()
            self.depth -= 1
            return IfE(cond, then, els, span=self.starts[start])
        if kind == T.LPAREN and kinds[start + 1] != T.RPAREN:
            self.pos = start + 1
            self.enter()
            inner = self._block("empty parenthesized statement", opener=start)
            self.depth -= 1
            e = self.parse_postfix(inner)
        else:
            e = self.parse_expr()
        if kinds[self.pos] != T.LARROW:
            return e
        self.pos += 1
        if not isinstance(e, FieldE):
            self.fail("only fields can be assigned", self.pos - 1)
        return AssignE(e, self.parse_expr(), span=e.span)

    def _branch(self) -> SurfaceExpr:
        """An `if` branch: one item, or a block when it starts with `let`,
        after any ghost commands, which OCaml reads as comments."""
        kinds = self.kinds
        ghosts: list[GhostCommand] = []
        while kinds[self.pos] == T.ANNOTATION and self._ghost(ghosts):
            pass
        body = (self._block("expected a branch body")
                if kinds[self.pos] == T.LET else self._stmt_item())
        if not ghosts:
            return body
        items = body.items if isinstance(body, SeqE) else [body]
        return SeqE(ghosts + items, span=ghosts[0].span)

    def _match(self) -> MatchE:
        """The `match` at the cursor, its keyword already tested."""
        kinds, texts = self.kinds, self.texts
        self.enter()
        start = self.pos
        self.pos += 1
        scrut = self.parse_expr()
        self.expect(T.WITH, "'with'")
        arms: list[MatchArm] = []
        if kinds[self.pos] == T.PIPE:
            self.pos += 1
        while True:
            at = self.pos
            ctor = self.ident("constructor name")
            if not ctor[0].isupper():
                self.fail("match arms must start with a constructor", at)
            binder = None
            pos = at + 1
            if kinds[pos] == T.IDENT and not texts[pos][0].isupper():
                binder = texts[pos]
                pos += 1
            if kinds[pos] != T.ARROW:
                self.pos = pos
                self.expect(T.ARROW, "'->'")  # raises
            self.pos = pos + 1
            arms.append(MatchArm(ctor, binder,
                                 self._block("empty match arm"),
                                 span=self.starts[at]))
            if kinds[self.pos] != T.PIPE:
                break
            self.pos += 1
        self.depth -= 1
        return MatchE(scrut, arms, span=self.starts[start])

    # declarations ----------------------------------------------------------

    def parse_module(self) -> SurfaceModule:
        kinds = self.kinds
        decls: list[SurfaceDecl] = []
        while (kind := kinds[self.pos]) != T.EOF:
            if kind == T.TYPE:
                decls.append(self._type_decl())
            elif kind == T.LET:
                decls.append(self._fun_decl())
            elif kind == T.ANNOTATION:
                payload, diags = self._annotation()
                if payload is None and (
                        head := _DECL_HEAD.match(self.texts[self.pos])):
                    self.unparsed[head[2]] = head[1]
                self.pos = kinds.index(T.EOF, self.pos + 1) + 1
                self.diags.extend(diags)
                if payload is not None:
                    self._place_annotation(payload, decls)
            else:
                self.fail("expected a declaration, found "
                          f"{self.texts[self.pos]!r}")
        return SurfaceModule(decls, self.ghosts, self.unparsed)

    def _place_annotation(self, payload: AnnotationPayload,
                          decls: list[SurfaceDecl]) -> None:
        if isinstance(payload, (PredicateDef, LogicalFunctionDef, LemmaDef)):
            decls.append(payload)
        elif isinstance(payload, ContractSpec):
            host = decls[-1] if decls else None
            if not isinstance(host, FunDecl):
                self.diags.append(error(
                    Category.PARSE,
                    "contract annotation has no preceding function",
                    payload.span))
            elif host.spec is not None:
                self.diags.append(error(
                    Category.PARSE,
                    f"function '{host.name}' already has a contract",
                    payload.span))
            else:
                host.spec = payload
        else:
            self.diags.append(error(
                Category.PARSE,
                "ghost command outside a function body", payload.span))

    def _type_decl(self) -> TypeDecl:
        """The `type` declaration at the cursor, its keyword already
        tested."""
        start = self.pos
        self.pos = at = start + 1
        name = self.ident("type name")
        if name[0].isupper():
            self.fail("type names are lowercase", at)
        self.expect(T.EQ, "'='")
        if self.kinds[self.pos] == T.LBRACE:
            kind = self._record_kind()
        else:
            kind = self._variant()
        return TypeDecl(name, kind, span=self.starts[start])

    def _variant(self):
        kinds = self.kinds
        if kinds[self.pos] == T.PIPE:
            self.pos += 1
        ctors = [self._ctor()]
        while kinds[self.pos] == T.PIPE:
            self.pos += 1
            ctors.append(self._ctor())
        return VariantKind(ctors)

    def _ctor(self) -> CtorDef:
        at = self.pos
        name = self.ident("constructor name")
        if not name[0].isupper():
            self.fail("constructor names are capitalized", at)
        payload: list[FieldDef] = []
        if self.kinds[self.pos] == T.OF:
            self.pos += 1
            payload = self._record_kind().fields
        return CtorDef(name, payload, span=self.starts[at])

    def _record_kind(self) -> RecordKind:
        kinds, texts = self.kinds, self.texts
        start = self.expect(T.LBRACE, "'{'")
        fields: list[FieldDef] = []
        while (kind := kinds[self.pos]) != T.RBRACE:
            at = self.pos
            mutable = kind == T.MUTABLE
            if mutable:
                at += 1
            if kinds[at] != T.IDENT or kinds[at + 1] != T.COLON:
                self.pos = at
                self.ident("field name")
                self.expect(T.COLON, "':'")  # raises
            self.pos = at + 2
            fields.append(FieldDef(texts[at], self.parse_type(), mutable,
                                   span=self.starts[at]))
            kind = kinds[self.pos]
            if kind == T.SEMI:
                self.pos += 1
            elif kind != T.RBRACE:
                self.fail("expected ';' or '}' in record declaration")
        self.pos += 1
        if not fields:
            self.fail("record declarations need at least one field", start)
        return RecordKind(fields)

    def _fun_decl(self) -> FunDecl:
        """The `let` declaration at the cursor, its keyword already
        tested."""
        kinds, texts = self.kinds, self.texts
        start = self.pos
        self.pos += 1
        name = self.ident("function name")
        params: list[tuple[str, SurfaceType]] = []
        while kinds[self.pos] == T.LPAREN:
            pos = self.pos + 1
            if kinds[pos] == T.RPAREN:
                self.pos = pos + 1
                continue  # unit parameter: contributes nothing
            if kinds[pos] != T.IDENT or kinds[pos + 1] != T.COLON:
                self.pos = pos
                pname = self.ident("parameter name")
                self.expect(T.COLON,
                            f"a type annotation on parameter '{pname}'")
            self.pos = pos + 2
            ptype = self.parse_type()
            if kinds[self.pos] != T.RPAREN:
                self.expect(T.RPAREN, "')'")  # raises
            self.pos += 1
            params.append((texts[pos], ptype))
        ret = None
        if kinds[self.pos] == T.COLON:
            self.pos += 1
            ret = self.parse_type()
        self.expect(T.EQ, "'='")
        body = self._block("expected a function body")
        return FunDecl(name, params, ret, body, span=self.starts[start])


def parse_module(tokens: Tokens) -> tuple[SurfaceModule | None, list[Diagnostic]]:
    """The module and the parse's diagnostics.  A parse that stops at a
    syntax error gives no module; one that reaches the end of the file
    gives its module even beside errors that did not stop it."""
    p = _ModuleParser(tokens)
    try:
        module = p.parse_module()
    except ParseError as e:
        return None, p.diags + [e.diag]
    return module, p.diags


def parse_source(source: str) -> tuple[SurfaceModule | None, list[Diagnostic]]:
    tokens, diags = lex(source)
    if diags:
        return None, diags
    return parse_module(tokens)
