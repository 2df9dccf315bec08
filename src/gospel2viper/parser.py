"""Recursive-descent parser for OCaml-light modules and Gospel annotations.

Token kinds are the plain ints of `lexer.T`, compared with `==`.
Binary operators are parsed by precedence climbing (Pratt's "Top Down
Operator Precedence") in one loop, `_P.parse_binary`, over the table
`_BINOPS` of operators and their precedences.

The parser reads the file's one token stream (`lexer.Tokens`) by index:
`kinds[pos]` and `texts[pos]`, and a `Span` built from the start offset
only where a node keeps one.  An annotation is the slice of that stream
from its ANNOTATION token to the EOF that ends its payload, which the
lexer has already lexed in spec mode; nothing is lexed here.  A payload
is dispatched on its leading keyword: predicate / function / lemma
introduce top-level ghost declarations, fold / unfold / apply are ghost
commands legal only inside a function body, and anything else is parsed
as a contract attached to the preceding function.

A block is a function body, a match arm, a parenthesised statement, or
an `if` branch that starts with `let`; it holds a flat list of items.  A
local `let x : t = e in` is one item of its block, and `x` is bound from
the next item to the end of that block: `if c then let x : t = e in a; b`
keeps `b` in the then-branch, and a name bound inside parentheses is
unbound after the `)`.

The explicit-typing rule is enforced here: a local `let` without a type
annotation is a parse diagnostic.  Sequence indexing and slicing only
exist in spec mode; in program mode a bracket group after a call denotes
ghost arguments.
"""

from __future__ import annotations

from .diagnostics import Category, Diagnostic, Span, error, has_errors
from .lexer import T, Tokens, lex
from .surface import (AnnotationPayload, AppE, Assertion, AssignE, BinE,
                      BoolLit, BoolT, ContractSpec, CtorDef, CtorE, FieldDef,
                      FieldE, FunDecl, GhostCommand, GhostDecl,
                      GhostKind, IfA, IfE, IndexE, IntLit, IntT,
                      LemmaDef, LetIn, LetPatA, LogicalFunctionDef, MatchArm,
                      MatchE, NamedT, OwnsA, PredicateDef, PureA,
                      RecordAlloc, RecordKind, SeqE, SeqT, SepA, SliceFromE,
                      SurfaceDecl, SurfaceExpr, SurfaceModule, SurfaceType,
                      TypeDecl, UnE, UnitLit, VarE, VariantKind)


class ParseError(Exception):
    def __init__(self, diag: Diagnostic):
        super().__init__(diag.message)
        self.diag = diag


# Binary operators by token kind: (operator, precedence), loosest first.
# `++` is right-associative, the comparisons do not associate, and the
# rest are left-associative.
_CMP, _TIGHTEST = 3, 6
_BINOPS = {T.BARBAR: ("||", 1), T.AMPAMP: ("&&", 2),
           T.EQ: ("=", _CMP), T.NEQ: ("<>", _CMP), T.LT: ("<", _CMP),
           T.LE: ("<=", _CMP), T.GT: (">", _CMP), T.GE: (">=", _CMP),
           T.PLUSPLUS: ("++", 4), T.PLUS: ("+", 5), T.MINUS: ("-", 5),
           T.STAR: ("*", 6), T.SLASH: ("/", 6)}
_ATOM_START = frozenset((T.INT, T.TRUE, T.FALSE, T.IDENT, T.LPAREN, T.LBRACE))

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
    Hot paths read `kinds[pos]` inline: a call costs more than its test.
    Every slice the parser reads ends in an EOF, which `next` never steps
    past, so a lookahead of one from any other token stays in the slice.
    """

    def __init__(self, tokens: Tokens, spec: bool, pos: int = 0):
        self.toks = tokens
        self.kinds = tokens.kinds
        self.starts = tokens.starts
        self.texts = tokens.texts
        self.pos = pos
        self.spec = spec
        self.depth = 0

    # -- cursor helpers ----------------------------------------------------

    def at(self, *kinds: int) -> bool:
        return self.kinds[self.pos] in kinds

    def next(self) -> int:
        """Step past the token at the cursor; return its index."""
        i = self.pos
        if self.kinds[i] != T.EOF:
            self.pos = i + 1
        return i

    def expect(self, kind: int, what: str) -> int:
        """Step past a token of `kind`, which is never EOF; return its
        index."""
        i = self.pos
        if self.kinds[i] != kind:
            self.fail(f"expected {what}, found "
                      f"{self.texts[i] or 'end of input'!r}")
        self.pos = i + 1
        return i

    def fail(self, message: str) -> None:
        raise ParseError(error(Category.PARSE, message,
                               self.toks.span(self.pos)))

    def ident(self, what: str = "identifier") -> str:
        """Step past an identifier; return its text."""
        return self.texts[self.expect(T.IDENT, what)]

    def enter(self) -> None:
        """Open one nesting level; the caller closes it with depth -= 1."""
        if self.depth > MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1

    # -- types -------------------------------------------------------------

    def parse_type(self) -> SurfaceType:
        name = self.ident("type name")
        base: SurfaceType
        if name == "int":
            base = IntT()
        elif name == "bool":
            base = BoolT()
        else:
            base = NamedT(name)
        if self.at(T.IDENT) and self.texts[self.pos] == "sequence":
            self.pos += 1
            if not isinstance(base, IntT):
                self.fail("only int sequences are supported")
            return SeqT()
        return base

    # -- expressions -------------------------------------------------------

    def parse_expr(self) -> SurfaceExpr:
        if self.depth > MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1
        e = self.parse_binary(1)
        self.depth -= 1
        return e

    def parse_binary(self, floor: int) -> SurfaceExpr:
        """Precedence climbing over `_BINOPS`: an operand followed by
        operators of precedence `floor` and tighter."""
        kinds = self.kinds
        e = (self.parse_unary() if kinds[self.pos] == T.MINUS
             else self.parse_app())
        ceil = _TIGHTEST
        while True:
            op = _BINOPS.get(kinds[self.pos])
            if op is None or not floor <= op[1] <= ceil:
                return e
            self.pos += 1
            sym, prec = op
            # after a comparison only tighter operators may follow, so a
            # second comparison is left to the caller, which rejects it
            ceil = prec - 1 if prec == _CMP else prec
            right = self.parse_binary(prec if sym == "++" else prec + 1)
            e = BinE(sym, e, right, e.span)

    def parse_unary(self) -> SurfaceExpr:
        """A prefix minus and its operand, itself possibly negated."""
        start = self.toks.span(self.next())
        self.enter()
        e = UnE("-", self.parse_unary() if self.at(T.MINUS)
                else self.parse_app(), span=start)
        self.depth -= 1
        return e

    def parse_app(self) -> SurfaceExpr:
        """A postfix term, applied to the atoms after it when it is a bare
        name: `f x (y + 1) z.a`, `f (x, y)` or `f ()`."""
        head = self.parse_postfix()
        kinds = self.kinds
        if (kinds[self.pos] not in _ATOM_START
                or not isinstance(head, (VarE, CtorE))):
            return head
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
            while self.at(T.LBRACKET):
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

    def parse_postfix(self) -> SurfaceExpr:
        """An atom, then `.field` and, in spec terms, `[i]` and `[i ..]`."""
        kinds = self.kinds
        pos = self.pos
        kind = kinds[pos]
        e: SurfaceExpr
        if kind == T.LPAREN and kinds[pos + 1] != T.RPAREN:
            self.pos = pos + 1
            e = self.parse_expr()
            self.expect(T.RPAREN, "')'")
        elif kind in _ATOM_START:
            text = self.texts[pos]
            start = self.starts[pos]
            span = Span(start, start + len(text))
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
                if self.at(T.DOTDOT):
                    self.fail("prefix slices are not part of the surface language")
                idx = self.parse_expr()
                if self.at(T.DOTDOT):
                    self.pos += 1
                    self.expect(T.RBRACKET, "']'")
                    e = SliceFromE(e, idx, span=e.span)
                else:
                    self.expect(T.RBRACKET, "']'")
                    e = IndexE(e, idx, span=e.span)
            else:
                return e

    def _record_body(self, ctor: str | None, span: Span) -> RecordAlloc:
        self.expect(T.LBRACE, "'{'")
        inits: list[tuple[str, SurfaceExpr]] = []
        while not self.at(T.RBRACE):
            f = self.ident("field name")
            self.expect(T.EQ, "'='")
            inits.append((f, self.parse_expr()))
            if self.at(T.SEMI):
                self.pos += 1
            elif not self.at(T.RBRACE):
                self.fail("expected ';' or '}' in record literal")
        self.pos += 1
        return RecordAlloc(ctor, inits, span=span)


# --------------------------------------------------------------------------
# annotation parsing

def parse_annotation(toks: Tokens, at: int
                     ) -> tuple[AnnotationPayload | None, list[Diagnostic]]:
    """Parse the annotation whose ANNOTATION token is `toks[at]`, from the
    payload tokens that follow it up to their EOF, or report the lexical
    error found in its payload.  The payload's span is the ANNOTATION
    token's."""
    if at in toks.errors:
        return None, [toks.errors[at]]
    p = _P(toks, spec=True, pos=at + 1)
    try:
        payload = _annotation_payload(p, toks.span(at))
        if not p.at(T.EOF):
            p.fail(f"unexpected {p.texts[p.pos]!r} at end of annotation")
        return payload, []
    except ParseError as e:
        return None, [e.diag]


_GHOST_KINDS = {T.FOLD: GhostKind.FOLD, T.UNFOLD: GhostKind.UNFOLD,
                T.APPLY: GhostKind.APPLY}


def _annotation_payload(p: _P, span: Span):
    kind = p.kinds[p.pos]
    if kind == T.PREDICATE:
        p.next()
        name = p.ident("predicate name")
        params = _spec_params(p)
        p.expect(T.EQ, "'='")
        return PredicateDef(name, params, _assertion(p), span=span)
    if kind == T.FUNCTION:
        p.next()
        name = p.ident("function name")
        params = _spec_params(p)
        p.expect(T.COLON, "':'")
        ret = p.parse_type()
        p.expect(T.EQ, "'='")
        return LogicalFunctionDef(name, params, ret, p.parse_expr(), span=span)
    if kind == T.LEMMA:
        p.next()
        name = p.ident("lemma name")
        params = _spec_params(p)
        req, ens = _clauses(p)
        return LemmaDef(name, params, req, ens, span=span)
    if kind in _GHOST_KINDS:
        p.next()
        target = p.ident("fold/unfold/apply target")
        args = _command_args(p)
        return GhostCommand(_GHOST_KINDS[kind], target, args, span=span)
    return _contract(p, span)


def _spec_params(p: _P) -> list[tuple[str, SurfaceType]]:
    params = []
    while p.at(T.LPAREN):
        p.next()
        name = p.ident("parameter name")
        p.expect(T.COLON, "':'")
        params.append((name, p.parse_type()))
        p.expect(T.RPAREN, "')'")
    return params


def _command_args(p: _P) -> list[SurfaceExpr]:
    """`(a, b)`, `()` or curried arguments; only the first may be a list."""
    args: list[SurfaceExpr] = []
    if p.at(T.LPAREN):
        args, closed = p._paren_args()
        if closed:
            return args
    while p.kinds[p.pos] in _ATOM_START:
        if p.at(T.LPAREN):
            p.next()
            args.append(p.parse_expr())
            p.expect(T.RPAREN, "')'")
        else:
            args.append(p.parse_postfix())
    return args


def _contract(p: _P, span: Span) -> ContractSpec:
    first = p.ident("contract header")
    results: list[str] = []
    if p.at(T.COMMA) or p.at(T.EQ):
        results = [first]
        while p.at(T.COMMA):
            p.next()
            results.append(p.ident("result name"))
        p.expect(T.EQ, "'='")
        fn = p.ident("function name")
    else:
        fn = first
    param_names: list[str] = []
    while True:
        if p.at(T.LPAREN) and p.kinds[p.pos + 1] == T.RPAREN:
            p.pos += 2  # `()`: explicitly no parameters
        elif p.at(T.IDENT):
            param_names.append(p.texts[p.next()])
        else:
            break
    ghost_params: list[tuple[str, SurfaceType]] = []
    while p.at(T.LBRACKET):
        p.next()
        name = p.ident("ghost parameter name")
        p.expect(T.COLON, "':'")
        ghost_params.append((name, p.parse_type()))
        p.expect(T.RBRACKET, "']'")
    req, ens = _clauses(p)
    return ContractSpec(results, fn, param_names, ghost_params, req, ens,
                        span=span)


def _clauses(p: _P) -> tuple[list[Assertion], list[Assertion]]:
    req: list[Assertion] = []
    ens: list[Assertion] = []
    while p.at(T.REQUIRES, T.ENSURES):
        into = req if p.kinds[p.next()] == T.REQUIRES else ens
        into.append(_assertion(p))
    return req, ens


# -- assertions -------------------------------------------------------------

_EXPR_CONT = (T.DOT, T.LBRACKET, T.OWNS,
              *(k for k, (_, prec) in _BINOPS.items() if prec >= _CMP))


def _assertion(p: _P) -> Assertion:
    # one nesting level for the whole chain: parentheses count, length not
    p.enter()
    parts = [_assertion_atom(p)]
    while p.at(T.AMPAMP):
        p.next()
        parts.append(_assertion_atom(p))
    p.depth -= 1
    return parts[0] if len(parts) == 1 else SepA(parts, span=parts[0].span)


def _assertion_atom(p: _P) -> Assertion:
    kind = p.kinds[p.pos]
    if kind == T.IF:
        span = p.toks.span(p.next())
        cond = p.parse_binary(_CMP)
        p.expect(T.THEN, "'then'")
        then = _assertion(p)
        p.expect(T.ELSE, "'else'")
        return IfA(cond, then, _assertion(p), span=span)
    if kind == T.LET:
        span = p.toks.span(p.next())
        ctor = p.ident("constructor pattern")
        if not ctor[0].isupper():
            p.fail("assertion let expects a constructor pattern")
        binder = p.ident("binder name")
        p.expect(T.EQ, "'='")
        scrut = p.parse_binary(_CMP)
        p.expect(T.IN, "'in'")
        return LetPatA(ctor, binder, scrut, _assertion(p), span=span)
    if kind == T.LPAREN:
        mark = p.pos, p.depth
        p.next()
        try:
            inner = _assertion(p)
            p.expect(T.RPAREN, "')'")
            if not isinstance(inner, PureA) and not p.at(*_EXPR_CONT):
                return inner
        except ParseError:
            pass
        p.pos, p.depth = mark
    e = p.parse_binary(_CMP)
    if p.at(T.OWNS):
        p.next()
        p.expect(T.LBRACE, "'{'")
        fields = [p.ident("field name")]
        while p.at(T.SEMI):
            p.next()
            fields.append(p.ident("field name"))
        p.expect(T.RBRACE, "'}'")
        return OwnsA(e, fields, span=e.span)
    return PureA(e, span=e.span)


# --------------------------------------------------------------------------
# module parsing

_GHOST_LEADS = ("fold", "unfold", "apply")


def _annotation_is_ghost(text: str) -> bool:
    """Whether an annotation (its whole text, `(*@ ... *)`) whose payload
    does not parse starts like a ghost command."""
    head = text[3:-2].split(None, 1)
    return bool(head) and head[0] in _GHOST_LEADS


_STMT_END = frozenset((T.EOF, T.RPAREN, T.PIPE, T.TYPE, T.ELSE))


class _ModuleParser(_P):
    def __init__(self, tokens: Tokens):
        super().__init__(tokens, spec=False)
        self.diags: list[Diagnostic] = []
        self.payloads: dict[int, tuple] = {}

    def _annotation(self) -> tuple[AnnotationPayload | None, list[Diagnostic]]:
        """parse_annotation of the annotation at the cursor, parsed once:
        an annotation that ends a body is parsed there and placed by
        parse_module.  Whoever steps past it reports its diagnostics."""
        if self.pos not in self.payloads:
            self.payloads[self.pos] = parse_annotation(self.toks, self.pos)
        return self.payloads[self.pos]

    def _skip_annotation(self) -> None:
        """Step past the annotation at the cursor and its payload."""
        self.pos = self.kinds.index(T.EOF, self.pos + 1) + 1

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
                    else self.toks.span(opener))

    def _stmt_seq(self) -> list[SurfaceExpr | GhostCommand]:
        """The items of a block, up to the token that ends it.  A `let … in`
        is one item; no `;` may follow its `in`."""
        items: list[SurfaceExpr | GhostCommand] = []
        kinds = self.kinds
        while True:
            kind = kinds[self.pos]
            if kind == T.ANNOTATION:
                payload, diags = self._annotation()
                if not (_annotation_is_ghost(self.texts[self.pos])
                        if payload is None
                        else isinstance(payload, GhostCommand)):
                    break  # a contract or the next top-level declaration
                self._skip_annotation()
                self.diags.extend(diags)
                if payload is not None:
                    items.append(payload)
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

    def _stmt_item(self) -> SurfaceExpr | None:
        start = self.pos
        kind = self.kinds[start]
        if kind == T.LET:
            self.pos += 1
            at = self.pos
            name = self.ident("binder name")
            if name[0].isupper():
                self.fail("constructor patterns are only allowed in assertions")
            typ = None
            if self.at(T.COLON):
                self.next()
                typ = self.parse_type()
            self.expect(T.EQ, "'='")
            rhs = self.parse_expr()
            if not self.at(T.IN):
                self.pos = start  # a new top-level declaration begins here
                return None
            if typ is None:
                self.diags.append(error(
                    Category.PARSE,
                    f"local '{name}' needs an explicit type annotation",
                    self.toks.span(at)))
            self.next()
            return LetIn(name, typ, rhs, span=self.toks.span(start))
        if kind == T.MATCH:
            return self._match()
        if kind == T.IF:
            self.enter()
            self.next()
            cond = self.parse_expr()
            self.expect(T.THEN, "'then'")
            then = self._branch()
            els = None
            if self.at(T.ELSE):
                self.next()
                els = self._branch()
            self.depth -= 1
            return IfE(cond, then, els, span=self.toks.span(start))
        if kind == T.LPAREN and self.kinds[start + 1] != T.RPAREN:
            self.next()
            self.enter()
            inner = self._block("empty parenthesized statement", opener=start)
            self.depth -= 1
            return self._maybe_assign(self._postfix_tail(inner))
        e = self.parse_expr()
        return self._maybe_assign(e)

    def _branch(self) -> SurfaceExpr:
        """An `if` branch: one item, or a block when it starts with `let`."""
        if self.at(T.LET):
            return self._block("expected a branch body")
        return self._stmt_item()

    def _postfix_tail(self, e: SurfaceExpr) -> SurfaceExpr:
        while self.at(T.DOT):
            self.next()
            e = FieldE(e, self.ident("field name"), span=e.span)
        return e

    def _maybe_assign(self, e: SurfaceExpr) -> SurfaceExpr:
        if self.at(T.LARROW):
            arrow = self.next()
            if not isinstance(e, FieldE):
                raise ParseError(error(Category.PARSE,
                                       "only fields can be assigned",
                                       self.toks.span(arrow)))
            return AssignE(e, self.parse_expr(), span=e.span)
        return e

    def _match(self) -> MatchE:
        self.enter()
        start = self.expect(T.MATCH, "'match'")
        scrut = self.parse_expr()
        self.expect(T.WITH, "'with'")
        arms: list[MatchArm] = []
        if self.at(T.PIPE):
            self.next()
        while True:
            at = self.pos
            ctor = self.ident("constructor name")
            if not ctor[0].isupper():
                self.fail("match arms must start with a constructor")
            binder = None
            if self.at(T.IDENT) and not self.texts[self.pos][0].isupper():
                binder = self.texts[self.next()]
            self.expect(T.ARROW, "'->'")
            arms.append(MatchArm(ctor, binder,
                                 self._block("empty match arm"),
                                 span=self.toks.span(at)))
            if self.at(T.PIPE):
                self.next()
            else:
                break
        self.depth -= 1
        return MatchE(scrut, arms, span=self.toks.span(start))

    # declarations ----------------------------------------------------------

    def parse_module(self) -> SurfaceModule:
        decls: list[SurfaceDecl] = []
        while not self.at(T.EOF):
            kind = self.kinds[self.pos]
            if kind == T.TYPE:
                decls.append(self._type_decl())
            elif kind == T.LET:
                decls.append(self._fun_decl())
            elif kind == T.ANNOTATION:
                payload, diags = self._annotation()
                self._skip_annotation()
                self.diags.extend(diags)
                if payload is not None:
                    self._place_annotation(payload, decls)
            else:
                self.fail("expected a declaration, found "
                          f"{self.texts[self.pos]!r}")
        return SurfaceModule(decls)

    def _place_annotation(self, payload: AnnotationPayload,
                          decls: list[SurfaceDecl]) -> None:
        if isinstance(payload, (PredicateDef, LogicalFunctionDef, LemmaDef)):
            decls.append(GhostDecl(payload, span=payload.span))
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
        start = self.expect(T.TYPE, "'type'")
        name = self.ident("type name")
        if name[0].isupper():
            self.fail("type names are lowercase")
        self.expect(T.EQ, "'='")
        if self.at(T.LBRACE):
            kind = self._record_kind()
        else:
            kind = self._variant()
        return TypeDecl(name, kind, span=self.toks.span(start))

    def _variant(self):
        if self.at(T.PIPE):
            self.next()
        ctors = [self._ctor()]
        while self.at(T.PIPE):
            self.next()
            ctors.append(self._ctor())
        return VariantKind(ctors)

    def _ctor(self) -> CtorDef:
        at = self.pos
        name = self.ident("constructor name")
        if not name[0].isupper():
            self.fail("constructor names are capitalized")
        payload: list[FieldDef] = []
        if self.at(T.OF):
            self.next()
            payload = self._record_kind().fields
        return CtorDef(name, payload, span=self.toks.span(at))

    def _record_kind(self) -> RecordKind:
        self.expect(T.LBRACE, "'{'")
        fields: list[FieldDef] = []
        while not self.at(T.RBRACE):
            mutable = False
            if self.at(T.MUTABLE):
                self.next()
                mutable = True
            at = self.pos
            name = self.ident("field name")
            self.expect(T.COLON, "':'")
            fields.append(FieldDef(name, self.parse_type(), mutable,
                                   span=self.toks.span(at)))
            if self.at(T.SEMI):
                self.next()
            elif not self.at(T.RBRACE):
                self.fail("expected ';' or '}' in record declaration")
        self.next()
        if not fields:
            self.fail("record declarations need at least one field")
        return RecordKind(fields)

    def _fun_decl(self) -> FunDecl:
        start = self.expect(T.LET, "'let'")
        name = self.ident("function name")
        params: list[tuple[str, SurfaceType]] = []
        while self.at(T.LPAREN):
            self.next()
            if self.at(T.RPAREN):
                self.next()
                continue  # unit parameter: contributes nothing
            pname = self.ident("parameter name")
            self.expect(T.COLON,
                        f"a type annotation on parameter '{pname}'")
            ptype = self.parse_type()
            self.expect(T.RPAREN, "')'")
            params.append((pname, ptype))
        ret = None
        if self.at(T.COLON):
            self.next()
            ret = self.parse_type()
        self.expect(T.EQ, "'='")
        body = self._block("expected a function body")
        return FunDecl(name, params, ret, body, span=self.toks.span(start))


# --------------------------------------------------------------------------
# post-parse resolution and validation

def _walk_ghosts(e: SurfaceExpr | GhostCommand):
    if isinstance(e, GhostCommand):
        yield e
    elif isinstance(e, SeqE):
        for item in e.items:
            yield from _walk_ghosts(item)
    elif isinstance(e, IfE):
        yield from _walk_ghosts(e.then)
        if e.els is not None:
            yield from _walk_ghosts(e.els)
    elif isinstance(e, MatchE):
        for arm in e.arms:
            yield from _walk_ghosts(arm.body)


def _decap(name: str) -> str:
    return name[:1].lower() + name[1:]


def resolve_spec_name(name: str, table: dict) -> str | None:
    """Spec listings mix `cellSeg_trans` and `CellSeg_trans`; accept both."""
    if name in table:
        return name
    if _decap(name) in table:
        return _decap(name)
    return None


def _validate(m: SurfaceModule, diags: list[Diagnostic]) -> None:
    preds = m.predicates()
    lemmas = m.lemmas()

    seen: dict[tuple[str, str], Span | None] = {}

    def unique(namespace: str, name: str, span: Span | None) -> None:
        key = (namespace, name)
        if key in seen:
            diags.append(error(Category.PARSE,
                               f"duplicate {namespace} name '{name}'", span))
        seen[key] = span

    def distinct(params: list[tuple[str, SurfaceType]],
                 span: Span | None) -> None:
        names: set[str] = set()
        for name, _ in params:
            if name in names:
                diags.append(error(
                    Category.PARSE, f"duplicate parameter name '{name}'",
                    span))
            names.add(name)

    ctor_owner: dict[str, str] = {}
    for d in m.decls:
        if isinstance(d, TypeDecl):
            unique("type", d.name, d.span)
            if isinstance(d.kind, VariantKind):
                for c in d.kind.ctors:
                    if c.name in ctor_owner:
                        diags.append(error(
                            Category.PARSE,
                            f"constructor '{c.name}' already declared by "
                            f"type '{ctor_owner[c.name]}'", c.span))
                    ctor_owner[c.name] = d.name
        elif isinstance(d, FunDecl):
            unique("function", d.name, d.span)
            distinct(d.params, d.span)
        elif isinstance(d, GhostDecl):
            kind = {PredicateDef: "predicate", LemmaDef: "lemma",
                    LogicalFunctionDef: "logical function"}[type(d.payload)]
            unique(kind, d.payload.name, d.span)
            distinct(d.payload.params, d.span)

    for d in m.decls:
        if not isinstance(d, FunDecl):
            continue
        spec = d.spec
        if spec is not None:
            declared = {n for n, _ in d.params}
            if set(spec.param_names) != declared:
                diags.append(error(
                    Category.PARSE,
                    f"contract for '{d.name}' names parameters "
                    f"{sorted(spec.param_names)} but the function declares "
                    f"{sorted(declared)}", spec.span))
            if spec.fn_name != d.name:
                diags.append(error(
                    Category.PARSE,
                    f"contract names '{spec.fn_name}' but follows "
                    f"'{d.name}'", spec.span))
            if len(spec.results) > 1:
                diags.append(error(Category.PARSE,
                                   "multiple results are unsupported",
                                   spec.span))
            for g, _ in spec.ghost_params:
                if g in declared:
                    diags.append(error(
                        Category.PARSE,
                        f"ghost parameter '{g}' shadows a parameter",
                        spec.span))
        for cmd in _walk_ghosts(d.body):
            if cmd.kind in (GhostKind.FOLD, GhostKind.UNFOLD):
                resolved = resolve_spec_name(cmd.target, preds)
                if resolved is None:
                    diags.append(error(
                        Category.PARSE,
                        f"{cmd.kind.value} target '{cmd.target}' is not a "
                        f"declared predicate", cmd.span))
                    continue
                arity = len(preds[resolved].params)
            else:
                resolved = resolve_spec_name(cmd.target, lemmas)
                if resolved is None:
                    diags.append(error(
                        Category.PARSE,
                        f"apply target '{cmd.target}' is not a declared "
                        f"lemma", cmd.span))
                    continue
                arity = len(lemmas[resolved].params)
            cmd.target = resolved
            if len(cmd.args) != arity:
                diags.append(error(
                    Category.PARSE,
                    f"'{cmd.target}' takes {arity} arguments, "
                    f"got {len(cmd.args)}", cmd.span))


def parse_module(tokens: Tokens) -> tuple[SurfaceModule | None, list[Diagnostic]]:
    p = _ModuleParser(tokens)
    try:
        module = p.parse_module()
    except ParseError as e:
        return None, p.diags + [e.diag]
    _validate(module, p.diags)
    if has_errors(p.diags):
        return None, p.diags
    return module, p.diags


def parse_source(source: str) -> tuple[SurfaceModule | None, list[Diagnostic]]:
    tokens, diags = lex(source)
    if diags:
        return None, diags
    return parse_module(tokens)
