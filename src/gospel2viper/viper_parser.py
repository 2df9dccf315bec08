"""Parser for the Viper subset the printer emits.

Round-trips pretty-printed programs back to the AST for golden tests and
the print/reparse property.  A pre-scan collects declared predicate,
method, function and constructor names so applications can be classified
without type checking: a whole conjunct applying a predicate name is a
predicate instance, a capitalized call in expression position is an ADT
constructor, and a statement-level call naming a method is a method call
rather than an assignment.

Binary operators are parsed by precedence climbing in one loop,
`_R._binary`, over the printer's own table in `viper_ast` (`_PREC`,
`_RIGHT_ASSOC`, `_NON_ASSOC`), so printer and reparser cannot disagree
about precedence or associativity.
"""

from __future__ import annotations

from .viper_ast import (Acc, AdtDecl, AssignS, BinOp, BoolLit, CallS, CondA,
                        CtorCall, CtorSig, FieldAcc, FieldDecl, FoldS, FunApp,
                        FunctionDecl, IfS, IntLit, IsTest, LetA, MethodDecl,
                        NewS, PredApp, PredicateDecl, Pure, SeqDrop, SeqIndex,
                        SeqLen, SeqLit, SeqTake, UnOp, UnfoldS, VAssertion,
                        Var, VarDeclS, VDecl, VExpr, ViperProgram, VStmt,
                        VToken, VType, _NON_ASSOC, _PREC, _RIGHT_ASSOC,
                        and_all, lex_viper)


class ViperParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (offset {pos})")
        self.pos = pos


def _scan_names(toks: list[VToken]) -> tuple[set, set, set, set]:
    """Collect predicate, method, function and constructor names."""
    preds: set[str] = set()
    methods: set[str] = set()
    functions: set[str] = set()
    ctors: set[str] = set()
    depth = 0
    i = 0
    while i < len(toks):
        t = toks[i]
        if t.text == "{":
            depth += 1
        elif t.text == "}":
            depth -= 1
        elif t.kind == "ident" and depth == 0 and i + 1 < len(toks):
            name = toks[i + 1].text
            if t.text == "predicate":
                preds.add(name)
            elif t.text == "method":
                methods.add(name)
            elif t.text == "function":
                functions.add(name)
            elif t.text == "adt":
                j = i + 2
                if j < len(toks) and toks[j].text == "{":
                    j += 1
                    while j < len(toks) and toks[j].text != "}":
                        if (toks[j].kind == "ident" and j + 1 < len(toks)
                                and toks[j + 1].text == "("):
                            ctors.add(toks[j].text)
                        j += 1
        i += 1
    return preds, methods, functions, ctors


_TIGHTEST = max(_PREC.values())
_EXPR_CONT = {".", "[", "?", *_PREC} - {"&&", "||"}


class _R:
    def __init__(self, toks: list[VToken], text_len: int):
        self.toks = toks
        self.pos = 0
        self.end = text_len
        self.preds, self.methods, self.functions, self.ctors = _scan_names(toks)

    # cursor ------------------------------------------------------------

    def peek(self, ahead: int = 0) -> VToken | None:
        i = self.pos + ahead
        return self.toks[i] if i < len(self.toks) else None

    def at(self, text: str) -> bool:
        t = self.peek()
        return t is not None and t.text == text

    def at_ident(self) -> bool:
        t = self.peek()
        return t is not None and t.kind == "ident"

    def next(self) -> VToken:
        t = self.peek()
        if t is None:
            raise ViperParseError("unexpected end of input", self.end)
        self.pos += 1
        return t

    def expect(self, text: str) -> VToken:
        t = self.peek()
        if t is None or t.text != text:
            found = t.text if t else "end of input"
            raise ViperParseError(f"expected {text!r}, found {found!r}",
                                  t.pos if t else self.end)
        return self.next()

    def ident(self) -> str:
        t = self.peek()
        if t is None or t.kind != "ident":
            raise ViperParseError("expected an identifier",
                                  t.pos if t else self.end)
        return self.next().text

    # types ---------------------------------------------------------------

    def parse_type(self) -> VType:
        name = self.ident()
        if name == "Seq":
            self.expect("[")
            inner = self.ident()
            self.expect("]")
            return VType(f"Seq[{inner}]")
        return VType(name)

    def parse_params(self) -> list[tuple[str, VType]]:
        self.expect("(")
        params: list[tuple[str, VType]] = []
        while not self.at(")"):
            name = self.ident()
            self.expect(":")
            params.append((name, self.parse_type()))
            if self.at(","):
                self.next()
        self.expect(")")
        return params

    # expressions -----------------------------------------------------------

    def parse_expr(self) -> VExpr:
        return self._binary(_PREC["||"])

    def _binary(self, floor: int) -> VExpr:
        """Precedence climbing over the printer's `_PREC`: an operand
        followed by operators of precedence `floor` and tighter."""
        e, ceil = self._unary(), _TIGHTEST
        while True:
            t = self.peek()
            prec = _PREC.get(t.text) if t is not None else None
            if prec is None or not floor <= prec <= ceil:
                return e
            self.next()
            ceil = prec - 1 if t.text in _NON_ASSOC else prec
            right = self._binary(prec if t.text in _RIGHT_ASSOC else prec + 1)
            e = BinOp(t.text, e, right)

    def _unary(self) -> VExpr:
        if self.at("-"):
            self.next()
            inner = self._unary()
            if isinstance(inner, IntLit):  # canonical negative literal
                return IntLit(-inner.value)
            return UnOp("-", inner)
        if self.at("!"):
            self.next()
            return UnOp("!", self._unary())
        return self._postfix()

    def _postfix(self) -> VExpr:
        e = self._atom()
        while True:
            if self.at("."):
                self.next()
                name = self.ident()
                if (name.startswith("is") and len(name) > 2
                        and name[2].isupper() and name[2:] in self.ctors):
                    e = IsTest(e, name[2:])
                else:
                    e = FieldAcc(e, name)
            elif self.at("["):
                self.next()
                if self.at(".."):
                    self.next()
                    hi = self.parse_expr()
                    self.expect("]")
                    e = SeqTake(e, hi)
                else:
                    idx = self.parse_expr()
                    if self.at(".."):
                        self.next()
                        self.expect("]")
                        e = SeqDrop(e, idx)
                    else:
                        self.expect("]")
                        e = SeqIndex(e, idx)
            else:
                return e

    def _call_args(self) -> list[VExpr]:
        self.expect("(")
        args: list[VExpr] = []
        while not self.at(")"):
            args.append(self.parse_expr())
            if self.at(","):
                self.next()
        self.expect(")")
        return args

    def _atom(self) -> VExpr:
        t = self.peek()
        if t is None:
            raise ViperParseError("expected an expression", self.end)
        if t.kind == "int":
            self.next()
            return IntLit(int(t.text))
        if t.text == "true" or t.text == "false":
            self.next()
            return BoolLit(t.text == "true")
        if t.text == "Seq":
            self.next()
            if self.at("["):
                self.next()
                self.expect("Int")
                self.expect("]")
                self.expect("(")
                self.expect(")")
                return SeqLit([])
            return SeqLit(self._call_args())
        if t.kind == "ident":
            self.next()
            if self.at("("):
                args = self._call_args()
                if t.text in self.ctors:
                    return CtorCall(t.text, args)
                return FunApp(t.text, args)
            return Var(t.text)
        if t.text == "|":
            self.next()
            inner = self.parse_expr()
            self.expect("|")
            return SeqLen(inner)
        if t.text == "(":
            self.next()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ViperParseError(f"unexpected {t.text!r} in expression", t.pos)

    # assertions ---------------------------------------------------------------

    def parse_assertion(self) -> VAssertion:
        first = self._aconj()
        if self.at("?") and isinstance(first, Pure):
            self.next()
            then = self.parse_assertion()
            self.expect(":")
            return CondA(first.expr, then, self.parse_assertion())
        parts = [first]
        while self.at("&&"):
            self.next()
            parts.append(self._aconj())
        return and_all(parts)

    def _aconj(self) -> VAssertion:
        t = self.peek()
        if t is None:
            raise ViperParseError("expected an assertion", self.end)
        if t.text == "acc":
            self.next()
            self.expect("(")
            loc = self._postfix()
            self.expect(")")
            if not isinstance(loc, FieldAcc):
                raise ViperParseError("acc expects a field location", t.pos)
            return Acc(loc)
        if t.text == "let":
            self.next()
            name = self.ident()
            self.expect("==")
            self.expect("(")
            bound = self.parse_expr()
            self.expect(")")
            self.expect("in")
            return LetA(name, bound, self.parse_assertion())
        if (t.kind == "ident" and t.text in self.preds
                and self.peek(1) is not None and self.peek(1).text == "("):
            return self._pred_app()
        if t.text == "(":
            mark = self.pos
            self.next()
            try:
                inner = self.parse_assertion()
                self.expect(")")
                nxt = self.peek()
                cont = nxt is not None and nxt.text in _EXPR_CONT
                if not isinstance(inner, Pure) and not cont:
                    return inner
            except ViperParseError:
                pass
            self.pos = mark
        return Pure(self._binary(_PREC["=="]))

    def _pred_app(self) -> PredApp:
        name = self.ident()
        return PredApp(name, self._call_args())

    # statements ------------------------------------------------------------------

    def parse_block(self) -> list[VStmt]:
        self.expect("{")
        stmts: list[VStmt] = []
        while not self.at("}"):
            stmts.append(self._stmt())
        self.expect("}")
        return stmts

    def _stmt(self) -> VStmt:
        t = self.peek()
        if t is None:
            raise ViperParseError("expected a statement", self.end)
        if t.text == "var":
            self.next()
            name = self.ident()
            self.expect(":")
            typ = self.parse_type()
            if not self.at(":="):
                return VarDeclS(name, typ)
            self.next()
            if self.at("new"):
                return NewS(name, self._new_fields(), declare=True)
            return VarDeclS(name, typ, self.parse_expr())
        if t.text == "fold":
            self.next()
            return FoldS(self._pred_app())
        if t.text == "unfold":
            self.next()
            return UnfoldS(self._pred_app())
        if t.text == "if":
            self.next()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self.parse_block()
            els: list[VStmt] = []
            if self.at("else"):
                self.next()
                els = self.parse_block()
            return IfS(cond, then, els)
        if (t.kind == "ident" and t.text in self.methods
                and self.peek(1) is not None and self.peek(1).text == "("):
            self.next()
            return CallS([], t.text, self._call_args())
        target = self._postfix()
        if self.at(","):
            targets = [self._target_name(target)]
            while self.at(","):
                self.next()
                targets.append(self.ident())
            self.expect(":=")
            name = self.ident()
            return CallS(targets, name, self._call_args())
        self.expect(":=")
        if self.at("new"):
            return NewS(self._target_name(target), self._new_fields())
        nxt = self.peek()
        if (nxt is not None and nxt.kind == "ident"
                and nxt.text in self.methods and self.peek(1) is not None
                and self.peek(1).text == "("):
            self.next()
            return CallS([self._target_name(target)], nxt.text,
                         self._call_args())
        return AssignS(target, self.parse_expr())

    def _target_name(self, e: VExpr) -> str:
        if not isinstance(e, Var):
            raise ViperParseError("call targets must be plain variables",
                                  self.toks[self.pos - 1].pos)
        return e.name

    def _new_fields(self) -> list[str]:
        self.expect("new")
        self.expect("(")
        fields: list[str] = []
        while not self.at(")"):
            fields.append(self.ident())
            if self.at(","):
                self.next()
        self.expect(")")
        return fields

    # declarations -------------------------------------------------------------------

    def parse_program(self) -> ViperProgram:
        decls: list[VDecl] = []
        while self.peek() is not None:
            decls.append(self._decl())
        return ViperProgram(decls)

    def _decl(self) -> VDecl:
        t = self.peek()
        assert t is not None
        if t.text == "adt":
            self.next()
            name = self.ident()
            self.expect("{")
            ctors: list[CtorSig] = []
            while not self.at("}"):
                ctors.append(CtorSig(self.ident(), self.parse_params()))
            self.expect("}")
            return AdtDecl(name, ctors)
        if t.text == "field":
            self.next()
            name = self.ident()
            self.expect(":")
            return FieldDecl(name, self.parse_type())
        if t.text == "function":
            self.next()
            name = self.ident()
            params = self.parse_params()
            self.expect(":")
            ret = self.parse_type()
            pres, posts = self._spec_clauses()
            body = None
            if self.at("{"):
                self.next()
                body = self.parse_expr()
                self.expect("}")
            return FunctionDecl(name, params, ret, pres, posts, body)
        if t.text == "predicate":
            self.next()
            name = self.ident()
            params = self.parse_params()
            self.expect("{")
            body = self.parse_assertion()
            self.expect("}")
            return PredicateDecl(name, params, body)
        if t.text == "method":
            self.next()
            name = self.ident()
            params = self.parse_params()
            returns: list[tuple[str, VType]] = []
            if self.at("returns"):
                self.next()
                returns = self.parse_params()
            pres, posts = self._spec_clauses()
            body = self.parse_block() if self.at("{") else None
            return MethodDecl(name, params, returns, pres, posts, body)
        raise ViperParseError(f"expected a declaration, found {t.text!r}",
                              t.pos)

    def _spec_clauses(self) -> tuple[list[VAssertion], list[VAssertion]]:
        pres: list[VAssertion] = []
        posts: list[VAssertion] = []
        while self.at("requires") or self.at("ensures"):
            into = pres if self.next().text == "requires" else posts
            into.append(self.parse_assertion())
        return pres, posts


def reparse(text: str) -> ViperProgram:
    """Parse printer-shaped Viper text back into an AST."""
    toks = lex_viper(text)
    r = _R(toks, len(text))
    program = r.parse_program()
    if r.peek() is not None:
        raise ViperParseError("trailing input after program",
                              r.peek().pos)  # pragma: no cover
    return program
