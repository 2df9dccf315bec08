"""Viper output language: AST, pretty printer, tokenizer, golden equality.

Every node is a `Record`: a plain class with `__slots__` and a
hand-written `__init__`, as in `surface`, and the abstract bases declare
no slots, so no node has a `__dict__`.  An assertion, statement or
method keeps the source offset it came from in `span`, an `int` or None
(see `diagnostics`).  Equality and repr are those a dataclass would
give, and leave out `span`.  Types and tokens are hashed
by value; the other nodes are not hashable.  The printers (`expr_str`,
`_assertion_str`, `stmt_lines`, `decl_lines`) find a node's handler by
its class in one table each, with one lookup per printed node; an
expression handler adds the parentheses its own precedence level needs,
so printing a node costs one call into the printer and one into the
handler.

Golden comparisons are token-stream equality of pretty-printed text, so
layout (indentation, line breaks, stray semicolons, comments) never
affects a test verdict.  The printer still aims for readable output:
two-space indent, blank line between declarations, conjunction chains
split one conjunct per line once a line would run past 80 columns.
"""

from __future__ import annotations

import re

from .diagnostics import Record

WIDTH = 80

# -- types -------------------------------------------------------------------


class VType(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __hash__(self) -> int:
        return hash((self.name,))

    def __str__(self) -> str:
        return self.name


INT = VType("Int")
BOOL = VType("Bool")
REF = VType("Ref")
SEQ_INT = VType("Seq[Int]")


# -- expressions ---------------------------------------------------------------


class VExpr(Record):
    __slots__ = ()


class IntLit(VExpr):
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


class BoolLit(VExpr):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = value


class Var(VExpr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class FieldAcc(VExpr):
    __slots__ = ("base", "fieldname")

    def __init__(self, base: VExpr, fieldname: str):
        self.base = base
        self.fieldname = fieldname


class IsTest(VExpr):
    __slots__ = ("base", "ctor")

    def __init__(self, base: VExpr, ctor: str):
        self.base = base
        self.ctor = ctor  # prints `.is<Ctor>`


class CtorCall(VExpr):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: list[VExpr]):
        self.name = name
        self.args = args


class FunApp(VExpr):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: list[VExpr]):
        self.name = name
        self.args = args


class SeqLit(VExpr):
    __slots__ = ("items",)

    def __init__(self, items: list[VExpr]):
        self.items = items  # [] prints Seq[Int]()


class SeqLen(VExpr):
    __slots__ = ("seq",)

    def __init__(self, seq: VExpr):
        self.seq = seq


class BinOp(VExpr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: VExpr, right: VExpr):
        self.op = op
        self.left = left
        self.right = right


class UnOp(VExpr):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: VExpr):
        self.op = op
        self.operand = operand


class SeqIndex(VExpr):
    __slots__ = ("seq", "index")

    def __init__(self, seq: VExpr, index: VExpr):
        self.seq = seq
        self.index = index


class SeqDrop(VExpr):
    __slots__ = ("seq", "lo")

    def __init__(self, seq: VExpr, lo: VExpr):
        self.seq = seq
        self.lo = lo  # v[lo ..]


class SeqTake(VExpr):
    __slots__ = ("seq", "hi")

    def __init__(self, seq: VExpr, hi: VExpr):
        self.seq = seq
        self.hi = hi  # v[.. hi]


# -- assertions ----------------------------------------------------------------


class VAssertion(Record):
    __slots__ = ()


class Pure(VAssertion):
    __slots__ = ("expr", "span")

    def __init__(self, expr: VExpr, span: int | None = None):
        self.expr = expr
        self.span = span


class Acc(VAssertion):
    __slots__ = ("loc", "span")

    def __init__(self, loc: FieldAcc, span: int | None = None):
        self.loc = loc
        self.span = span


class PredApp(VAssertion):
    __slots__ = ("name", "args", "span")

    def __init__(self, name: str, args: list[VExpr], span: int | None = None):
        self.name = name
        self.args = args
        self.span = span


class AndA(VAssertion):
    """A conjunction of two or more parts, none of them an AndA; build it
    with `and_all`."""
    __slots__ = ("parts", "span")

    def __init__(self, parts: list[VAssertion], span: int | None = None):
        self.parts = parts
        self.span = span


class CondA(VAssertion):
    __slots__ = ("cond", "then", "els", "span")

    def __init__(self, cond: VExpr, then: VAssertion, els: VAssertion,
                 span: int | None = None):
        self.cond = cond
        self.then = then
        self.els = els
        self.span = span


class LetA(VAssertion):
    __slots__ = ("name", "bound", "body", "span")

    def __init__(self, name: str, bound: VExpr, body: VAssertion,
                 span: int | None = None):
        self.name = name
        self.bound = bound
        self.body = body
        self.span = span


def and_all(parts: list[VAssertion]) -> VAssertion:
    """The conjunction of `parts`, splicing nested AndAs; an empty list
    means `true` and a single part stands alone."""
    flat: list[VAssertion] = []
    for a in parts:
        flat.extend(conjuncts(a))
    if not flat:
        return Pure(BoolLit(True))
    return flat[0] if len(flat) == 1 else AndA(flat)


def conjuncts(a: VAssertion) -> list[VAssertion]:
    return a.parts if isinstance(a, AndA) else [a]


# -- statements ----------------------------------------------------------------


class VStmt(Record):
    __slots__ = ()


class VarDeclS(VStmt):
    __slots__ = ("name", "typ", "init", "span")

    def __init__(self, name: str, typ: VType, init: VExpr | None = None,
                 span: int | None = None):
        self.name = name
        self.typ = typ
        self.init = init
        self.span = span


class AssignS(VStmt):
    __slots__ = ("target", "value", "span")

    def __init__(self, target: VExpr, value: VExpr, span: int | None = None):
        self.target = target  # Var or FieldAcc
        self.value = value
        self.span = span


class NewS(VStmt):
    __slots__ = ("target", "fields", "declare", "span")

    def __init__(self, target: str, fields: list[str], declare: bool = False,
                 span: int | None = None):
        self.target = target
        self.fields = fields
        self.declare = declare  # True prints `var x: Ref := new(...)`
        self.span = span


class IfS(VStmt):
    __slots__ = ("cond", "then", "els", "span")

    def __init__(self, cond: VExpr, then: list[VStmt],
                 els: list[VStmt] | None = None, span: int | None = None):
        self.cond = cond
        self.then = then
        self.els = [] if els is None else els
        self.span = span


class FoldS(VStmt):
    __slots__ = ("pred", "span")

    def __init__(self, pred: PredApp, span: int | None = None):
        self.pred = pred
        self.span = span


class UnfoldS(VStmt):
    __slots__ = ("pred", "span")

    def __init__(self, pred: PredApp, span: int | None = None):
        self.pred = pred
        self.span = span


class CallS(VStmt):
    __slots__ = ("targets", "method", "args", "span")

    def __init__(self, targets: list[str], method: str, args: list[VExpr],
                 span: int | None = None):
        self.targets = targets
        self.method = method
        self.args = args
        self.span = span


# -- declarations --------------------------------------------------------------


class CtorSig(Record):
    __slots__ = ("name", "params")

    def __init__(self, name: str, params: list[tuple[str, VType]]):
        self.name = name
        self.params = params


class AdtDecl(Record):
    __slots__ = ("name", "ctors")

    def __init__(self, name: str, ctors: list[CtorSig]):
        self.name = name
        self.ctors = ctors


class FieldDecl(Record):
    __slots__ = ("name", "typ")

    def __init__(self, name: str, typ: VType):
        self.name = name
        self.typ = typ


class FunctionDecl(Record):
    __slots__ = ("name", "params", "ret", "pres", "posts", "body")

    def __init__(self, name: str, params: list[tuple[str, VType]],
                 ret: VType, pres: list[VAssertion] | None = None,
                 posts: list[VAssertion] | None = None,
                 body: VExpr | None = None):
        self.name = name
        self.params = params
        self.ret = ret
        self.pres = [] if pres is None else pres
        self.posts = [] if posts is None else posts
        self.body = body


class PredicateDecl(Record):
    __slots__ = ("name", "params", "body")

    def __init__(self, name: str, params: list[tuple[str, VType]],
                 body: VAssertion):
        self.name = name
        self.params = params
        self.body = body


class MethodDecl(Record):
    __slots__ = ("name", "params", "returns", "pres", "posts", "body", "span")

    def __init__(self, name: str, params: list[tuple[str, VType]],
                 returns: list[tuple[str, VType]],
                 pres: list[VAssertion] | None = None,
                 posts: list[VAssertion] | None = None,
                 body: list[VStmt] | None = None, span: int | None = None):
        self.name = name
        self.params = params
        self.returns = returns
        self.pres = [] if pres is None else pres
        self.posts = [] if posts is None else posts
        self.body = body  # None: abstract method (lemma)
        self.span = span


VDecl = AdtDecl | FieldDecl | FunctionDecl | PredicateDecl | MethodDecl


class ViperProgram(Record):
    __slots__ = ("decls",)

    def __init__(self, decls: list[VDecl]):
        self.decls = decls

    def methods(self) -> dict[str, MethodDecl]:
        return {d.name: d for d in self.decls if isinstance(d, MethodDecl)}

    def predicates(self) -> dict[str, PredicateDecl]:
        return {d.name: d for d in self.decls if isinstance(d, PredicateDecl)}

    def functions(self) -> dict[str, FunctionDecl]:
        return {d.name: d for d in self.decls if isinstance(d, FunctionDecl)}

    def adts(self) -> dict[str, AdtDecl]:
        return {d.name: d for d in self.decls if isinstance(d, AdtDecl)}

    def fields(self) -> dict[str, FieldDecl]:
        return {d.name: d for d in self.decls if isinstance(d, FieldDecl)}


# -- expression printing ---------------------------------------------------------

# parent precedence levels; operands at strictly lower levels get parens
_PREC = {"||": 3, "&&": 4,
         "==": 5, "!=": 5, "<": 5, "<=": 5, ">": 5, ">=": 5,
         "++": 6, "+": 7, "-": 7, "*": 8, "/": 8}
_RIGHT_ASSOC = {"++"}
_NON_ASSOC = {"==", "!=", "<", "<=", ">", ">="}
_ATOM = 10
_UNARY = 9
_LOW = 0


def _levels(op: str) -> tuple[int, int, int]:
    """The level of `op` and the floors of its left and right operands."""
    p = _PREC[op]
    if op in _RIGHT_ASSOC:
        return p, p + 1, p
    if op in _NON_ASSOC:
        return p, p + 1, p + 1
    return p, p, p + 1


_BIN_LEVELS = {op: _levels(op) for op in _PREC}


def expr_str(e: VExpr, parent: int = _LOW) -> str:
    """`e` as text, parenthesized when its level is below `parent`."""
    try:
        show = _EXPR[type(e)]
    except KeyError:
        raise TypeError(
            f"unknown expression node {type(e).__name__}") from None
    return show(e, parent)


# One handler per expression class, looked up by `expr_str` in `_EXPR`.
# Each takes (e, parent) and adds the parentheses its own level needs;
# atoms never need any.

def _int_str(e: IntLit, parent: int) -> str:
    if e.value < 0 and _UNARY < parent:
        return f"({e.value})"
    return str(e.value)


def _bool_str(e: BoolLit, parent: int) -> str:
    return "true" if e.value else "false"


def _var_str(e: Var, parent: int) -> str:
    return e.name


def _field_str(e: FieldAcc, parent: int) -> str:
    return f"{expr_str(e.base, _ATOM)}.{e.fieldname}"


def _is_str(e: IsTest, parent: int) -> str:
    return f"{expr_str(e.base, _ATOM)}.is{e.ctor}"


def _app_str(e: CtorCall | FunApp | PredApp, parent: object = None) -> str:
    # never parenthesized: it also prints a predicate instance, for
    # `_ASSERTION` (whose second argument is `under_and`) and `fold`
    return f"{e.name}({', '.join(map(expr_str, e.args))})"


def _seq_str(e: SeqLit, parent: int) -> str:
    if not e.items:
        return "Seq[Int]()"
    return f"Seq({', '.join(map(expr_str, e.items))})"


def _len_str(e: SeqLen, parent: int) -> str:
    s = expr_str(e.seq)
    # adjacent bars would lex as ||, so keep them apart
    if s.startswith("|"):
        s = " " + s
    if s.endswith("|"):
        s += " "
    return f"|{s}|"


def _binop_str(e: BinOp, parent: int) -> str:
    p, lf, rf = _BIN_LEVELS[e.op]
    text = f"{expr_str(e.left, lf)} {e.op} {expr_str(e.right, rf)}"
    return f"({text})" if p < parent else text


def _unop_str(e: UnOp, parent: int) -> str:
    text = f"{e.op}{expr_str(e.operand, _ATOM)}"
    return f"({text})" if _UNARY < parent else text


def _index_str(e: SeqIndex, parent: int) -> str:
    return f"{expr_str(e.seq, _ATOM)}[{expr_str(e.index)}]"


def _drop_str(e: SeqDrop, parent: int) -> str:
    return f"{expr_str(e.seq, _ATOM)}[{expr_str(e.lo)} ..]"


def _take_str(e: SeqTake, parent: int) -> str:
    return f"{expr_str(e.seq, _ATOM)}[.. {expr_str(e.hi)}]"


_EXPR = {IntLit: _int_str, BoolLit: _bool_str, Var: _var_str,
         FieldAcc: _field_str, IsTest: _is_str, CtorCall: _app_str,
         FunApp: _app_str, SeqLit: _seq_str, SeqLen: _len_str,
         BinOp: _binop_str, UnOp: _unop_str, SeqIndex: _index_str,
         SeqDrop: _drop_str, SeqTake: _take_str}


# -- assertion printing ----------------------------------------------------------


def _assertion_str(a: VAssertion, under_and: bool = False) -> str:
    """`a` as text, parenthesized when it is a conjunct (`under_and`) that
    would otherwise swallow the conjuncts after it."""
    try:
        show = _ASSERTION[type(a)]
    except KeyError:
        raise TypeError(f"unknown assertion node {type(a).__name__}") from None
    return show(a, under_and)


# One handler per assertion class, looked up by `_assertion_str` in
# `_ASSERTION`; each takes (a, under_and).

def _pure_str(a: Pure, under_and: bool) -> str:
    # floor 5 keeps pure conjuncts unambiguous against && and ? :
    return expr_str(a.expr, 5)


def _acc_str(a: Acc, under_and: bool) -> str:
    return f"acc({expr_str(a.loc)})"


def _and_str(a: AndA, under_and: bool) -> str:
    parts = a.parts
    rendered = []
    for i, c in enumerate(parts):
        # a trailing let can stay bare: its body just runs to the end
        bare = i == len(parts) - 1 and isinstance(c, LetA)
        rendered.append(_assertion_str(c, under_and=not bare))
    text = " && ".join(rendered)
    return f"({text})" if under_and else text


def _cond_str(a: CondA, under_and: bool) -> str:
    # ?: binds loosest, so the branches never need parentheses
    text = (f"{expr_str(a.cond, 5)} ? {_assertion_str(a.then)} : "
            f"{_assertion_str(a.els)}")
    return f"({text})" if under_and else text


def _let_str(a: LetA, under_and: bool) -> str:
    text = (f"let {a.name} == ({expr_str(a.bound)}) in "
            f"{_assertion_str(a.body)}")
    return f"({text})" if under_and else text


_ASSERTION = {Pure: _pure_str, Acc: _acc_str, PredApp: _app_str,
              AndA: _and_str, CondA: _cond_str, LetA: _let_str}


def _emit_assertion(out: list[str], a: VAssertion, indent: str,
                    head: str = "") -> None:
    """One line if it fits, else one conjunct per line with trailing &&."""
    flat = _assertion_str(a)
    if len(indent) + len(head) + len(flat) <= WIDTH:
        out.append(f"{indent}{head}{flat}")
        return
    if isinstance(a, CondA):
        out.append(f"{indent}{head}{expr_str(a.cond, 5)} ?")
        _emit_assertion(out, a.then, indent + "  ")
        out[-1] += " :"
        _emit_assertion(out, a.els, indent + "  ")
        return
    if isinstance(a, LetA):
        out.append(f"{indent}{head}let {a.name} == ({expr_str(a.bound)}) in")
        _emit_assertion(out, a.body, indent + "  " if head else indent)
        return
    parts = conjuncts(a)
    if len(parts) == 1:
        out.append(f"{indent}{head}{flat}")
        return
    for i, part in enumerate(parts):
        lead = head if i == 0 else ""
        tail = " &&" if i < len(parts) - 1 else ""
        if i == len(parts) - 1 and isinstance(part, LetA):
            _emit_assertion(out, part, indent, lead)
            continue
        piece = _assertion_str(part, under_and=True)
        if (len(indent) + len(lead) + len(piece) + len(tail) <= WIDTH
                or not isinstance(part, (CondA, LetA))):
            out.append(f"{indent}{lead}{piece}{tail}")
        else:
            # keep the parentheses a conjunct needs, but break inside them
            _emit_assertion(out, part, indent, lead + "(")
            out[-1] += f"){tail}"


# -- statement printing -----------------------------------------------------------


def stmt_lines(s: VStmt, indent: str) -> list[str]:
    try:
        show = _STMT[type(s)]
    except KeyError:
        raise TypeError(f"unknown statement node {type(s).__name__}") from None
    return show(s, indent)


# One handler per statement class, looked up by `stmt_lines` in `_STMT`;
# each takes (s, indent).

def _var_lines(s: VarDeclS, indent: str) -> list[str]:
    if s.init is None:
        return [f"{indent}var {s.name}: {s.typ}"]
    return [f"{indent}var {s.name}: {s.typ} := {expr_str(s.init)}"]


def _assign_lines(s: AssignS, indent: str) -> list[str]:
    return [f"{indent}{expr_str(s.target)} := {expr_str(s.value)}"]


def _new_lines(s: NewS, indent: str) -> list[str]:
    call = f"new({', '.join(s.fields)})"
    if s.declare:
        return [f"{indent}var {s.target}: Ref := {call}"]
    return [f"{indent}{s.target} := {call}"]


def _if_lines(s: IfS, indent: str) -> list[str]:
    # Inner statements go to their handlers directly (stmt_lines only when
    # a class has none, to raise): a match nests one `if` per arm, and this
    # keeps it to one frame per level, as the recursion does without tables.
    inner = indent + "  "
    lines = [f"{indent}if ({expr_str(s.cond)}) {{"]
    for t in s.then:
        lines += _STMT.get(type(t), stmt_lines)(t, inner)
    if s.els:
        lines.append(f"{indent}}} else {{")
        for t in s.els:
            lines += _STMT.get(type(t), stmt_lines)(t, inner)
    lines.append(f"{indent}}}")
    return lines


def _fold_lines(s: FoldS, indent: str) -> list[str]:
    return [f"{indent}fold {_app_str(s.pred)}"]


def _unfold_lines(s: UnfoldS, indent: str) -> list[str]:
    return [f"{indent}unfold {_app_str(s.pred)}"]


def _call_lines(s: CallS, indent: str) -> list[str]:
    call = f"{s.method}({', '.join(map(expr_str, s.args))})"
    if s.targets:
        return [f"{indent}{', '.join(s.targets)} := {call}"]
    return [f"{indent}{call}"]


_STMT = {VarDeclS: _var_lines, AssignS: _assign_lines, NewS: _new_lines,
         IfS: _if_lines, FoldS: _fold_lines, UnfoldS: _unfold_lines,
         CallS: _call_lines}


def pretty_stmts(stmts: list[VStmt], indent: str = "") -> str:
    lines: list[str] = []
    for s in stmts:
        lines += stmt_lines(s, indent)
    return "\n".join(lines)


# -- declaration printing -----------------------------------------------------------


def _params_str(params: list[tuple[str, VType]]) -> str:
    return ", ".join(f"{n}: {t}" for n, t in params)


def decl_lines(d: VDecl) -> list[str]:
    try:
        show = _DECL[type(d)]
    except KeyError:
        raise TypeError(
            f"unknown declaration node {type(d).__name__}") from None
    return show(d)


# One handler per declaration class, looked up by `decl_lines` in `_DECL`.

def _adt_lines(d: AdtDecl) -> list[str]:
    lines = [f"adt {d.name} {{"]
    for c in d.ctors:
        lines.append(f"  {c.name}({_params_str(c.params)})")
    lines.append("}")
    return lines


def _field_lines(d: FieldDecl) -> list[str]:
    return [f"field {d.name}: {d.typ}"]


def _emit_contract(lines: list[str], d: FunctionDecl | MethodDecl) -> None:
    for a in d.pres:
        _emit_assertion(lines, a, "  ", "requires ")
    for a in d.posts:
        _emit_assertion(lines, a, "  ", "ensures ")


def _function_lines(d: FunctionDecl) -> list[str]:
    lines = [f"function {d.name}({_params_str(d.params)}): {d.ret}"]
    _emit_contract(lines, d)
    if d.body is not None:
        lines += ["{", f"  {expr_str(d.body)}", "}"]
    return lines


def _predicate_lines(d: PredicateDecl) -> list[str]:
    lines = [f"predicate {d.name}({_params_str(d.params)}) {{"]
    _emit_assertion(lines, d.body, "  ")
    lines.append("}")
    return lines


def _method_lines(d: MethodDecl) -> list[str]:
    sig = f"method {d.name}({_params_str(d.params)})"
    if d.returns:
        sig += f" returns ({_params_str(d.returns)})"
    lines = [sig]
    _emit_contract(lines, d)
    if d.body is not None:
        lines.append("{")
        for s in d.body:
            lines += stmt_lines(s, "  ")
        lines.append("}")
    return lines


_DECL = {AdtDecl: _adt_lines, FieldDecl: _field_lines,
         FunctionDecl: _function_lines, PredicateDecl: _predicate_lines,
         MethodDecl: _method_lines}


def pretty(program: ViperProgram) -> str:
    chunks = ["\n".join(decl_lines(d)) for d in program.decls]
    return "\n\n".join(chunks) + ("\n" if chunks else "")


# -- tokenizer and golden equality ---------------------------------------------------

_SYMBOLS = ("==>", "==", "!=", "<=", ">=", "&&", "||", "++", ":=", "..",
            "?", ":", "(", ")", "{", "}", "[", "]", ",", ".", "|", "=",
            "<", ">", "+", "-", "*", "/", "!")

# Trivia, then one token: an identifier (the caller rejects a non-letter
# start), an integer, an unterminated comment opener, or a symbol.
_VTOKEN = re.compile(r"(?:[\s;]+|//[^\n]*\n?|/\*.*?\*/)*"
                     r"(?:([^\W\d][\w']*)|(\d+)|(/\*)|(%s))?"
                     % "|".join(map(re.escape, _SYMBOLS)), re.S)
_VKINDS = (None, "ident", "int", None, "sym")


class VToken(Record):
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind  # "ident", "int", "sym"
        self.text = text
        self.pos = pos

    def __hash__(self) -> int:
        return hash((self.kind, self.text, self.pos))


class ViperLexError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(message)
        self.pos = pos


def lex_viper(text: str) -> list[VToken]:
    """Tokenize Viper text.  Whitespace, semicolons and // and /* */
    comments are trivia; stray semicolons in hand-written goldens never
    matter.  Integers are decimal digits only, as `int` reads them."""
    toks: list[VToken] = []
    append, match = toks.append, _VTOKEN.match
    i, n = 0, len(text)
    while True:
        m = match(text, i)
        group = m.lastindex
        if group is None:
            i = m.end()
            if i == n:
                return toks
            raise ViperLexError(f"unexpected character {text[i]!r}", i)
        start, i = m.span(group)
        word = text[start:i]
        if group == 3:
            raise ViperLexError("unterminated comment", start)
        if group == 1 and not (word[0].isalpha() or word[0] == "_"):
            raise ViperLexError(f"unexpected character {word[0]!r}", start)
        append(VToken(_VKINDS[group], word, start))


def token_texts(text: str) -> list[str]:
    return [t.text for t in lex_viper(text)]


def golden_equal(a: str, b: str) -> bool:
    """Equality up to whitespace, comments, and semicolon trivia."""
    return token_texts(a) == token_texts(b)
