"""Viper output language: AST, pretty printer, tokenizer, golden equality.

Golden comparisons are token-stream equality of pretty-printed text, so
layout (indentation, line breaks, stray semicolons, comments) never
affects a test verdict.  The printer still aims for readable output:
two-space indent, blank line between declarations, conjunction chains
split one conjunct per line once a line would run past 80 columns.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

WIDTH = 80

# -- types -------------------------------------------------------------------


@dataclass(frozen=True)
class VType:
    name: str

    def __str__(self) -> str:
        return self.name


INT = VType("Int")
BOOL = VType("Bool")
REF = VType("Ref")
SEQ_INT = VType("Seq[Int]")


# -- expressions ---------------------------------------------------------------


class VExpr:
    pass


@dataclass
class IntLit(VExpr):
    value: int


@dataclass
class BoolLit(VExpr):
    value: bool


@dataclass
class Var(VExpr):
    name: str


@dataclass
class FieldAcc(VExpr):
    base: VExpr
    fieldname: str


@dataclass
class IsTest(VExpr):
    base: VExpr
    ctor: str  # prints `.is<Ctor>`


@dataclass
class CtorCall(VExpr):
    name: str
    args: list[VExpr]


@dataclass
class FunApp(VExpr):
    name: str
    args: list[VExpr]


@dataclass
class SeqLit(VExpr):
    items: list[VExpr]  # [] prints Seq[Int]()


@dataclass
class SeqLen(VExpr):
    seq: VExpr


@dataclass
class BinOp(VExpr):
    op: str
    left: VExpr
    right: VExpr


@dataclass
class UnOp(VExpr):
    op: str
    operand: VExpr


@dataclass
class SeqIndex(VExpr):
    seq: VExpr
    index: VExpr


@dataclass
class SeqDrop(VExpr):
    seq: VExpr
    lo: VExpr  # v[lo ..]


@dataclass
class SeqTake(VExpr):
    seq: VExpr
    hi: VExpr  # v[.. hi]


# -- assertions ----------------------------------------------------------------


class VAssertion:
    pass


@dataclass
class Pure(VAssertion):
    expr: VExpr
    span: object = field(default=None, compare=False, repr=False)


@dataclass
class Acc(VAssertion):
    loc: FieldAcc
    span: object = field(default=None, compare=False, repr=False)


@dataclass
class PredApp(VAssertion):
    name: str
    args: list[VExpr]
    span: object = field(default=None, compare=False, repr=False)


@dataclass
class AndA(VAssertion):
    """A conjunction of two or more parts, none of them an AndA; build it
    with `and_all`."""
    parts: list[VAssertion]
    span: object = field(default=None, compare=False, repr=False)


@dataclass
class CondA(VAssertion):
    cond: VExpr
    then: VAssertion
    els: VAssertion
    span: object = field(default=None, compare=False, repr=False)


@dataclass
class LetA(VAssertion):
    name: str
    bound: VExpr
    body: VAssertion
    span: object = field(default=None, compare=False, repr=False)


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


class VStmt:
    pass


@dataclass
class VarDeclS(VStmt):
    name: str
    typ: VType
    init: VExpr | None = None
    span: object = field(default=None, compare=False, repr=False)


@dataclass
class AssignS(VStmt):
    target: VExpr  # Var or FieldAcc
    value: VExpr
    span: object = field(default=None, compare=False, repr=False)


@dataclass
class NewS(VStmt):
    target: str
    fields: list[str]
    declare: bool = False  # True prints `var x: Ref := new(...)`
    span: object = field(default=None, compare=False, repr=False)


@dataclass
class IfS(VStmt):
    cond: VExpr
    then: list[VStmt]
    els: list[VStmt] = field(default_factory=list)
    span: object = field(default=None, compare=False, repr=False)


@dataclass
class FoldS(VStmt):
    pred: PredApp
    span: object = field(default=None, compare=False, repr=False)


@dataclass
class UnfoldS(VStmt):
    pred: PredApp
    span: object = field(default=None, compare=False, repr=False)


@dataclass
class CallS(VStmt):
    targets: list[str]
    method: str
    args: list[VExpr]
    span: object = field(default=None, compare=False, repr=False)


# -- declarations --------------------------------------------------------------


@dataclass
class CtorSig:
    name: str
    params: list[tuple[str, VType]]


@dataclass
class AdtDecl:
    name: str
    ctors: list[CtorSig]


@dataclass
class FieldDecl:
    name: str
    typ: VType


@dataclass
class FunctionDecl:
    name: str
    params: list[tuple[str, VType]]
    ret: VType
    pres: list[VAssertion] = field(default_factory=list)
    posts: list[VAssertion] = field(default_factory=list)
    body: VExpr | None = None


@dataclass
class PredicateDecl:
    name: str
    params: list[tuple[str, VType]]
    body: VAssertion


@dataclass
class MethodDecl:
    name: str
    params: list[tuple[str, VType]]
    returns: list[tuple[str, VType]]
    pres: list[VAssertion] = field(default_factory=list)
    posts: list[VAssertion] = field(default_factory=list)
    body: list[VStmt] | None = None  # None: abstract method (lemma)


VDecl = AdtDecl | FieldDecl | FunctionDecl | PredicateDecl | MethodDecl


@dataclass
class ViperProgram:
    decls: list[VDecl]

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


def expr_str(e: VExpr, parent: int = _LOW) -> str:
    text, prec = _expr(e)
    if prec < parent:
        return f"({text})"
    return text


def _expr(e: VExpr) -> tuple[str, int]:
    if isinstance(e, IntLit):
        if e.value < 0:
            return str(e.value), _UNARY
        return str(e.value), _ATOM
    if isinstance(e, BoolLit):
        return ("true" if e.value else "false"), _ATOM
    if isinstance(e, Var):
        return e.name, _ATOM
    if isinstance(e, FieldAcc):
        return f"{expr_str(e.base, _ATOM)}.{e.fieldname}", _ATOM
    if isinstance(e, IsTest):
        return f"{expr_str(e.base, _ATOM)}.is{e.ctor}", _ATOM
    if isinstance(e, (CtorCall, FunApp)):
        args = ", ".join(expr_str(a) for a in e.args)
        return f"{e.name}({args})", _ATOM
    if isinstance(e, SeqLit):
        if not e.items:
            return "Seq[Int]()", _ATOM
        return "Seq(" + ", ".join(expr_str(a) for a in e.items) + ")", _ATOM
    if isinstance(e, SeqLen):
        s = expr_str(e.seq)
        # adjacent bars would lex as ||, so keep them apart
        if s.startswith("|"):
            s = " " + s
        if s.endswith("|"):
            s += " "
        return f"|{s}|", _ATOM
    if isinstance(e, BinOp):
        p = _PREC[e.op]
        if e.op in _RIGHT_ASSOC:
            lf, rf = p + 1, p
        elif e.op in _NON_ASSOC:
            lf, rf = p + 1, p + 1
        else:
            lf, rf = p, p + 1
        return f"{expr_str(e.left, lf)} {e.op} {expr_str(e.right, rf)}", p
    if isinstance(e, UnOp):
        return f"{e.op}{expr_str(e.operand, _ATOM)}", _UNARY
    if isinstance(e, SeqIndex):
        return f"{expr_str(e.seq, _ATOM)}[{expr_str(e.index)}]", _ATOM
    if isinstance(e, SeqDrop):
        return f"{expr_str(e.seq, _ATOM)}[{expr_str(e.lo)} ..]", _ATOM
    if isinstance(e, SeqTake):
        return f"{expr_str(e.seq, _ATOM)}[.. {expr_str(e.hi)}]", _ATOM
    raise TypeError(f"unknown expression node {type(e).__name__}")


def _pred_str(p: PredApp) -> str:
    return f"{p.name}(" + ", ".join(expr_str(a) for a in p.args) + ")"


# -- assertion printing ----------------------------------------------------------


def _assertion_str(a: VAssertion, under_and: bool = False) -> str:
    if isinstance(a, Pure):
        # floor 5 keeps pure conjuncts unambiguous against && and ? :
        return expr_str(a.expr, 5)
    if isinstance(a, Acc):
        return f"acc({expr_str(a.loc)})"
    if isinstance(a, PredApp):
        return _pred_str(a)
    if isinstance(a, AndA):
        parts = conjuncts(a)
        rendered = []
        for i, c in enumerate(parts):
            # a trailing let can stay bare: its body just runs to the end
            bare = i == len(parts) - 1 and isinstance(c, LetA)
            rendered.append(_assertion_str(c, under_and=not bare))
        text = " && ".join(rendered)
        return f"({text})" if under_and else text
    if isinstance(a, CondA):
        # ?: binds loosest, so the branches never need parentheses
        text = (f"{expr_str(a.cond, 5)} ? {_assertion_str(a.then)} : "
                f"{_assertion_str(a.els)}")
        return f"({text})" if under_and else text
    if isinstance(a, LetA):
        text = (f"let {a.name} == ({expr_str(a.bound)}) in "
                f"{_assertion_str(a.body)}")
        return f"({text})" if under_and else text
    raise TypeError(f"unknown assertion node {type(a).__name__}")


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
    if isinstance(s, VarDeclS):
        if s.init is None:
            return [f"{indent}var {s.name}: {s.typ}"]
        return [f"{indent}var {s.name}: {s.typ} := {expr_str(s.init)}"]
    if isinstance(s, AssignS):
        return [f"{indent}{expr_str(s.target)} := {expr_str(s.value)}"]
    if isinstance(s, NewS):
        call = f"new({', '.join(s.fields)})"
        if s.declare:
            return [f"{indent}var {s.target}: Ref := {call}"]
        return [f"{indent}{s.target} := {call}"]
    if isinstance(s, IfS):
        lines = [f"{indent}if ({expr_str(s.cond)}) {{"]
        for inner in s.then:
            lines.extend(stmt_lines(inner, indent + "  "))
        if s.els:
            lines.append(f"{indent}}} else {{")
            for inner in s.els:
                lines.extend(stmt_lines(inner, indent + "  "))
        lines.append(f"{indent}}}")
        return lines
    if isinstance(s, FoldS):
        return [f"{indent}fold {_pred_str(s.pred)}"]
    if isinstance(s, UnfoldS):
        return [f"{indent}unfold {_pred_str(s.pred)}"]
    if isinstance(s, CallS):
        call = f"{s.method}(" + ", ".join(expr_str(a) for a in s.args) + ")"
        if s.targets:
            return [f"{indent}{', '.join(s.targets)} := {call}"]
        return [f"{indent}{call}"]
    raise TypeError(f"unknown statement node {type(s).__name__}")


def pretty_stmts(stmts: list[VStmt], indent: str = "") -> str:
    lines: list[str] = []
    for s in stmts:
        lines.extend(stmt_lines(s, indent))
    return "\n".join(lines)


# -- declaration printing -----------------------------------------------------------


def _params_str(params: list[tuple[str, VType]]) -> str:
    return ", ".join(f"{n}: {t}" for n, t in params)


def decl_lines(d: VDecl) -> list[str]:
    if isinstance(d, AdtDecl):
        lines = [f"adt {d.name} {{"]
        for c in d.ctors:
            lines.append(f"  {c.name}({_params_str(c.params)})")
        lines.append("}")
        return lines
    if isinstance(d, FieldDecl):
        return [f"field {d.name}: {d.typ}"]
    if isinstance(d, FunctionDecl):
        lines = [f"function {d.name}({_params_str(d.params)}): {d.ret}"]
        for a in d.pres:
            _emit_assertion(lines, a, "  ", "requires ")
        for a in d.posts:
            _emit_assertion(lines, a, "  ", "ensures ")
        if d.body is not None:
            lines.append("{")
            lines.append(f"  {expr_str(d.body)}")
            lines.append("}")
        return lines
    if isinstance(d, PredicateDecl):
        lines = [f"predicate {d.name}({_params_str(d.params)}) {{"]
        _emit_assertion(lines, d.body, "  ")
        lines.append("}")
        return lines
    if isinstance(d, MethodDecl):
        sig = f"method {d.name}({_params_str(d.params)})"
        if d.returns:
            sig += f" returns ({_params_str(d.returns)})"
        lines = [sig]
        for a in d.pres:
            _emit_assertion(lines, a, "  ", "requires ")
        for a in d.posts:
            _emit_assertion(lines, a, "  ", "ensures ")
        if d.body is not None:
            lines.append("{")
            for s in d.body:
                lines.extend(stmt_lines(s, "  "))
            lines.append("}")
        return lines
    raise TypeError(f"unknown declaration node {type(d).__name__}")


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


@dataclass(frozen=True, slots=True)
class VToken:
    kind: str  # "ident", "int", "sym"
    text: str
    pos: int


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
