"""Viper output language: AST, operators, printer, tokenizer, golden equality.

Every node is a `Record`, as in `surface`: a plain class with
`__slots__`, whose constructor takes the slots in order with the defaults
its class header names, and the abstract bases declare no slots, so no
node has a `__dict__`.  An assertion, statement or method keeps the
source offset it came from in `span`, an `int` or None (see
`diagnostics`).  Equality and repr are those a dataclass would give, and
leave out `span`.  Types and tokens are hashed by value; the other nodes
are not hashable.  `BINARY` declares each binary operator once, for
every stage.  Each printer keeps a handler per node class in one table
(`_EXPR`, `_ASSERTION`, `_STMT`, `_DECL`), and a handler prints its
children with their handlers straight from it; an expression handler
adds the parentheses its level in `LEVELS` needs, so printing a node
costs one call.  `expr_str`, `_assertion_str`, `stmt_lines` and
`decl_lines` are the entries from outside.

Golden comparisons are token-stream equality of pretty-printed text, so
layout (indentation, line breaks, stray semicolons, comments) never
affects a test verdict.  The printer still aims for readable output:
two-space indent, blank line between declarations, conjunction chains
split one conjunct per line once a line would run past 80 columns.
"""

from __future__ import annotations

import operator
import re

from .diagnostics import Handlers, Record

WIDTH = 80

# -- types -------------------------------------------------------------------


class VType(Record):
    __slots__ = ("name",)

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


class BoolLit(VExpr):
    __slots__ = ("value",)


class Var(VExpr):
    __slots__ = ("name",)


class FieldAcc(VExpr):
    __slots__ = ("base", "fieldname")


class IsTest(VExpr):
    __slots__ = ("base",
                 "ctor")  # prints `.is<Ctor>`


class CtorCall(VExpr):
    __slots__ = ("name", "args")


class FunApp(VExpr):
    __slots__ = ("name", "args")


class SeqLit(VExpr):
    __slots__ = ("items",)  # [] prints Seq[Int]()


class SeqLen(VExpr):
    __slots__ = ("seq",)


class BinOp(VExpr):
    __slots__ = ("op", "left", "right")


class UnOp(VExpr):
    __slots__ = ("op", "operand")


class SeqIndex(VExpr):
    __slots__ = ("seq", "index")


class SeqDrop(VExpr):
    __slots__ = ("seq",
                 "lo")  # v[lo ..]


class SeqTake(VExpr):
    __slots__ = ("seq",
                 "hi")  # v[.. hi]


# -- assertions ----------------------------------------------------------------


class VAssertion(Record):
    __slots__ = ()


class Pure(VAssertion, span=None):
    __slots__ = ("expr", "span")


class Acc(VAssertion, span=None):
    __slots__ = ("loc", "span")


class PredApp(VAssertion, span=None):
    __slots__ = ("name", "args", "span")


class AndA(VAssertion, span=None):
    """A conjunction of two or more parts, none of them an AndA; build it
    with `and_all`."""
    __slots__ = ("parts", "span")


class CondA(VAssertion, span=None):
    __slots__ = ("cond", "then", "els", "span")


class LetA(VAssertion, span=None):
    __slots__ = ("name", "bound", "body", "span")


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


class VarDeclS(VStmt, init=None, span=None):
    __slots__ = ("name", "typ", "init", "span")


class AssignS(VStmt, span=None):
    __slots__ = ("target",  # Var or FieldAcc
                 "value", "span")


class NewS(VStmt, declare=False, span=None):
    __slots__ = ("target", "fields",
                 "declare",  # True prints `var x: Ref := new(...)`
                 "span")


class IfS(VStmt, els=[], span=None):
    __slots__ = ("cond", "then", "els", "span")


class FoldS(VStmt, span=None):
    __slots__ = ("pred", "span")


class UnfoldS(VStmt, span=None):
    __slots__ = ("pred", "span")


class CallS(VStmt, span=None):
    __slots__ = ("targets", "method", "args", "span")


# -- declarations --------------------------------------------------------------


class CtorSig(Record):
    __slots__ = ("name", "params")


class AdtDecl(Record):
    __slots__ = ("name", "ctors")


class FieldDecl(Record):
    __slots__ = ("name", "typ")


class FunctionDecl(Record, pres=[], posts=[], body=None):
    __slots__ = ("name", "params", "ret", "pres", "posts", "body")


class PredicateDecl(Record):
    __slots__ = ("name", "params", "body")


class MethodDecl(Record, pres=[], posts=[], body=None, span=None):
    __slots__ = ("name", "params", "returns", "pres", "posts",
                 "body",  # None: abstract method (lemma)
                 "span")


VDecl = AdtDecl | FieldDecl | FunctionDecl | PredicateDecl | MethodDecl


class ViperProgram(Record):
    __slots__ = ("decls",)

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


# -- binary operators ------------------------------------------------------------


class BinaryOp(Record):
    """A binary operator: its `surface` and `viper` text, its precedence
    `prec` (tighter is higher), how a chain of it groups (`group`: "left",
    "right" or "none"), and the function that folds two int literals
    (`fold`), or None where the checker has a rule of its own."""
    __slots__ = ("surface", "viper", "prec", "group", "fold")


def _div(a: int, b: int) -> int | None:
    """Truncating division; None, no fold, for a zero divisor."""
    if b == 0:
        return None
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


# Every binary operator, loosest first; each stage derives what it reads.
BINARY = (
    BinaryOp("||", "||", 1, "left", None),
    BinaryOp("&&", "&&", 2, "left", None),
    BinaryOp("=", "==", 3, "none", None),
    BinaryOp("<>", "!=", 3, "none", None),
    BinaryOp("<", "<", 3, "none", operator.lt),
    BinaryOp("<=", "<=", 3, "none", operator.le),
    BinaryOp(">", ">", 3, "none", operator.gt),
    BinaryOp(">=", ">=", 3, "none", operator.ge),
    BinaryOp("++", "++", 4, "right", None),
    BinaryOp("+", "+", 5, "left", operator.add),
    BinaryOp("-", "-", 5, "left", operator.sub),
    BinaryOp("*", "*", 6, "left", operator.mul),
    BinaryOp("/", "/", 6, "left", _div))

# By Viper text: the operator's level, and the floors of its left and right
# operands.  The printer parenthesizes an operand of a lower level, and the
# parsers take an operator only after a left operand that reaches its floor.
LEVELS = {op.viper: (op.prec, op.prec if op.group == "left" else op.prec + 1,
                     op.prec if op.group == "right" else op.prec + 1)
          for op in BINARY}
# The loosest level, the comparisons' level, and the prefix operators',
# tighter than every binary one; an atom is tighter still.
LOW, CMP, UNARY = BINARY[0].prec, LEVELS["=="][0], BINARY[-1].prec + 1
_ATOM = UNARY + 1


# -- expression printing ---------------------------------------------------------


def expr_str(e: VExpr, parent: int = LOW) -> str:
    """`e` as text, parenthesized when its level is below `parent`."""
    return _EXPR[type(e)](e, parent)


# One handler per expression class, in `_EXPR`.  Each takes (e, parent)
# and adds the parentheses its own level needs; atoms never need any.

def _int_str(e: IntLit, parent: int) -> str:
    if e.value < 0 and UNARY < parent:
        return f"({e.value})"
    return str(e.value)


def _bool_str(e: BoolLit, parent: int) -> str:
    return "true" if e.value else "false"


def _var_str(e: Var, parent: int) -> str:
    return e.name


def _field_str(e: FieldAcc, parent: int) -> str:
    base = e.base
    if type(base) is Var:  # `_var_str`
        return f"{base.name}.{e.fieldname}"
    return f"{_EXPR[type(base)](base, _ATOM)}.{e.fieldname}"


def _is_str(e: IsTest, parent: int) -> str:
    return f"{_EXPR[type(e.base)](e.base, _ATOM)}.is{e.ctor}"


def _app_str(e: CtorCall | FunApp | PredApp, parent: object = None) -> str:
    # never parenthesized: it also prints a predicate instance, for
    # `_ASSERTION` (whose second argument is `under_and`) and `fold`
    return f"{e.name}({', '.join([_EXPR[type(x)](x, LOW) for x in e.args])})"


def _seq_str(e: SeqLit, parent: int) -> str:
    if not e.items:
        return "Seq[Int]()"
    return f"Seq({', '.join([_EXPR[type(x)](x, LOW) for x in e.items])})"


def _len_str(e: SeqLen, parent: int) -> str:
    s = _EXPR[type(e.seq)](e.seq, LOW)
    # adjacent bars would lex as ||, so keep them apart
    if s.startswith("|"):
        s = " " + s
    if s.endswith("|"):
        s += " "
    return f"|{s}|"


def _binop_str(e: BinOp, parent: int) -> str:
    p, lf, rf = LEVELS[e.op]
    left, right = e.left, e.right
    text = (f"{_EXPR[type(left)](left, lf)} {e.op} "
            f"{_EXPR[type(right)](right, rf)}")
    return f"({text})" if p < parent else text


def _unop_str(e: UnOp, parent: int) -> str:
    text = f"{e.op}{_EXPR[type(e.operand)](e.operand, _ATOM)}"
    return f"({text})" if UNARY < parent else text


def _index_str(e: SeqIndex, parent: int) -> str:
    return (f"{_EXPR[type(e.seq)](e.seq, _ATOM)}"
            f"[{_EXPR[type(e.index)](e.index, LOW)}]")


def _drop_str(e: SeqDrop, parent: int) -> str:
    return (f"{_EXPR[type(e.seq)](e.seq, _ATOM)}"
            f"[{_EXPR[type(e.lo)](e.lo, LOW)} ..]")


def _take_str(e: SeqTake, parent: int) -> str:
    return (f"{_EXPR[type(e.seq)](e.seq, _ATOM)}"
            f"[.. {_EXPR[type(e.hi)](e.hi, LOW)}]")


_EXPR = Handlers({
    IntLit: _int_str, BoolLit: _bool_str, Var: _var_str,
    FieldAcc: _field_str, IsTest: _is_str, CtorCall: _app_str,
    FunApp: _app_str, SeqLit: _seq_str, SeqLen: _len_str, BinOp: _binop_str,
    UnOp: _unop_str, SeqIndex: _index_str, SeqDrop: _drop_str,
    SeqTake: _take_str}, unknown="unknown expression node")


# -- assertion printing ----------------------------------------------------------


def _assertion_str(a: VAssertion, under_and: bool = False) -> str:
    """`a` as text, parenthesized when it is a conjunct (`under_and`) that
    would otherwise swallow the conjuncts after it."""
    return _ASSERTION[type(a)](a, under_and)


# One handler per assertion class, in `_ASSERTION`; each takes (a,
# under_and).

def _pure_str(a: Pure, under_and: bool) -> str:
    # the comparisons' floor keeps pure conjuncts unambiguous against &&
    # and ? :
    return _EXPR[type(a.expr)](a.expr, CMP)


def _acc_str(a: Acc, under_and: bool) -> str:
    return f"acc({_EXPR[type(a.loc)](a.loc, LOW)})"


def _and_str(a: AndA, under_and: bool) -> str:
    last = len(a.parts) - 1
    # a trailing let can stay bare: its body just runs to the end
    text = " && ".join([_ASSERTION[type(c)](c, i < last or type(c) is not LetA)
                        for i, c in enumerate(a.parts)])
    return f"({text})" if under_and else text


def _cond_str(a: CondA, under_and: bool) -> str:
    # ?: binds loosest, so the branches never need parentheses
    then, els = a.then, a.els
    text = (f"{_EXPR[type(a.cond)](a.cond, CMP)} ? "
            f"{_ASSERTION[type(then)](then, False)} : "
            f"{_ASSERTION[type(els)](els, False)}")
    return f"({text})" if under_and else text


def _let_str(a: LetA, under_and: bool) -> str:
    text = (f"let {a.name} == ({_EXPR[type(a.bound)](a.bound, LOW)}) in "
            f"{_ASSERTION[type(a.body)](a.body, False)}")
    return f"({text})" if under_and else text


_ASSERTION = Handlers({
    Pure: _pure_str, Acc: _acc_str, PredApp: _app_str, AndA: _and_str,
    CondA: _cond_str, LetA: _let_str}, unknown="unknown assertion node")


def _emit_assertion(out: list[str], a: VAssertion, indent: str,
                    head: str = "") -> None:
    """One line if it fits, else one conjunct per line with trailing &&."""
    flat = _ASSERTION[type(a)](a, False)
    if len(indent) + len(head) + len(flat) <= WIDTH:
        out.append(f"{indent}{head}{flat}")
        return
    if isinstance(a, CondA):
        out.append(f"{indent}{head}{expr_str(a.cond, CMP)} ?")
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
        piece = _ASSERTION[type(part)](part, True)
        if (len(indent) + len(lead) + len(piece) + len(tail) <= WIDTH
                or not isinstance(part, (CondA, LetA))):
            out.append(f"{indent}{lead}{piece}{tail}")
        else:
            # keep the parentheses a conjunct needs, but break inside them
            _emit_assertion(out, part, indent, lead + "(")
            out[-1] += f"){tail}"


# -- statement printing -----------------------------------------------------------


def stmt_lines(s: VStmt, indent: str) -> list[str]:
    return _STMT[type(s)](s, indent)


# One handler per statement class, in `_STMT`; each takes (s, indent).

def _var_lines(s: VarDeclS, indent: str) -> list[str]:
    e = s.init
    if e is None:
        return [f"{indent}var {s.name}: {s.typ}"]
    return [f"{indent}var {s.name}: {s.typ} := {_EXPR[type(e)](e, LOW)}"]


def _assign_lines(s: AssignS, indent: str) -> list[str]:
    target, value = s.target, s.value
    return [f"{indent}{_EXPR[type(target)](target, LOW)} := "
            f"{_EXPR[type(value)](value, LOW)}"]


def _new_lines(s: NewS, indent: str) -> list[str]:
    call = f"new({', '.join(s.fields)})"
    if s.declare:
        return [f"{indent}var {s.target}: Ref := {call}"]
    return [f"{indent}{s.target} := {call}"]


def _if_lines(s: IfS, indent: str) -> list[str]:
    # a match nests one `if` per arm: going to the inner statements'
    # handlers directly keeps it to one frame per level
    inner = indent + "  "
    lines = [f"{indent}if ({_EXPR[type(s.cond)](s.cond, LOW)}) {{"]
    for t in s.then:
        lines += _STMT[type(t)](t, inner)
    if s.els:
        lines.append(f"{indent}}} else {{")
        for t in s.els:
            lines += _STMT[type(t)](t, inner)
    lines.append(f"{indent}}}")
    return lines


def _fold_lines(s: FoldS, indent: str) -> list[str]:
    return [f"{indent}fold {_app_str(s.pred)}"]


def _unfold_lines(s: UnfoldS, indent: str) -> list[str]:
    return [f"{indent}unfold {_app_str(s.pred)}"]


def _call_lines(s: CallS, indent: str) -> list[str]:
    args = ", ".join([_EXPR[type(x)](x, LOW) for x in s.args])
    call = f"{s.method}({args})"
    if s.targets:
        return [f"{indent}{', '.join(s.targets)} := {call}"]
    return [f"{indent}{call}"]


_STMT = Handlers({
    VarDeclS: _var_lines, AssignS: _assign_lines, NewS: _new_lines,
    IfS: _if_lines, FoldS: _fold_lines, UnfoldS: _unfold_lines,
    CallS: _call_lines}, unknown="unknown statement node")


def pretty_stmts(stmts: list[VStmt], indent: str = "") -> str:
    lines: list[str] = []
    for s in stmts:
        lines += stmt_lines(s, indent)
    return "\n".join(lines)


# -- declaration printing -----------------------------------------------------------


def _params_str(params: list[tuple[str, VType]]) -> str:
    return ", ".join(f"{n}: {t}" for n, t in params)


def decl_lines(d: VDecl) -> list[str]:
    return _DECL[type(d)](d)


# One handler per declaration class, in `_DECL`.

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
            lines += _STMT[type(s)](s, "  ")
        lines.append("}")
    return lines


_DECL = Handlers({
    AdtDecl: _adt_lines, FieldDecl: _field_lines,
    FunctionDecl: _function_lines, PredicateDecl: _predicate_lines,
    MethodDecl: _method_lines}, unknown="unknown declaration node")


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
    __slots__ = ("kind",  # "ident", "int", "sym"
                 "text", "pos")

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
