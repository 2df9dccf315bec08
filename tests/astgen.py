"""Random program generators for the print/reparse and produce/consume
properties, and for the methods that check joins against path enumeration.

The printer canonicalizes, so generated trees must already be in canonical
form or the round trip cannot be the identity:

- conjunctions are built through ``and_all``, which splices nested ones
  into one flat list, as the reparser does,
- negative numbers are IntLit values, never unary minus on a literal,
- a Pure never wraps a bare && at conjunct level (that is an assertion
  form),
- name pools are disjoint, because the reparser classifies applications
  by declared name.
"""

from __future__ import annotations

import random

from gospel2viper.viper_ast import (BINARY, INT, REF, SEQ_INT, Acc,
                                    AdtDecl, AssignS, BinOp, BoolLit, CallS,
                                    CondA, CtorCall, CtorSig, FieldAcc,
                                    FieldDecl, FoldS, FunApp, FunctionDecl,
                                    IfS, IntLit, IsTest, LetA, MethodDecl,
                                    NewS, PredApp, PredicateDecl, Pure,
                                    SeqDrop, SeqIndex, SeqLen, SeqLit,
                                    SeqTake, UnOp, UnfoldS, Var, VarDeclS,
                                    VAssertion, VExpr, ViperProgram, VStmt,
                                    and_all)

VARS = ("a", "b", "q", "r", "x", "y")
FIELDS = ("val", "nxt", "fst", "lst")
PREDS = ("P", "Q", "Seg")
FUNCTIONS = ("size", "total")
METHODS = ("mov", "grab")
CTORS = {"Nil": 0, "Cons": 1, "Leaf": 0, "Node": 2}
LET_NAMES = ("t0", "t1")

# From the operator table: every operator, the arithmetic ones (which fold
# int literals and group to the left) and the comparisons (which do not
# group)
_BINARY = tuple(op.viper for op in BINARY)
_ARITH = tuple(op.viper for op in BINARY if op.fold and op.group == "left")
_CMP = tuple(op.viper for op in BINARY if op.group == "none")


def gen_expr(rng: random.Random, depth: int = 3) -> VExpr:
    if depth <= 0:
        return rng.choice([
            IntLit(rng.randint(-9, 9)),
            BoolLit(rng.random() < 0.5),
            Var(rng.choice(VARS)),
        ])
    pick = rng.randrange(11)
    sub = depth - 1
    if pick == 0:
        return IntLit(rng.randint(-99, 99))
    if pick == 1:
        return Var(rng.choice(VARS))
    if pick == 2:
        return FieldAcc(gen_expr(rng, 0), rng.choice(FIELDS))
    if pick == 3:
        return IsTest(gen_expr(rng, 0), rng.choice(list(CTORS)))
    if pick == 4:
        name = rng.choice(list(CTORS))
        return CtorCall(name, [gen_expr(rng, sub)
                               for _ in range(CTORS[name])])
    if pick == 5:
        return FunApp(rng.choice(FUNCTIONS),
                      [gen_expr(rng, sub) for _ in range(rng.randint(1, 2))])
    if pick == 6:
        return SeqLit([gen_expr(rng, sub)
                       for _ in range(rng.randint(0, 3))])
    if pick == 7:
        return SeqLen(gen_expr(rng, sub))
    if pick == 8:
        return BinOp(rng.choice(_BINARY),
                     gen_expr(rng, sub), gen_expr(rng, sub))
    if pick == 9:
        # unary minus on a literal would reparse as a negative literal
        op = rng.choice(("-", "!"))
        inner = Var(rng.choice(VARS)) if op == "-" else gen_expr(rng, sub)
        return UnOp(op, inner)
    kind = rng.randrange(3)
    seq = gen_expr(rng, sub)
    if kind == 0:
        return SeqIndex(seq, gen_expr(rng, sub))
    if kind == 1:
        return SeqDrop(seq, gen_expr(rng, sub))
    return SeqTake(seq, gen_expr(rng, sub))


def _pred_app(rng: random.Random, depth: int) -> PredApp:
    return PredApp(rng.choice(PREDS),
                   [gen_expr(rng, depth) for _ in range(rng.randint(1, 3))])


def _top_pure_clash(e: VExpr) -> bool:
    """Shapes that read back as assertion forms, not as a Pure."""
    return isinstance(e, BinOp) and e.op == "&&"


def _atom_assertion(rng: random.Random, depth: int) -> VAssertion:
    pick = rng.randrange(3)
    if pick == 0:
        for _ in range(8):
            e = gen_expr(rng, depth)
            if not _top_pure_clash(e):
                return Pure(e)
        return Pure(Var(rng.choice(VARS)))
    if pick == 1:
        return Acc(FieldAcc(Var(rng.choice(VARS)), rng.choice(FIELDS)))
    return _pred_app(rng, depth)


def gen_assertion(rng: random.Random, depth: int = 3) -> VAssertion:
    if depth <= 0:
        return _atom_assertion(rng, 0)
    pick = rng.randrange(6)
    sub = depth - 1
    if pick <= 2:
        return _atom_assertion(rng, sub)
    if pick == 3:
        return and_all([gen_assertion(rng, sub)
                        for _ in range(rng.randint(2, 4))])
    if pick == 4:
        return CondA(gen_expr(rng, sub), gen_assertion(rng, sub),
                     gen_assertion(rng, sub))
    return LetA(rng.choice(LET_NAMES), gen_expr(rng, sub),
                gen_assertion(rng, sub))


def gen_stmt(rng: random.Random, depth: int = 2) -> VStmt:
    pick = rng.randrange(8)
    if pick == 0:
        typ = rng.choice((INT, REF, SEQ_INT))
        init = gen_expr(rng, depth) if rng.random() < 0.7 else None
        return VarDeclS(rng.choice(VARS), typ, init)
    if pick == 1:
        if rng.random() < 0.5:
            target: VExpr = Var(rng.choice(VARS))
        else:
            target = FieldAcc(Var(rng.choice(VARS)), rng.choice(FIELDS))
        return AssignS(target, gen_expr(rng, depth))
    if pick == 2:
        fields = rng.sample(FIELDS, rng.randint(1, 3))
        return NewS(rng.choice(VARS), fields,
                    declare=rng.random() < 0.5)
    if pick == 3 and depth > 0:
        then = [gen_stmt(rng, depth - 1)
                for _ in range(rng.randint(1, 2))]
        els = ([gen_stmt(rng, depth - 1)] if rng.random() < 0.5 else [])
        return IfS(gen_expr(rng, depth - 1), then, els)
    if pick == 4:
        return FoldS(_pred_app(rng, depth))
    if pick == 5:
        return UnfoldS(_pred_app(rng, depth))
    if pick == 6:
        targets = rng.sample(VARS, rng.randint(0, 2))
        return CallS(list(targets), rng.choice(METHODS),
                     [gen_expr(rng, depth)
                      for _ in range(rng.randint(0, 2))])
    return AssignS(Var(rng.choice(VARS)), gen_expr(rng, depth))


def gen_scalar(rng: random.Random, depth: int = 2) -> VExpr:
    """Store-variable and literal expressions only: no heap reads, so a
    produce and the matching consume evaluate them to the same value."""
    if depth <= 0:
        return rng.choice([IntLit(rng.randint(-5, 5)),
                           Var(rng.choice(VARS))])
    pick = rng.randrange(5)
    sub = depth - 1
    if pick == 0:
        return IntLit(rng.randint(-20, 20))
    if pick == 1:
        return Var(rng.choice(VARS))
    if pick == 2:
        return BinOp(rng.choice(_ARITH), gen_scalar(rng, sub),
                     gen_scalar(rng, sub))
    if pick == 3:
        name = rng.choice(list(CTORS))
        return CtorCall(name, [gen_scalar(rng, sub)
                               for _ in range(CTORS[name])])
    return SeqLit([gen_scalar(rng, sub) for _ in range(rng.randint(0, 2))])


def _gen_cond(rng: random.Random) -> VExpr:
    return BinOp(rng.choice(_CMP), gen_scalar(rng, 1), gen_scalar(rng, 1))


def gen_dual_assertion(rng: random.Random, used: set, depth: int = 3,
                       names: tuple = LET_NAMES) -> VAssertion:
    """An assertion that produce can inhale and consume can exhale back.

    Field reads never appear outside acc, each location is claimed at
    most once, and condition branches share the location budget so no
    path inhales the same permission twice.
    """
    pick = rng.randrange(8)
    sub = depth - 1
    if pick <= 1 or depth <= 0:
        return Pure(BinOp(rng.choice(_CMP), gen_scalar(rng, 1),
                          gen_scalar(rng, 1)))
    if pick == 2:
        free = [(v, f) for v in VARS for f in FIELDS if (v, f) not in used]
        if not free:
            return Pure(BinOp("==", gen_scalar(rng, 1), gen_scalar(rng, 1)))
        v, f = rng.choice(free)
        used.add((v, f))
        return Acc(FieldAcc(Var(v), f))
    if pick == 3:
        return PredApp(rng.choice(PREDS),
                       [gen_scalar(rng, 1)
                        for _ in range(rng.randint(1, 2))])
    if pick == 4:
        return CondA(_gen_cond(rng),
                     gen_dual_assertion(rng, used, sub, names),
                     gen_dual_assertion(rng, used, sub, names))
    if pick == 5 and names:
        # bind an arithmetic value; the binder feeds pures, never an acc
        return LetA(names[0], gen_scalar(rng, 1),
                    gen_dual_assertion(rng, used, sub, names[1:]))
    return and_all([gen_dual_assertion(rng, used, sub, names)
                    for _ in range(rng.randint(2, 3))])


def gen_program(rng: random.Random) -> ViperProgram:
    """A well-formed random program over the fixed name pools.

    Every predicate, method and constructor the bodies can mention is
    declared, so the reparser's name scan classifies them the same way.
    """
    decls: list = [
        AdtDecl("Cell", [CtorSig("Nil", []),
                         CtorSig("Cons", [("cell", REF)])]),
        AdtDecl("Tree", [CtorSig("Leaf", []),
                         CtorSig("Node", [("lft", REF), ("rgt", REF)])]),
    ]
    for f in FIELDS:
        decls.append(FieldDecl(f, rng.choice((INT, REF, SEQ_INT))))
    for name in FUNCTIONS:
        body = gen_expr(rng, 2) if rng.random() < 0.7 else None
        pres = [gen_assertion(rng, 1)] if rng.random() < 0.4 else []
        decls.append(FunctionDecl(name, [("v", SEQ_INT)], INT, pres, [],
                                  body))
    for name in PREDS:
        decls.append(PredicateDecl(name, [("r", REF)],
                                   gen_assertion(rng, 3)))
    for name in METHODS:
        params = [(v, rng.choice((INT, REF, SEQ_INT)))
                  for v in rng.sample(VARS, rng.randint(0, 3))]
        returns = [(v, INT) for v in rng.sample(VARS, rng.randint(0, 2))
                   if v not in [p for p, _ in params]]
        pres = [gen_assertion(rng, 2) for _ in range(rng.randint(0, 2))]
        posts = [gen_assertion(rng, 2) for _ in range(rng.randint(0, 2))]
        if rng.random() < 0.8:
            body = [gen_stmt(rng, 2) for _ in range(rng.randint(0, 5))]
        else:
            body = None
        decls.append(MethodDecl(name, params, returns, pres, posts, body))
    return ViperProgram(decls)


# -- methods that join and split, as Viper text -------------------------------

JOIN_HEADER = """
field v: Int
field w: Int
field b: Bool
predicate P(c: Ref) { acc(c.v) }
predicate Q(c: Ref) { acc(c.b) && (c.b ? acc(c.w) : true) }
method pos(k: Int) requires k > 0
method big(k: Int) requires k > 5
"""
JOIN_GUARDS = ["c.b", "!c.b", "c.v > n", "n == 2", "c.w > 0", "c.v == 1",
               "n > 0", "c.w == n"]
JOIN_WRITES = ["c.v := n", "c.v := 1", "c.v := c.v + 1", "c.w := 1",
               "c.w := n", "c.b := true", "c.b := false"]
JOIN_GHOSTS = ["fold P(c)", "unfold P(c)", "fold Q(c)", "unfold Q(c)"]
JOIN_CALLS = ["pos(n)", "big(n)", "pos(c.v)", "big(c.w)"]
JOIN_PRES = ["acc(c.v) && acc(c.w) && acc(c.b)", "P(c) && Q(c)",
             "acc(c.v) && Q(c)", "P(c) && acc(c.w) && acc(c.b)"]
JOIN_POSTS = JOIN_PRES + ["Q(c) && acc(c.v)", "Q(c) && acc(c.v) && c.v > n",
                          "P(c) && acc(c.b) && acc(c.w) && c.w == 1"]


def join_method(rng):
    """A method over P and Q of 2-5 statements: field writes, ghost
    commands, calls of the bodiless `pos` and `big`, and ifs nested at
    most twice, each side 0-2 statements."""
    def stmt(depth):
        r = rng.random()
        if r < 0.35 and depth < 2:
            then, els = (block(rng.randint(0, 2), depth + 1)
                         for _ in range(2))
            return (f"if ({rng.choice(JOIN_GUARDS)}) {{\n{then}\n}} "
                    f"else {{\n{els}\n}}")
        return rng.choice(JOIN_WRITES if r < 0.6
                          else JOIN_CALLS if r < 0.75 else JOIN_GHOSTS)

    def block(k, depth):
        return "\n".join(stmt(depth) for _ in range(k))

    return (f"{JOIN_HEADER}method m(c: Ref, n: Int)\n"
            f"  requires {rng.choice(JOIN_PRES)}\n"
            f"  ensures {rng.choice(JOIN_POSTS)}\n"
            f"{{\n{block(rng.randint(2, 5), 0)}\n}}\n")
