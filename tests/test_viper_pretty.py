"""Printer tests: precedence, canonical assertion layout, token-level
golden equality."""

from gospel2viper import viper_ast as V
from gospel2viper.viper_ast import (INT, REF, SEQ_INT, Acc, AdtDecl, AndA,
                                    AssignS, BinOp, BoolLit, CallS, CondA,
                                    CtorCall, CtorSig, FieldAcc,
                                    FieldDecl, FoldS, FunApp, FunctionDecl,
                                    IfS, IntLit, IsTest, LetA,
                                    MethodDecl, NewS, PredApp,
                                    PredicateDecl, Pure, SeqLen, SeqLit,
                                    UnOp, Var, VarDeclS, ViperProgram,
                                    and_all, conjuncts, decl_lines,
                                    expr_str, golden_equal, pretty,
                                    pretty_stmts, stmt_lines, token_texts)

import pytest


def b(op, left, right):
    return BinOp(op, left, right)


X, Y, Z = Var("x"), Var("y"), Var("z")


# -- expression precedence ----------------------------------------------------


@pytest.mark.parametrize("expr,text", [
    (b("+", b("*", X, Y), Z), "x * y + z"),
    (b("*", b("+", X, Y), Z), "(x + y) * z"),
    (b("-", b("-", X, Y), Z), "x - y - z"),
    (b("-", X, b("-", Y, Z)), "x - (y - z)"),
    (b("++", X, b("++", Y, Z)), "x ++ y ++ z"),
    (b("++", b("++", X, Y), Z), "(x ++ y) ++ z"),
    (b("==", b("+", X, Y), Z), "x + y == z"),
    (b("&&", b("==", X, Y), b("||", Y, Z)), "x == y && (y || z)"),
    (b("==", b("==", X, Y), Z), "(x == y) == z"),
    (UnOp("-", X), "-x"),
    (UnOp("!", b("&&", X, Y)), "!(x && y)"),
    (IntLit(-3), "-3"),
    (b("+", X, IntLit(-3)), "x + -3"),
])
def test_expr_rendering(expr, text):
    assert expr_str(expr) == text


def test_seq_forms():
    assert expr_str(SeqLit([])) == "Seq[Int]()"
    assert expr_str(SeqLit([IntLit(1), X])) == "Seq(1, x)"
    assert expr_str(SeqLen(X)) == "|x|"


def test_adjacent_seq_len_bars_stay_apart():
    # || would lex as the or operator
    assert "||" not in expr_str(SeqLen(SeqLen(X)))
    assert "||" not in expr_str(SeqLen(b("++", SeqLen(X), Y)))


def test_field_and_test_chains():
    e = FieldAcc(FieldAcc(X, "a"), "b")
    assert expr_str(e) == "x.a.b"
    assert expr_str(IsTest(FieldAcc(X, "last"), "Nil")) == "x.last.isNil"
    assert expr_str(CtorCall("Nil", [])) == "Nil()"
    assert expr_str(FunApp("take_last", [X])) == "take_last(x)"


# -- assertion canonical form ---------------------------------------------------


def asrt(a):
    out = []
    from gospel2viper.viper_ast import _emit_assertion
    _emit_assertion(out, a, "")
    return "\n".join(out)


def test_and_chain_is_flat():
    a = and_all([Pure(X), Acc(FieldAcc(X, "f")), PredApp("P", [X])])
    assert asrt(a) == "x && acc(x.f) && P(x)"
    assert conjuncts(a) == [Pure(X), Acc(FieldAcc(X, "f")),
                            PredApp("P", [X])]


def test_and_all_splices_nested_conjunctions():
    assert and_all([]) == Pure(BoolLit(True))
    assert and_all([Pure(X)]) == Pure(X)
    inner = and_all([Pure(Y), Pure(Z)])
    assert and_all([inner, Pure(X), inner]) == AndA(
        [Pure(Y), Pure(Z), Pure(X), Pure(Y), Pure(Z)])


def test_cond_assertion_branches_are_bare():
    a = CondA(b("==", X, Y), Pure(Z),
              and_all([Pure(X), PredApp("P", [Y])]))
    assert asrt(a) == "x == y ? z : x && P(y)"


def test_cond_assertion_parenthesized_under_and():
    a = and_all([Acc(FieldAcc(X, "f")), CondA(X, Pure(Y), Pure(Z))])
    assert asrt(a) == "acc(x.f) && (x ? y : z)"


def test_final_let_conjunct_is_bare():
    a = and_all([Pure(X),
                 LetA("c", FieldAcc(X, "f"),
                      and_all([Acc(FieldAcc(Var("c"), "g")), Pure(Y)]))])
    assert asrt(a) == "x && let c == (x.f) in acc(c.g) && y"


def test_inner_let_conjunct_is_parenthesized():
    a = and_all([Pure(X), LetA("c", Y, Pure(Z)), Pure(Y)])
    assert asrt(a) == "x && (let c == (y) in z) && y"


def test_long_conjunction_breaks_one_per_line():
    wide = Var("a_rather_long_variable_name")
    a = and_all([Pure(b("==", wide, wide)) for _ in range(3)])
    lines = asrt(a).splitlines()
    assert len(lines) == 3
    assert lines[0].endswith(" &&") and lines[1].endswith(" &&")
    assert not lines[2].endswith("&&")


def test_long_cond_breaks_with_parens_kept():
    wide = b("==", Var("a_long_name_one"), Var("a_long_name_two"))
    a = and_all([Acc(FieldAcc(X, "f")),
                 CondA(wide, and_all([Pure(wide), Pure(wide)]),
                       and_all([Pure(wide), Pure(wide)]))])
    text = asrt(a)
    assert text.splitlines()[1].endswith(" ?")
    # parens survive the break so the conjunction still binds tighter
    assert "(" in text.splitlines()[1]
    assert text.rstrip().endswith(")")


# -- statements and declarations -------------------------------------------------


def test_statement_forms():
    stmts = [
        VarDeclS("c", REF, None),
        VarDeclS("n", INT, IntLit(0)),
        NewS("c", ["content", "next"], declare=True),
        NewS("q", ["length"], declare=False),
        AssignS(FieldAcc(X, "f"), IntLit(1)),
        FoldS(PredApp("P", [X])),
        CallS([], "lemma_step", [X, Y]),
        CallS(["r"], "make", []),
    ]
    assert pretty_stmts(stmts) == "\n".join([
        "var c: Ref",
        "var n: Int := 0",
        "var c: Ref := new(content, next)",
        "q := new(length)",
        "x.f := 1",
        "fold P(x)",
        "lemma_step(x, y)",
        "r := make()",
    ])


def test_if_without_else_has_no_else_block():
    s = IfS(IsTest(X, "Nil"), [AssignS(Y, IntLit(1))], [])
    assert pretty_stmts([s]) == "\n".join([
        "if (x.isNil) {",
        "  y := 1",
        "}",
    ])


def test_program_layout():
    prog = ViperProgram([
        AdtDecl("Cell", [CtorSig("Nil", []),
                         CtorSig("Cons", [("cell", REF)])]),
        FieldDecl("val", INT),
        FunctionDecl("size", [("v", SEQ_INT)], INT, [], [], SeqLen(Var("v"))),
        PredicateDecl("P", [("r", REF)], Acc(FieldAcc(Var("r"), "val"))),
        MethodDecl("touch", [("r", REF)], [], [PredApp("P", [Var("r")])],
                   [PredApp("P", [Var("r")])], None),
    ])
    text = pretty(prog)
    assert text.endswith("\n")
    assert "\n\n" in text  # blank line between declarations
    assert "method touch(r: Ref)\n  requires P(r)\n  ensures P(r)" in text


def test_empty_program_prints_nothing():
    assert pretty(ViperProgram([])) == ""


def test_bodyless_method_has_no_braces():
    d = MethodDecl("lem", [("x", INT)], [], [], [], None)
    assert "{" not in pretty(ViperProgram([d]))


def test_empty_body_prints_empty_block():
    d = MethodDecl("noop", [], [], [], [], [])
    assert pretty(ViperProgram([d])) == "method noop()\n{\n}\n"


# -- dispatch ----------------------------------------------------------------------


def test_printers_reject_a_node_class_they_do_not_know():
    class Odd:
        pass

    for show in (expr_str, V._assertion_str, decl_lines,
                 lambda x: stmt_lines(x, ""),
                 lambda x: stmt_lines(IfS(X, [], [x]), "")):
        with pytest.raises(TypeError, match=r"\bOdd\b"):
            show(Odd())


def test_every_viper_node_class_has_a_printer():
    def classes(base):
        return {c for c in vars(V).values()
                if isinstance(c, type) and issubclass(c, base)
                and c is not base}

    assert set(V._EXPR) == classes(V.VExpr)
    assert set(V._ASSERTION) == classes(V.VAssertion)
    assert set(V._STMT) == classes(V.VStmt)
    assert set(V._DECL) == set(V.VDecl.__args__)


# -- token equality ---------------------------------------------------------------


def test_golden_equal_ignores_layout_and_trivia():
    a = "method m()\n{\n  x := 1\n}\n"
    b2 = "method m() { x := 1; }  // trailing comment"
    assert golden_equal(a, b2)
    assert not golden_equal(a, "method m() { x := 2 }")


def test_token_texts():
    assert token_texts("x := drop_last(v)[0 ..]") == [
        "x", ":=", "drop_last", "(", "v", ")", "[", "0", "..", "]"]
