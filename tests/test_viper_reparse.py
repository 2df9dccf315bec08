"""Reparser tests.

The round trip is the contract: reparse(pretty(p)) == p for canonical
trees.  Beyond the property, these pin the classification rules the
reparser needs because the token stream alone is ambiguous."""

import random

from gospel2viper.viper_ast import (AndA, AssignS, CallS, CondA, FieldAcc,
                                    FunApp, IntLit, IsTest, LetA, NewS,
                                    PredApp, Pure, UnOp, Var, pretty)
from gospel2viper.viper_parser import ViperParseError, reparse

from astgen import gen_program

import pytest

HEADER = """
adt Cell { Nil() Cons(cell: Ref) }
predicate P(r: Ref) { acc(r.val) }
method mov(x: Int) returns (y: Int)
"""


def parse_method_body(stmts_text):
    prog = reparse(HEADER + "method t()\n{\n" + stmts_text + "\n}\n")
    return prog.methods()["t"].body


def parse_pred_body(assertion_text):
    prog = reparse(HEADER + "predicate T(r: Ref) { " + assertion_text + " }")
    return prog.predicates()["T"].body


# -- classification -------------------------------------------------------------


def test_whole_conjunct_pred_name_is_a_predicate_instance():
    body = parse_pred_body("P(r) && size(r) == 1")
    assert isinstance(body, AndA)
    first, second = body.parts
    assert isinstance(first, PredApp)
    # size is not declared, so it stays a pure function application
    assert isinstance(second, Pure)


def test_call_statement_vs_assignment():
    stmts = parse_method_body("y := mov(1)\nx := size(1)")
    assert isinstance(stmts[0], CallS)
    assert stmts[0].targets == ["y"]
    assert isinstance(stmts[1], AssignS)
    assert isinstance(stmts[1].value, FunApp)


def test_bare_call_statement():
    stmts = parse_method_body("mov(1)")
    assert stmts == [CallS([], "mov", [IntLit(1)])]


def test_new_forms():
    stmts = parse_method_body(
        "var c: Ref := new(val, nxt)\nq := new(val)")
    assert stmts[0] == NewS("c", ["val", "nxt"], declare=True)
    assert stmts[1] == NewS("q", ["val"], declare=False)


def test_is_test_needs_a_declared_ctor():
    first, second = parse_pred_body("r.isCons && r.isopen").parts
    assert isinstance(first.expr, IsTest)
    assert isinstance(second.expr, FieldAcc)  # no `open` constructor


def test_negative_literal_folds():
    first, second = parse_pred_body("r == -3 && r == -x").parts
    assert first.expr.right == IntLit(-3)
    assert second.expr.right == UnOp("-", Var("x"))


# -- assertion grammar ------------------------------------------------------------


def test_cond_assertion_bare_branches():
    body = parse_pred_body("x == 1 ? P(r) && x == 2 : acc(r.val)")
    assert isinstance(body, CondA)
    assert isinstance(body.then, AndA)


def test_nested_bare_conditionals_associate_right():
    body = parse_pred_body("x == 1 ? P(r) : x == 2 ? Q(r) : R(r)")
    assert isinstance(body, CondA)
    assert isinstance(body.els, CondA)


def test_trailing_let_swallows_the_rest():
    body = parse_pred_body("acc(r.val) && let c == (r.nxt) in "
                           "acc(c.val) && c.val == 0")
    assert isinstance(body, AndA)
    _, let = body.parts
    assert isinstance(let, LetA)
    assert isinstance(let.body, AndA)


def test_parenthesized_let_conjunct_stays_inner():
    body = parse_pred_body("acc(r.val) && (let c == (r.nxt) in c == r) && "
                           "r.val == 0")
    parts = body.parts
    assert isinstance(parts[1], LetA)
    assert isinstance(parts[1].body, Pure)
    assert len(parts) == 3


def test_parenthesized_pure_with_continuation_is_an_expression():
    body = parse_pred_body("(x + 1) * 2 == 4")
    assert isinstance(body, Pure)


def test_or_at_conjunct_level_is_pure():
    first, _ = parse_pred_body("(x == 1 || x == 2) && acc(r.val)").parts
    assert isinstance(first, Pure)
    assert first.expr.op == "||"


def test_acc_requires_a_field_location():
    with pytest.raises(ViperParseError):
        reparse(HEADER + "predicate T(r: Ref) { acc(r) }")


def test_trailing_garbage_is_rejected():
    with pytest.raises(ViperParseError):
        reparse("field f: Int ???")


def test_unbalanced_input_is_rejected():
    with pytest.raises(ViperParseError):
        reparse("method m() {")


# -- the round trip ---------------------------------------------------------------


@pytest.mark.parametrize("seed", range(0, 300, 7))
def test_roundtrip_sample(seed):
    prog = gen_program(random.Random(seed))
    assert reparse(pretty(prog)) == prog
