"""Acceptance suite.  Each test covers one numbered criterion and reports
one PASS/FAIL line in the terminal summary (see conftest).  Golden files
live in tests/corpus/golden; comparisons are token-stream equality, so
whitespace never matters.  The whole module must stay under ten seconds."""

import functools
import random
from dataclasses import replace
from itertools import product

from astgen import FIELDS, VARS, gen_dual_assertion, gen_program
from conftest import record_criterion
from gospel2viper import translate_source
from gospel2viper.diagnostics import Category, Severity
from gospel2viper.permcheck import (App, Checker, Lit, SeqV, SymState,
                                    _ConsumeCtx, _Mode, check_program)
from gospel2viper.translate import prelude_decls
from gospel2viper.viper_ast import (ViperProgram, golden_equal, pretty,
                                    pretty_stmts)
from gospel2viper.viper_parser import reparse


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ok = False
            try:
                fn(*args, **kwargs)
                ok = True
            finally:
                record_criterion(num, label, ok)
        return wrapper
    return deco


def translated(path):
    prog, diags = translate_source(path.read_text())
    bad = [d for d in diags if d.severity is Severity.ERROR]
    assert prog is not None and not bad, [d.message for d in bad]
    return prog


def error_diags(text):
    prog, diags = translate_source(text)
    if prog is not None:
        diags = diags + check_program(prog)
    return [d for d in diags if d.severity is Severity.ERROR]


def decl_text(decl):
    return pretty(ViperProgram([decl]))


@criterion(1, "ADT encoding golden")
def test_adt_golden(golden):
    src = ("type cell = Nil | Cons of "
           "{ mutable content : int; mutable next : cell }\n")
    prog, diags = translate_source(src)
    assert prog is not None and not diags
    assert golden_equal(pretty(prog), (golden / "cell_adt.vpr").read_text())


@criterion(2, "predicate goldens")
def test_predicate_goldens(corpus, golden):
    prog = translated(corpus / "queue.ml")
    preds = prog.predicates()
    for name, fname in (("CellSeg", "cellseg_pred.vpr"),
                        ("Queue", "queue_pred.vpr")):
        assert golden_equal(decl_text(preds[name]),
                            (golden / fname).read_text()), name


@criterion(3, "method goldens")
def test_method_goldens(corpus, golden):
    prog = translated(corpus / "queue.ml")
    methods = prog.methods()
    whole = (("create", "create_method.vpr"),
             ("CellSeg_trans", "cellseg_trans.vpr"))
    for name, fname in whole:
        assert golden_equal(decl_text(methods[name]),
                            (golden / fname).read_text()), name
    contracts = (("add", "add_contract.vpr"),
                 ("transfer", "transfer_contract.vpr"))
    for name, fname in contracts:
        head = replace(methods[name], body=None)
        assert golden_equal(decl_text(head),
                            (golden / fname).read_text()), name
    small = translated(corpus / "checker_queue.ml")
    branch = small.methods()["add_empty"].body[1:-1]
    assert golden_equal(pretty_stmts(branch),
                        (golden / "add_empty_branch.vpr").read_text())


@criterion(4, "unopened-predicate error reproduction")
def test_error_reproduction(corpus):
    bad = error_diags((corpus / "foo_missing_unfold.ml").read_text())
    assert len(bad) == 1
    assert bad[0].category is Category.PERMISSION
    assert "c.v" in bad[0].message
    assert error_diags((corpus / "foo_fixed.ml").read_text()) == []


@criterion(5, "checker end-to-end with monotone diagnostics")
def test_checker_end_to_end(corpus):
    text = (corpus / "checker_queue.ml").read_text()
    assert error_diags(text) == []
    lines = text.splitlines(keepends=True)
    fold_lines = [i for i, line in enumerate(lines) if "(*@ fold" in line]
    assert len(fold_lines) == 5
    for i in fold_lines:
        mutant = "".join(lines[:i] + lines[i + 1:])
        assert error_diags(mutant), f"deleting line {i + 1} went unnoticed"


@criterion(6, "print/reparse roundtrip, 500 programs")
def test_roundtrip_500():
    for seed in range(500):
        prog = gen_program(random.Random(seed))
        assert reparse(pretty(prog)) == prog, f"seed {seed}"


@criterion(7, "produce/consume duality, 500 assertions")
def test_duality_500():
    harness = reparse(DUAL_HARNESS)
    vacuous = 0
    for seed in range(500):
        ck = Checker(harness)
        store = {v: ck.fresh(v) for v in VARS}
        a = gen_dual_assertion(random.Random(seed), set())
        states = ck.produce(SymState(), a, store)
        if not states:
            vacuous += 1
            continue
        ctx = _ConsumeCtx(Category.CONTRACT_VIOLATION, "duality")
        for st in states:
            assert ck.consume(st, a, dict(store), ctx), f"seed {seed}"
            assert not st.preds and not st.heap, \
                f"seed {seed}"
        assert not [d for d in ck.diags
                    if d.severity is Severity.ERROR], f"seed {seed}"
    assert vacuous < 100  # a few contradictory guards are expected


@criterion(8, "prelude against the list-splitting oracle")
def test_prelude_oracle():
    def split_last(elems):
        # brute force: the unique split with a one-element back half
        for cut in range(len(elems) + 1):
            front, back = elems[:cut], elems[cut:]
            if len(back) == 1 and front + back == elems:
                return front, back
        raise AssertionError("no split found")

    ck = Checker(ViperProgram(list(prelude_decls())))
    bodies = {d.name: d.body for d in prelude_decls()}
    st = SymState()
    for n in range(1, 7):
        for elems in product(range(-2, 3), repeat=n):
            sv = SeqV(tuple(Lit(x) for x in elems))
            store = {"v": sv}
            d = ck.eval(st, bodies["drop_last"], store, _Mode.PRODUCE, {})
            t = ck.eval(st, bodies["take_last"], store, _Mode.PRODUCE, {})
            front, back = split_last(list(elems))
            assert [x.value for x in d.elems] == front, elems
            assert [x.value for x in t.elems] == back, elems
            assert ck.norm(App("++", (d, t)), st) == sv, elems
            assert ck.norm(App("len", (t,)), st) == Lit(1), elems


@criterion(9, "calls frame unrelated permissions")
def test_frame_200():
    harness = reparse(DUAL_HARNESS)
    for seed in range(200):
        rng = random.Random(seed)
        ck = Checker(harness)
        st = SymState()
        x, y = ck.fresh("x"), ck.fresh("y")
        st.store.update(x=x, y=y)
        held = Lit(rng.randint(-99, 99))
        st.heap[(x, "val")] = held
        extra_fld = rng.choice(FIELDS)
        kept = Lit(rng.randint(-99, 99))
        st.heap[(y, extra_fld)] = kept
        st.preds[("Seg", (y,))] = 1
        call = harness.methods()["driver"].body[0]
        out = ck.exec_stmt(st, call)
        assert not [d for d in ck.diags
                    if d.severity is Severity.ERROR], f"seed {seed}"
        for st2 in out:
            assert (y, extra_fld) in st2.heap, f"seed {seed}"
            assert st2.heap[(y, extra_fld)] == kept, f"seed {seed}"
            assert st2.preds[("Seg", (y,))] == 1, f"seed {seed}"
            assert st2.heap[(x, "val")] != held, f"seed {seed}"


DUAL_HARNESS = """
adt Cell { Nil() Cons(cell: Ref) }
adt Tree { Leaf() Node(lft: Ref, rgt: Ref) }

field val: Int
field nxt: Ref
field fst: Ref
field lst: Ref

predicate P(r: Ref) { true }
predicate Q(r: Ref) { true }
predicate Seg(r: Ref) { true }

method mov(x: Ref)
  requires acc(x.val)
  ensures acc(x.val)
{
}

method driver(x: Ref)
{
  mov(x)
}
"""
