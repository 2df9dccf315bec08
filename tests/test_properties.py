"""Randomized properties over the generators in astgen.  Seed ranges are
disjoint from the acceptance suite so the two runs never share cases."""

import random

from astgen import FIELDS, VARS, gen_dual_assertion, gen_program
from gospel2viper.diagnostics import Category, Severity
from gospel2viper.permcheck import Checker, Lit, SymState, _ConsumeCtx
from gospel2viper.viper_ast import pretty
from gospel2viper.viper_parser import reparse

HARNESS = reparse("""
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

method grab(x: Ref)
  requires P(x)
  ensures P(x)
{
}
""")


def no_errors(ck):
    return [d for d in ck.diags if d.severity is Severity.ERROR] == []


def test_print_reparse_roundtrip():
    for seed in range(10000, 10200):
        prog = gen_program(random.Random(seed))
        assert reparse(pretty(prog)) == prog, f"seed {seed}"


def test_produce_consume_duality():
    vacuous = 0
    for seed in range(20000, 20200):
        rng = random.Random(seed)
        ck = Checker(HARNESS)
        store = {v: ck.fresh(v) for v in VARS}
        a = gen_dual_assertion(rng, set())
        states = ck.produce(SymState(), a, store)
        if not states:
            vacuous += 1
            continue
        ctx = _ConsumeCtx(Category.CONTRACT_VIOLATION, "duality")
        for st in states:
            assert ck.consume(st, a, dict(store), ctx), f"seed {seed}"
            assert not st.preds and not st.heap, \
                f"seed {seed} left state behind"
        assert no_errors(ck), (seed, [d.message for d in ck.diags])
    # contradictory guards make a few cases vacuously true, never many
    assert vacuous < 40


CALL_TEXT = """
field val: Int
predicate P(r: Ref) { true }
method mov(x: Ref) requires acc(x.val) ensures acc(x.val) { }
method grab(x: Ref) requires P(x) ensures P(x) { }
method driver(x: Ref)
{
  CALLEE(x)
}
"""


def call_stmt(method):
    prog = reparse(CALL_TEXT.replace("CALLEE", method))
    return prog.methods()["driver"].body[0]


def test_calls_frame_unrelated_permissions():
    for seed in range(30000, 30100):
        rng = random.Random(seed)
        ck = Checker(HARNESS)
        st = SymState()
        x, y = ck.fresh("x"), ck.fresh("y")
        st.store.update(x=x, y=y)
        st.heap[(x, "val")] = Lit(rng.randint(-99, 99))
        held = st.heap[(x, "val")]
        extra_fld = rng.choice(FIELDS)
        kept = Lit(rng.randint(-99, 99))
        st.heap[(y, extra_fld)] = kept
        extra_pred = rng.choice(("P", "Q", "Seg"))
        st.preds[(extra_pred, (y,))] = 1

        method = rng.choice(("mov", "grab"))
        if method == "grab":
            # the callee trades in a predicate, so hold one for x too
            st.preds[("P", (x,))] = st.preds.get(("P", (x,)), 0) + 1
        out = ck.exec_stmt(st, call_stmt(method))
        assert no_errors(ck), (seed, [d.message for d in ck.diags])
        for st2 in out:
            assert (y, extra_fld) in st2.heap, f"seed {seed}"
            assert st2.heap[(y, extra_fld)] == kept, f"seed {seed}"
            assert st2.preds[(extra_pred, (y,))] >= 1, f"seed {seed}"
            if method == "mov":
                # the callee's own location is havocked, not preserved
                assert st2.heap[(x, "val")] != held, f"seed {seed}"
