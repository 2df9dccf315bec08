"""Unit tests for the symbolic checker: normalization, the three-valued
decision procedure, produce/consume, statement execution, and whole-method
verdicts.  States are built by hand so each behavior is pinned in isolation."""

import gc
import random
import time
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

from gospel2viper import permcheck, viper_ast as V
from gospel2viper.diagnostics import Category, Severity
from gospel2viper.permcheck import (App, Checker, Ctor, Lit, SeqV, Sym,
                                    SymState, _ConsumeCtx, _first, _key,
                                    _mentions, _Node, _syms, check_program,
                                    FALSE, TRUE, MAX_PATHS, sym_str)
from gospel2viper.translate import (PRELUDE_NAMES, prelude_decls,
                                    translate_source)
from gospel2viper.viper_parser import reparse

import pytest
from hypothesis import given, settings, strategies as hs
from astgen import gen_program
from work_counts import checker_calls_per_statement, module_source, wide_module

CORPUS = Path(__file__).parent / "corpus"

PROGRAM = reparse("""
adt Cell { Nil() Cons(cell: Ref) }

field val: Int
field nxt: Ref

predicate P(x: Ref) { acc(x.val) }

predicate Q(x: Ref, n: Int) { acc(x.val) && x.val == n }

method mov(x: Ref)
  requires acc(x.val)
  ensures acc(x.val)
{
}
""")


@pytest.fixture
def ck():
    return Checker(PROGRAM)


def errors(ck, category=None):
    out = [d for d in ck.diags if d.severity is Severity.ERROR]
    if category is not None:
        out = [d for d in out if d.category is category]
    return out


CTX = _ConsumeCtx(Category.CONTRACT_VIOLATION, "test")


# -- normalization ------------------------------------------------------------


def seq(*xs):
    return SeqV("", tuple(Lit(x) for x in xs))


def test_terms_print_as_the_calls_that_build_them():
    # as pytest shows them when a comparison of terms fails
    assert repr(Lit(1)) == "Lit(1)"
    assert repr(Lit(True)) == "Lit(True)"
    assert repr(App("f", (Lit(1), Sym(7)))) == "App('f', (Lit(1), Sym(id=7)))"
    assert repr(SeqV("", ())) == "SeqV('', ())"


def test_concat_flattens_and_merges(ck):
    st = SymState()
    v = App("++", (seq(1), App("++", (seq(2), seq(3)))))
    assert ck.norm(v, st) == seq(1, 2, 3)


def test_concat_keeps_symbolic_parts_in_order(ck):
    st = SymState()
    s = ck.fresh("s")
    v = ck.norm(App("++", (seq(1), App("++", (s, seq(2, 3))))), st)
    assert v == App("++", (seq(1), s, seq(2, 3)))


def test_empty_segments_vanish(ck):
    s = ck.fresh("s")
    assert ck.norm(App("++", (SeqV("", ()), s)), SymState()) == s
    assert ck.norm(App("++", (seq(), seq())), SymState()) == seq()


def test_len_and_index(ck):
    st = SymState()
    assert ck.norm(App("len", (seq(7, 8),)), st) == Lit(2)
    assert ck.norm(App("index", (seq(7, 8), Lit(1))), st) == Lit(8)
    # out of range stays symbolic rather than inventing a value
    out = ck.norm(App("index", (seq(7, 8), Lit(5))), st)
    assert isinstance(out, App)


def test_division_truncates_toward_zero(ck):
    st = SymState()
    assert ck.norm(App("/", (Lit(7), Lit(2))), st) == Lit(3)
    assert ck.norm(App("/", (Lit(-7), Lit(2))), st) == Lit(-3)


def test_division_by_zero_stays_symbolic(ck):
    out = ck.norm(App("/", (Lit(1), Lit(0))), SymState())
    assert out == App("/", (Lit(1), Lit(0)))


def test_equality_distributes_over_ctors(ck):
    st = SymState()
    a, b = ck.fresh("a"), ck.fresh("b")
    v = ck.norm(App("==", (Ctor("Cons", (a,)), Ctor("Cons", (b,)))), st)
    assert v == App("==", tuple(sorted((a, b), key=repr)))
    v = ck.norm(App("==", (Ctor("Cons", (a,)), Ctor("Nil", ()))), st)
    assert v == FALSE


def test_sequence_equality_by_length(ck):
    st = SymState()
    assert ck.norm(App("==", (seq(1), seq(1, 2))), st) == FALSE
    s = ck.fresh("s")
    longer = App("++", (seq(1, 2), s))
    assert ck.norm(App("==", (seq(1), longer)), st) == FALSE


def test_double_negation_cancels(ck):
    x = ck.fresh("x")
    t = App("not", (App("not", (App("is#Nil", (x,)),)),))
    assert ck.norm(t, SymState()) == App("is#Nil", (x,))


def test_bool_connectives_fold(ck):
    st = SymState()
    p = App("is#Nil", (ck.fresh("x"),))
    assert ck.norm(App("&&", (p, TRUE)), st) == p
    assert ck.norm(App("&&", (p, FALSE)), st) == FALSE
    assert ck.norm(App("||", (p, TRUE)), st) == TRUE
    assert ck.norm(App("||", (p, FALSE)), st) == p
    assert ck.norm(App("&&", (p, p)), st) == p
    assert ck.norm(App("&&", (TRUE, TRUE)), st) == TRUE
    assert ck.norm(App("||", (FALSE, FALSE)), st) == FALSE


def test_ite_folds_on_literal_or_equal_branches(ck):
    st = SymState()
    x = ck.fresh("x")
    assert ck.norm(App("ite", (TRUE, Lit(1), Lit(2))), st) == Lit(1)
    assert ck.norm(App("ite", (x, Lit(1), Lit(1))), st) == Lit(1)


def test_ctor_tests_and_projections_fold(ck):
    st = SymState()
    c = Ctor("Cons", (Lit(3),))
    assert ck.norm(App("is#Cons", (c,)), st) == TRUE
    assert ck.norm(App("is#Nil", (c,)), st) == FALSE
    assert ck.norm(App("proj#cell", (c,)), st) == Lit(3)


def test_ite_with_literal_arms_folds(ck):
    st = SymState()
    c, x = ck.fresh("c"), ck.fresh("x")
    assert ck.norm(App("ite", (c, TRUE, FALSE)), st) == c
    assert ck.norm(App("ite", (c, FALSE, TRUE)), st) == App("not", (c,))
    # an operator over an ite with literal arms is lifted over it
    two = App("ite", (c, Lit(1), Lit(2)))
    assert ck.norm(App(">", (two, Lit(0))), st) == TRUE
    assert ck.norm(App("+", (two, Lit(1))), st) \
        == App("ite", (c, Lit(2), Lit(3)))
    assert ck.norm(App("<", (two, Lit(2))), st) == c
    assert ck.norm(App(">", (two, Lit(1))), st) == App("not", (c,))
    assert ck.norm(App("==", (Lit(2), two)), st) == App("not", (c,))
    assert ck.norm(App("!=", (two, Lit(3))), st) == TRUE
    # symbolic arms are left alone
    sym = App("ite", (c, x, Lit(2)))
    assert ck.norm(App(">", (sym, Lit(0))), st) == App(">", (sym, Lit(0)))


def test_symbols_compare_and_hash_by_id_alone():
    # the hint only names a symbol in diagnostics
    assert Sym(3, "a") == Sym(3, "b")
    assert hash(Sym(3, "a")) == hash(Sym(3, "b"))
    assert len({Sym(3, "a"), Sym(3, "b")}) == 1
    assert Sym(3) != Sym(4)
    # a symbol is never a literal, and 1 is not true
    assert Sym(3) != Lit(3) and Lit(3) != Sym(3)
    assert Sym(1) != TRUE and Lit(1) != TRUE
    assert sym_str(Sym(3, "a")) == "a" and sym_str(Sym(3)) == "_3"


def test_sorting_leaves_hash_and_key_alone(ck):
    # the sort caches a key on the term; equal terms must still hash alike
    x, y = ck.fresh("x"), ck.fresh("y")

    def term():
        return App("+", (App("*", (x, Lit(2))), Lit(1)))

    t = term()
    ck._simplify("==", (t, y))  # keyed before it is ever hashed
    assert hash(t) == hash(term()) and _key(t) == _key(term())
    u = term()
    before = hash(u), _key(u)
    ck._simplify("==", (y, u))
    assert (hash(u), _key(u)) == before


def test_commutative_args_are_sorted(ck):
    st = SymState()
    x, y = ck.fresh("x"), ck.fresh("y")
    assert ck.norm(App("==", (x, y)), st) == ck.norm(App("==", (y, x)), st)
    assert ck.norm(App("&&", (x, y)), st) == ck.norm(App("&&", (y, x)), st)
    # arithmetic is left alone: decide() only matches facts syntactically
    assert ck.norm(App("+", (x, y)), st) != ck.norm(App("+", (y, x)), st)


# -- decide and assume -----------------------------------------------------------


def test_decide_literals(ck):
    st = SymState()
    assert ck.decide(st, TRUE) is True
    assert ck.decide(st, FALSE) is False


def test_decide_from_path_facts(ck):
    st = SymState()
    x = ck.fresh("x")
    gt = App(">", (x, Lit(0)))
    assert ck.assume(st, gt)
    assert ck.decide(st, gt) is True
    assert ck.decide(st, App("not", (gt,))) is False
    assert ck.decide(st, App(">", (x, Lit(1)))) is None


def test_assume_equality_substitutes(ck):
    st = SymState()
    x = ck.fresh("x")
    assert ck.assume(st, App("==", (x, Lit(3))))
    assert ck.norm(x, st) == Lit(3)
    assert ck.decide(st, App(">", (x, Lit(2)))) is True


def test_assume_ctor_test_builds_witness(ck):
    st = SymState()
    c = ck.fresh("c")
    assert ck.assume(st, App("is#Cons", (c,)))
    w = ck.norm(c, st)
    assert isinstance(w, Ctor) and w.name == "Cons" and len(w.args) == 1
    assert ck.decide(st, App("is#Nil", (c,))) is False


def test_negative_ctor_test_refines_two_ctor_adt(ck):
    st = SymState()
    c = ck.fresh("c")
    assert ck.assume(st, App("not", (App("is#Nil", (c,)),)))
    w = ck.norm(c, st)
    assert isinstance(w, Ctor) and w.name == "Cons"


def test_assume_rejects_a_direct_contradiction(ck):
    st = SymState()
    x = ck.fresh("x")
    assert ck.assume(st, App("is#Nil", (x,)))
    assert not ck.assume(st, App("is#Cons", (x,)))


def test_assume_detects_retroactive_contradiction(ck):
    # the first fact only folds to a constant once the second binds x
    st = SymState()
    x = ck.fresh("x")
    assert ck.assume(st, App(">", (x, Lit(16))))
    assert not ck.assume(st, App("==", (x, Lit(14))))


def test_assume_splits_conjunctions(ck):
    st = SymState()
    x, y = ck.fresh("x"), ck.fresh("y")
    fact = App("&&", (App("==", (x, Lit(1))), App("==", (y, Lit(2)))))
    assert ck.assume(st, fact)
    assert ck.norm(x, st) == Lit(1)
    assert ck.norm(y, st) == Lit(2)


def test_occurs_check_blocks_cyclic_substitution(ck):
    st = SymState()
    x = ck.fresh("x")
    assert ck.assume(st, App("==", (x, App("+", (x, Lit(1))))))
    assert ck.norm(x, st) == x  # no substitution was recorded


# -- memoised normal forms and keyed lookups ----------------------------------

# terms over four hand-built symbols; no checker hands out a negative id
_ATOMS = hs.one_of(
    hs.builds(lambda i: Sym(-i, f"s{i}"), hs.integers(1, 4)),
    hs.builds(Lit, hs.integers(-2, 2)), hs.builds(Lit, hs.booleans()))
_OPS = ["++", "len", "index", "drop", "take", "drop_last", "take_last",
        "+", "-", "*", "/", "neg", "<", "<=", ">", ">=", "==", "!=", "not",
        "&&", "||", "ite", "is#Nil", "is#Cons", "proj#cell"]
_ARITY = {"len": 1, "drop_last": 1, "take_last": 1, "neg": 1, "not": 1,
          "is#Nil": 1, "is#Cons": 1, "proj#cell": 1, "ite": 3}
TERMS = hs.recursive(_ATOMS, lambda sub: hs.one_of(
    hs.builds(lambda a: Ctor("Cons", (a,)), sub),
    hs.just(Ctor("Nil")),
    hs.builds(lambda xs: SeqV("", tuple(xs)),
              hs.lists(sub, max_size=3)),
    hs.sampled_from(_OPS).flatmap(lambda op: hs.builds(
        lambda xs: App(op, tuple(xs)),
        hs.lists(sub, min_size=_ARITY.get(op, 2),
                 max_size=_ARITY.get(op, 2))))), max_leaves=12)
FACTS = hs.one_of(
    hs.builds(lambda i, t: App("==", (Sym(-i, f"s{i}"), t)),
              hs.integers(1, 4), TERMS),
    hs.builds(lambda i: App("is#Cons", (Sym(-i, f"s{i}"),)),
              hs.integers(1, 4)))


@settings(max_examples=300, deadline=None, database=None,
          derandomize=True)
@given(TERMS, hs.lists(FACTS, max_size=3))
def test_memoised_norm_is_idempotent_and_matches_a_fresh_checker(t, facts):
    ck = Checker(PROGRAM)
    st = SymState()
    for fact in [None] + facts:
        if fact is not None:
            ck._refine(st, ck.norm(fact, st))
        n, fresh = ck.norm(t, st), Checker(PROGRAM).norm(t, st)
        assert ck.norm(n, st) == n
        assert fresh == n and sym_str(fresh) == sym_str(n)


def walked_nodes(v):
    """The compound terms of `v`, each once, by a fresh walk as `_first`
    walks."""
    seen, todo = {}, [v]
    while todo:
        t = todo.pop()
        if isinstance(t, _Node) and t not in seen:
            seen[t] = None
            todo.extend(t.args)
    return list(seen)


def walked_syms(node):
    """The symbols of the compound term `node`, by a fresh walk."""
    return {a for n in walked_nodes(node) for a in n.args
            if isinstance(a, Sym)}


@settings(max_examples=300, deadline=None, database=None,
          derandomize=True)
@given(TERMS)
def test_symbol_sets_match_a_walk(t):
    for node in walked_nodes(t):
        assert _syms(node) == walked_syms(node)
    for i in range(1, 5):
        s = Sym(-i, f"s{i}")
        assert _mentions(t, s) == (_first(t, (s,)) is not None)


def test_symbol_sets_match_a_walk_on_every_corpus_term(monkeypatch):
    # every term of each check's own table, kept alive here, and each
    # symbol set taken after the checks
    tables = []
    check_method = Checker.check_method

    def kept(self, m):
        tables.append(permcheck._TERMS)
        return check_method(self, m)

    monkeypatch.setattr(Checker, "check_method", kept)
    for path in sorted(CORPUS.glob("*.ml")):
        program = translate_source(path.read_text(encoding="utf-8"))[0]
        if program is not None:
            check_program(program)
    nodes = {id(t): t for table in tables for t in table.values()
             if isinstance(t, _Node)}.values()
    assert len(nodes) > 50
    assert any(t.syms is not None for t in nodes)  # bindings probed some
    for t in nodes:
        assert _syms(t) == walked_syms(t)


def test_lookups_see_through_a_later_substitution(ck):
    # stored under x, looked up through y after x == y binds x to y: the
    # binding re-keys the stored entries under y, so the lookups probe
    st = SymState()
    x, y = ck.fresh("x"), ck.fresh("y")
    st.store.update(x=x, y=y)
    st.heap[(x, "val")] = Lit(7)
    st.preds[("P", (x,))] = 1
    assert ck.assume(st, App("==", (x, y)))
    assert ck.norm(x, st) == y
    ck.exec_stmt(st, V.VarDeclS("t", V.INT, V.FieldAcc(V.Var("y"), "val")))
    assert st.store["t"] == Lit(7)
    ck.exec_stmt(st, V.AssignS(V.FieldAcc(V.Var("y"), "val"), V.IntLit(8)))
    assert st.heap == {(y, "val"): Lit(8)}
    ck.exec_stmt(st, V.UnfoldS(pred("P", "y")))
    assert not ck.diags
    assert not st.preds


def test_instance_lookup_sees_through_a_later_substitution(ck):
    # as above, with an instance the only key that mentions x
    st = SymState()
    x, y = ck.fresh("x"), ck.fresh("y")
    st.store.update(x=x, y=y)
    st.preds[("P", (x,))] = 1
    assert ck.assume(st, App("==", (x, y)))
    ck.exec_stmt(st, V.UnfoldS(pred("P", "y")))
    assert not ck.diags
    assert not st.preds


def test_permissions_that_fall_on_one_key_are_infeasible(ck):
    # x == y would make acc(x.val) and acc(y.val) two whole permissions to
    # one location, which cannot both be held
    st = SymState()
    x, y = ck.fresh("x"), ck.fresh("y")
    store = {"x": x, "y": y}
    assert ck.produce(st, V.AndA([acc("x", "val"), acc("y", "val")]),
                      store) == [st]
    assert not ck.assume(st, App("==", (x, y)))


def scan(ck, st, keys, q):
    """How many of the original `keys` normalise to `q`'s normal form: the
    lookup by scanning every stored key, as the reference for a probe."""
    q_n = ck.norm(q, st)
    return sum(ck.norm(k, st) == q_n for k in keys)


@settings(max_examples=200, deadline=None, database=None,
          derandomize=True)
@given(hs.lists(TERMS, min_size=1, max_size=4), hs.lists(TERMS, max_size=3),
       hs.lists(FACTS, min_size=1, max_size=4))
def test_bindings_keep_keys_normal_and_lookups_match_a_scan(keys, queries,
                                                            facts):
    ck = Checker(PROGRAM)
    st = SymState()
    keys = list(dict.fromkeys(ck.norm(k, st) for k in keys))
    for i, k in enumerate(keys):
        st.heap[(k, "val")] = Lit(i)
        st.preds[("P", (k,))] = st.preds.get(("P", (k,)), 0) + 1
    for fact in facts:
        if not ck.assume(st, fact):
            break
        stored = [r for r, _ in st.heap] + list(st.facts) \
            + [a for _, args in st.preds for a in args]
        assert all(ck.norm(t, st) == t for t in stored)
        for q in keys + queries:
            found = scan(ck, st, keys, q)
            q_n = ck.norm(q, st)
            assert ((q_n, "val") in st.heap) == (found > 0)
            assert st.preds.get(("P", (q_n,)), 0) == found


def bump_chain(bounds, ints=(), guard="r.f0 > {b}", step="r.f0 + 1",
               tail=()):
    """`if guard then r.f0 <- step` for each bound b, then `tail`; `ints`
    names extra int parameters."""
    params = "".join(f" ({n}: int)" for n in ints)
    lines = ["type t = { mutable f0 : int }", "",
             "(*@ predicate p (r: t) = r ~> {f0} *)", "",
             f"let bump (r: t){params} =", "  (*@ unfold p r *)"]
    lines += [f"  if {guard.format(b=b)} then r.f0 <- {step.format(b=b)};"
              for b in bounds]
    lines += list(tail)
    lines += ["  (*@ fold p r *)",
              f"(*@ bump r {' '.join(ints)} requires p r ensures p r *)"]
    program, diags = translate_source("\n".join(lines) + "\n")
    assert program is not None and not diags
    return program


def count_work(monkeypatch):
    counts = Counter()
    norm, decide = Checker.norm, Checker.decide

    def counted_norm(self, v, st):
        counts["norm"] += 1
        return norm(self, v, st)

    def counted_decide(self, st, v):
        counts["decide"] += 1
        return decide(self, st, v)

    monkeypatch.setattr(Checker, "norm", counted_norm)
    monkeypatch.setattr(Checker, "decide", counted_decide)
    return counts


def test_normalisation_work_stays_small(monkeypatch):
    # nine sequential guarded increments join at every if: 27 decisions
    # (477 when every path was walked), 51 norm calls (215 when `eval`
    # normalised every operator it built, 123 when each field read
    # normalised its receiver), and each term is normalised about once
    # per substitution
    counts = count_work(monkeypatch)
    check_program(bump_chain(range(0, 90, 10)))
    assert counts["decide"] == 27
    assert counts["norm"] <= 450


@pytest.mark.parametrize("name, norms, decides", [
    # 158/18, 1,253/104, 7/0 and 3/0 when `eval` interned each operator
    # unnormalised and then normalised it; 119/18, 1,120/104, 7/0 and 3/0
    # when produce and consume normalised receivers, keys and arguments
    # that `eval` had left stale; 119/18 and 1,043/104 when each binding
    # renormalised every fact, value and key of the state; 105/18,
    # 683/104, 6/0 and 2/0 before `decide` and `eval` probed the memo
    # themselves, calling `norm` only on a miss
    ("checker_queue.ml", 27, 18),
    ("queue.ml", 175, 104),
    ("foo_fixed.ml", 1, 0),
    ("foo_missing_unfold.ml", 1, 0),
    ("empty.ml", 0, 0),
])
def test_checker_work_on_the_corpus(monkeypatch, name, norms, decides):
    # exact counts: no hash seed or clock enters them
    program, _ = translate_source(
        (CORPUS / name).read_text(encoding="utf-8"))
    counts = count_work(monkeypatch)
    check_program(program)
    assert (counts["norm"], counts["decide"]) == (norms, decides)


def test_bindings_keep_stored_values_normal(monkeypatch):
    # every value of the store and the heap is its own normal form after
    # each binding, as heap keys, instance arguments and facts are
    binds = 0
    bind = Checker._bind

    def checked_bind(self, st, s, v):
        nonlocal binds
        binds += 1
        bind(self, st, s, v)
        # under a fresh memo too: the binding memoised what it left alone
        fresh = st.clone()
        fresh.memo = {}
        for value in [*st.store.values(), *st.heap.values()]:
            assert self.norm(value, st) is value
            assert self.norm(value, fresh) is value
        keys = [r for r, _ in st.heap] \
            + [a for _, args in st.preds for a in args]
        for term in [*keys, *st.facts]:
            assert self.norm(term, fresh) is term

    monkeypatch.setattr(Checker, "_bind", checked_bind)
    programs = [translate_source(path.read_text(encoding="utf-8"))[0]
                for path in sorted(CORPUS.glob("*.ml"))]
    programs += [bump_chain(range(0, 90, 10)),
                 translate_source(wide_module())[0]]
    for program in programs:
        if program is not None:
            check_program(program)
    assert binds  # queue.ml binds


STALE_GUARD = reparse("""
field g: Int

method set(n: Int, k: Int)
  ensures n == k

method m(x: Ref, a: Int, b: Int, n: Int, k: Int)
  requires acc(x.g) && a == b
  ensures acc(x.g) && x.g == 1
{
  if (n > 0) {
    set(n, k)
    x.g := 1
  } else {
    set(n, k)
    x.g := 2
  }
}
""")


def test_join_takes_its_guard_after_the_branches_bind():
    # both sides bind n to k, and `a == b` left a true fact that absorbs
    # the binding's, so the sides join; the evaluated guard n > 0 is
    # stale there, and an ite on it would leave x.g == 1 undecided
    for strict in (False, True):
        assert [d.message for d in check_program(STALE_GUARD, strict)] == [
            "postcondition of m: condition x.g == 1 is false"]


STALE_BINDING = reparse("""
field f: Int

method m(x: Ref, n: Int)
  requires acc(x.f) && x.f == n && n > 0
{
}

method u(x: Ref)
  requires x.f == 3 && x.f > 0 && acc(x.f)
{
}
""")


def test_every_value_eval_returns_is_normal(monkeypatch):
    # under produce and consume too, where a conjunct's binding leaves the
    # step's binding dict and cache stale: in `m`, `x.f == n` binds n, so
    # the later `n > 0` reads n as the cell's value and is `f > 0`; in `u`,
    # `x.f == 3` binds the symbol cached for the unheld x.f, so the next
    # read of it is 3.  The normal form is checked under a fresh memo too,
    # since `_op` memoises its result as its own.  Each handler of `_EVAL`
    # is wrapped, since the handlers call their operands' from the table:
    # the value of every node is checked, not only of the tops
    evaluated = 0

    def checked(handler):
        def checked_eval(self, st, e, store, cache, span):
            nonlocal evaluated
            v = handler(self, st, e, store, cache, span)
            evaluated += 1
            assert self.norm(v, st) is v
            assert self.norm(v, SymState(subst=st.subst)) is v
            return v
        return checked_eval

    for cls, handler in list(Checker._EVAL.items()):
        monkeypatch.setitem(Checker._EVAL, cls, checked(handler))
    programs = [translate_source(path.read_text(encoding="utf-8"))[0]
                for path in sorted(CORPUS.glob("*.ml"))]
    programs += [gen_program(random.Random(seed)) for seed in range(200)]
    programs += [bump_chain(range(0, 90, 10)), STALE_GUARD]
    for program in programs:
        if program is not None:
            check_program(program)
    assert evaluated > 5000
    assert [d.message for d in check_program(STALE_BINDING)] == [
        "m leaks permission to x.f", "u leaks permission to x.f"]


def test_checker_calls_per_statement_on_a_wide_module():
    # Python and C calls per method-body statement: a count of calls,
    # unlike a time, does not depend on the machine.  An `isinstance`
    # ladder in `eval`, symbols hashed by a Python method, a field's
    # receiver normalised twice per read and an eager fold message made
    # 168.6 (22,594 calls); Python-level term hashing and `isinstance`
    # ladders in `_produce`, `_consume` and `exec_stmt` made 96.2; 77.4
    # with interned terms and class dispatch (76.3 on Python 3.13); 74.6
    # (9,999 calls) once symbol ids are unique in the process and an
    # interned term is handed out without comparing its children; 75.6
    # (10,127 calls on Python 3.11.7) before stored values were kept in
    # normal form, 63.4 (8,495) once `eval` simplifies each operator
    # once and each predicate's instance is built once per checker, and
    # 57.6 (7,722) once a field read takes its receiver as `eval`
    # returns it; 56.5 (7,576) on Python 3.11 later, and 52.6 (7,055;
    # 52.4 on Python 3.12 and 3.13) once one live state is stepped
    # without a list of its own per statement and per conjunct, bounded by
    # 62; 36.2 (4,851; 35.9 on Python 3.12 and 3.13) once each handler
    # calls its children's from the table, not through `eval`, `_produce`
    # and `_consume`, and a variable receiver is read in place, bounded by
    # 36.5; 34.25 (4,589; 33.96 on Python 3.12 and 3.13) once `decide` and
    # `eval` probe the memo before they call `norm`, and every operator,
    # constructor test and projection has a rule of its own
    program, diags = translate_source(wide_module())
    assert program is not None and not diags
    per_statement, stmts = checker_calls_per_statement(program)
    assert stmts == 134
    assert per_statement <= 34.5


def test_checker_calls_per_statement_on_a_module():
    # the `module` shape: 105.6 Python and C calls per method-body
    # statement on Python 3.10 and 3.11, 99.9 on 3.12 and 3.13, bounded
    # by 108.5; 98.8 (35,582 calls) on 3.10 and 3.11 and 93.1 on 3.12 and
    # 3.13 once `decide` and `eval` probe the memo before they call `norm`,
    # and every operator, constructor test and projection has a rule of
    # its own.  A method body's `match` is one statement, and its arms are
    # counted in it.
    program, diags = translate_source(module_source())
    assert program is not None and not diags
    per_statement, stmts = checker_calls_per_statement(program)
    assert stmts == 360
    assert per_statement <= 100


# each name `eval` can pass to `_op`, with operands on which its rule folds
FOLDS = [("+", (Lit(1), Lit(2))), ("-", (Lit(1), Lit(2))),
         ("*", (Lit(2), Lit(3))), ("/", (Lit(7), Lit(2))),
         ("<", (Lit(1), Lit(2))), ("<=", (Lit(1), Lit(2))),
         (">", (Lit(1), Lit(2))), (">=", (Lit(1), Lit(2))),
         ("==", (Lit(1), Lit(2))), ("!=", (Lit(1), Lit(2))),
         ("&&", (TRUE, FALSE)), ("||", (TRUE, FALSE)),
         ("++", (seq(1), seq(2))), ("not", (TRUE,)), ("neg", (Lit(1),)),
         ("len", (seq(1),)), ("index", (seq(1), Lit(0))),
         ("drop", (seq(1, 2), Lit(1))), ("take", (seq(1, 2), Lit(1))),
         ("drop_last", (seq(1, 2),)), ("take_last", (seq(1, 2),)),
         ("ite", (TRUE, Lit(1), Lit(2))), ("is#Nil", (Ctor("Nil"),)),
         ("proj#cell", (Ctor("Cons", (Lit(1),)),))]


def test_every_operator_eval_builds_has_a_rule(ck):
    # the Viper operators, the names `eval` gives unary and sequence
    # nodes, the prelude's functions, and the constructor tests and
    # projections, which alone reach the fallback unlisted; a function of
    # the program without a rule of its own stays uninterpreted
    names = {name for name, _ in FOLDS}
    assert names >= {op.viper for op in V.BINARY} | {
        "not", "neg", "len", "index", "drop", "take", "ite",
        *PRELUDE_NAMES}
    for name, args in FOLDS:
        assert name in Checker._RULES or name.startswith(("is#", "proj#"))
        assert not (isinstance(ck._simplify(name, args), App)), name
    assert set(Checker._RULES) <= names
    s = ck.fresh("s")
    assert ck._simplify("f", (s,)) == App("f", (s,))


def test_walks_reject_a_node_class_they_do_not_know(ck):
    # a handler takes its children's handlers from the table itself, so
    # an unknown class nested in a known node fails as one at the top does
    class Odd:
        span = None

    x = V.Var("x")
    st = SymState(store={"x": ck.fresh("x")})
    for e in (Odd(), V.BinOp("+", Odd(), x), V.FieldAcc(Odd(), "f")):
        with pytest.raises(TypeError, match="^cannot evaluate Odd$"):
            ck.eval(st, e, st.store, None)
    for a, produce, consume in (
            (Odd(), "produce", "consume"),
            (V.AndA([Odd()]), "produce", "consume"),
            (V.Acc(V.FieldAcc(Odd(), "f")), "evaluate", "evaluate")):
        with pytest.raises(TypeError, match=f"^cannot {produce} Odd$"):
            ck.produce(st, a, st.store)
        with pytest.raises(TypeError, match=f"^cannot {consume} Odd$"):
            ck.consume(st, a, st.store, CTX)
    for s in (Odd(), V.IfS(V.BoolLit(True), [Odd()]),
              V.IfS(V.BinOp(">", x, V.IntLit(0)), [], [Odd()])):
        with pytest.raises(TypeError, match="^cannot execute Odd$"):
            ck.exec_stmt(st, s)
    with pytest.raises(TypeError, match="Odd"):
        ck.norm(Odd(), st)


# -- produce ------------------------------------------------------------------


def acc(var, fld):
    return V.Acc(V.FieldAcc(V.Var(var), fld))


def pred(name, *vars_):
    return V.PredApp(name, [V.Var(v) for v in vars_])


def test_produce_acc_grants_permission_and_value(ck):
    st = SymState()
    x = ck.fresh("x")
    out = ck.produce(st, acc("x", "val"), {"x": x})
    assert out == [st]
    assert isinstance(st.heap[(x, "val")], Sym)


def test_produce_second_whole_permission_is_infeasible(ck):
    st = SymState()
    x = ck.fresh("x")
    store = {"x": x}
    ck.produce(st, acc("x", "val"), store)
    assert ck.produce(st, acc("x", "val"), store) == []


def test_unframed_reads_in_one_produce_share_a_symbol(ck):
    # without acc(x.val) both reads of x.val come from the produce-time
    # cache, so x.val > 0 and !(x.val > 0) contradict each other
    st = SymState()
    x = ck.fresh("x")
    gt = V.BinOp(">", V.FieldAcc(V.Var("x"), "val"), V.IntLit(0))
    a = V.AndA([V.Pure(gt), V.Pure(V.UnOp("!", gt))])
    assert ck.produce(st, a, {"x": x}) == []


def test_produce_predicate_counts_instances(ck):
    st = SymState()
    x = ck.fresh("x")
    ck.produce(st, pred("P", "x"), {"x": x})
    ck.produce(st, pred("P", "x"), {"x": x})
    assert st.preds[("P", (x,))] == 2


def test_produce_false_pure_kills_the_state(ck):
    st = SymState()
    assert ck.produce(st, V.Pure(V.BoolLit(False)), {}) == []


def test_produce_undecidable_conditional_forks(ck):
    st = SymState()
    x = ck.fresh("x")
    a = V.CondA(V.BinOp(">", V.Var("x"), V.IntLit(0)),
                acc("x", "val"), acc("x", "nxt"))
    out = ck.produce(st, a, {"x": x})
    assert len(out) == 2
    granted = {fld for s in out for _, fld in s.heap}
    assert granted == {"val", "nxt"}


def test_produce_decided_conditional_takes_one_branch(ck):
    st = SymState()
    x = ck.fresh("x")
    assert ck.assume(st, App(">", (x, Lit(0))))
    a = V.CondA(V.BinOp(">", V.Var("x"), V.IntLit(0)),
                acc("x", "val"), acc("x", "nxt"))
    out = ck.produce(st, a, {"x": x})
    assert len(out) == 1
    assert {fld for _, fld in out[0].heap} == {"val"}


# -- consume ------------------------------------------------------------------


def test_consume_undoes_produce(ck):
    st = SymState()
    x = ck.fresh("x")
    store = {"x": x}
    a = V.AndA([acc("x", "val"), pred("P", "x")])
    ck.produce(st, a, store)
    assert ck.consume(st, a, store, CTX)
    assert not st.heap and not st.preds and not ck.diags


def test_consume_missing_permission_reports(ck):
    st = SymState()
    assert not ck.consume(st, acc("x", "val"), {"x": ck.fresh("x")}, CTX)
    msgs = [d.message for d in errors(ck, Category.PERMISSION)]
    assert msgs and "give up x.val" in msgs[0]


def test_consume_missing_instance_uses_context_category(ck):
    st = SymState()
    ctx = _ConsumeCtx(Category.FOLD_MISMATCH, "fold P(x)")
    assert not ck.consume(st, pred("P", "x"), {"x": ck.fresh("x")}, ctx)
    assert errors(ck, Category.FOLD_MISMATCH)


def test_consume_false_condition_reports(ck):
    st = SymState()
    a = V.Pure(V.BinOp("==", V.IntLit(1), V.IntLit(2)))
    assert not ck.consume(st, a, {}, CTX)
    assert errors(ck, Category.CONTRACT_VIOLATION)


def test_unknown_pure_is_an_obligation_when_lenient(ck):
    st = SymState()
    a = V.Pure(V.BinOp(">", V.Var("x"), V.IntLit(0)))
    assert ck.consume(st, a, {"x": ck.fresh("x")}, CTX)
    assert not errors(ck)
    assert [d for d in ck.diags if d.severity is Severity.OBLIGATION]


def test_unknown_pure_is_an_error_when_strict():
    ck = Checker(PROGRAM, strict=True)
    st = SymState()
    a = V.Pure(V.BinOp(">", V.Var("x"), V.IntLit(0)))
    assert not ck.consume(st, a, {"x": ck.fresh("x")}, CTX)
    assert errors(ck, Category.PURE_OBLIGATION)


def test_undecidable_conditional_cannot_be_consumed(ck):
    st = SymState()
    a = V.CondA(V.BinOp(">", V.Var("x"), V.IntLit(0)),
                acc("x", "val"), acc("x", "nxt"))
    assert not ck.consume(st, a, {"x": ck.fresh("x")}, CTX)
    assert errors(ck, Category.UNDECIDABLE_BRANCH)


def test_consume_reads_the_entry_snapshot(ck):
    # the pure conjunct still sees x.val although acc(x.val) was taken first
    st = SymState()
    x = ck.fresh("x")
    store = {"x": x}
    ck.produce(st, acc("x", "val"), store)
    st.heap[(x, "val")] = Lit(5)
    a = V.AndA([acc("x", "val"),
                V.Pure(V.BinOp("==", V.FieldAcc(V.Var("x"), "val"),
                               V.IntLit(5)))])
    assert ck.consume(st, a, store, CTX)
    assert not ck.diags


STALE = """
field val: Int
field nxt: Ref
method m(x: Int, y: Int, q: Seq[Int], r: Ref)
  requires {}
"""


@pytest.mark.parametrize("text, paths", [
    ("x == 12 && (x + 1 > 12 ? acc(r.val) : acc(r.nxt)) && x * 2 == 24", 1),
    ("(y != 1 ? acc(r.val) : acc(r.nxt)) && Seq[Int]() == q && x == 12", 2),
])
def test_consume_after_a_binding_reads_a_stale_store(text, paths):
    # a conjunct binds x (or y, q) while the produce and the consume read
    # the store they were given, which still holds the unbound symbol:
    # the later conjuncts' values are stale, and only normalising them
    # decides them
    program = reparse(STALE.format(text))
    a = program.methods()["m"].pres[0]
    ck = Checker(program, strict=True)
    store = {v: ck.fresh(v) for v in ("x", "y", "q", "r")}
    states = ck.produce(SymState(), a, store)
    assert len(states) == paths
    for st in states:
        assert ck.consume(st, a, dict(store), CTX)
        assert not st.heap and not st.preds
    assert ck.diags == []


# -- statements ---------------------------------------------------------------


def exec_seq(ck, st, stmts):
    states = [st]
    for s in stmts:
        states = [n for cur in states for n in ck.exec_stmt(cur, s)]
    return states


def test_write_needs_permission_then_repairs(ck):
    st = SymState()
    st.store["x"] = ck.fresh("x")
    w = V.AssignS(V.FieldAcc(V.Var("x"), "val"), V.IntLit(1))
    exec_seq(ck, st, [w, V.AssignS(V.FieldAcc(V.Var("x"), "val"),
                                   V.IntLit(2))])
    assert len(errors(ck, Category.PERMISSION)) == 1
    assert st.heap[(st.store["x"], "val")] == Lit(2)


def test_read_needs_permission(ck):
    st = SymState()
    st.store["x"] = ck.fresh("x")
    s = V.VarDeclS("y", V.VType("Int"), V.FieldAcc(V.Var("x"), "val"))
    ck.exec_stmt(st, s)
    assert errors(ck, Category.PERMISSION)


def test_new_grants_all_listed_fields(ck):
    st = SymState()
    ck.exec_stmt(st, V.NewS("r", ["val", "nxt"]))
    r = st.store["r"]
    assert st.heap.keys() == {(r, "val"), (r, "nxt")}


def test_if_forks_on_unknown_condition(ck):
    # the then side binds a := 0, so the sides cannot be joined
    st = SymState()
    st.store["a"] = ck.fresh("a")
    s = V.IfS(V.BinOp("==", V.Var("a"), V.IntLit(0)), [], [])
    out = ck.exec_stmt(st, s)
    assert len(out) == 2
    verdicts = {ck.decide(s2, App("==", (s2.store["a"], Lit(0))))
                for s2 in out}
    assert verdicts == {True, False}


def test_if_joins_sides_that_differ_in_int_values(ck):
    st = SymState()
    a, x = ck.fresh("a"), ck.fresh("x")
    st.store.update(a=a, x=x)
    st.heap[(x, "val")] = ck.fresh("val")
    guard = App(">", (a, Lit(0)))

    def write(n):
        return [V.AssignS(V.FieldAcc(V.Var("x"), "val"), V.IntLit(n))]

    out = ck.exec_stmt(st, V.IfS(V.BinOp(">", V.Var("a"), V.IntLit(0)),
                                 write(1), write(2)))
    assert len(out) == 1
    assert out[0].heap[(x, "val")] == App("ite", (guard, Lit(1), Lit(2)))
    assert out[0].facts == {}
    assert ck.decide(out[0], guard) is None


def test_fold_trades_body_for_instance(ck):
    st = SymState()
    x = ck.fresh("x")
    st.store["x"] = x
    ck.produce(st, acc("x", "val"), st.store)
    ck.exec_stmt(st, V.FoldS(pred("P", "x")))
    assert not ck.diags
    assert not st.heap
    assert st.preds[("P", (x,))] == 1


def test_fold_without_the_body_reports(ck):
    st = SymState()
    st.store["x"] = ck.fresh("x")
    ck.exec_stmt(st, V.FoldS(pred("P", "x")))
    # the missing conjunct is a permission, reported under the fold's name
    msgs = [d.message for d in errors(ck, Category.PERMISSION)]
    assert msgs and msgs[0].startswith("fold P(x)")


def test_fold_arity_and_unknown_predicate(ck):
    st = SymState()
    st.store["x"] = ck.fresh("x")
    ck.exec_stmt(st, V.FoldS(V.PredApp("P", [V.Var("x"), V.Var("x")])))
    ck.exec_stmt(st, V.FoldS(pred("Nope", "x")))
    msgs = [d.message for d in errors(ck, Category.FOLD_MISMATCH)]
    assert any("takes 1 arguments" in m for m in msgs)
    assert any("unknown predicate" in m for m in msgs)


def test_unfold_trades_instance_for_body(ck):
    st = SymState()
    x = ck.fresh("x")
    st.store["x"] = x
    st.preds[("P", (x,))] = 1
    ck.exec_stmt(st, V.UnfoldS(pred("P", "x")))
    assert not ck.diags
    assert not st.preds
    assert (x, "val") in st.heap


def test_unfold_missing_instance_reports_and_repairs(ck):
    st = SymState()
    x = ck.fresh("x")
    st.store["x"] = x
    ck.exec_stmt(st, V.UnfoldS(pred("P", "x")))
    assert errors(ck, Category.FOLD_MISMATCH)
    assert (x, "val") in st.heap  # body granted anyway to keep going


def test_unfold_matches_instances_up_to_substitution(ck):
    st = SymState()
    x, y = ck.fresh("x"), ck.fresh("y")
    st.store["x"] = x
    st.preds[("P", (y,))] = 1
    assert ck.assume(st, App("==", (x, y)))
    ck.exec_stmt(st, V.UnfoldS(pred("P", "x")))
    assert not ck.diags
    assert not st.preds


def test_call_consumes_pre_havocs_and_produces_post(ck):
    st = SymState()
    x = ck.fresh("x")
    st.store["x"] = x
    ck.produce(st, acc("x", "val"), st.store)
    before = st.heap[(x, "val")]
    out = ck.exec_stmt(st, V.CallS([], "mov", [V.Var("x")]))
    assert not ck.diags
    assert len(out) == 1
    after = out[0].heap[(x, "val")]
    assert (x, "val") in out[0].heap
    assert after != before  # the callee may have changed the field


def test_call_unknown_method_and_arity(ck):
    st = SymState()
    st.store["x"] = ck.fresh("x")
    ck.exec_stmt(st, V.CallS([], "gone", [V.Var("x")]))
    ck.exec_stmt(st, V.CallS([], "mov", []))
    msgs = [d.message for d in errors(ck, Category.CONTRACT_VIOLATION)]
    assert any("unknown method" in m for m in msgs)
    assert any("takes 1 arguments" in m for m in msgs)


# -- whole methods --------------------------------------------------------------


def method_over(header, body):
    text = """
adt Cell { Nil() Cons(cell: Ref) }
field val: Int
field nxt: Ref
predicate P(x: Ref) { acc(x.val) }
""" + header + "\n{\n" + body + "\n}\n"
    return reparse(text)


def test_clean_method_has_no_diagnostics():
    prog = method_over(
        "method ok(x: Ref) requires P(x) ensures P(x)",
        "unfold P(x)\nx.val := 1\nfold P(x)")
    assert check_program(prog) == []


def test_leaked_permission_is_a_warning():
    prog = method_over("method leaky(x: Ref) requires acc(x.val)", "")
    diags = check_program(prog)
    assert [d.severity for d in diags] == [Severity.WARNING]
    assert "leaks permission to x.val" in diags[0].message


def test_leaked_instance_is_a_warning():
    prog = method_over("method leaky(x: Ref) requires P(x)", "")
    diags = check_program(prog)
    assert any("leaks 1 instance(s) of P" in d.message for d in diags)


def test_leak_warnings_suppressed_after_errors():
    prog = method_over("method bad(x: Ref) requires acc(x.val)",
                       "x.nxt := x")
    diags = check_program(prog)
    assert all("leaks" not in d.message for d in diags)


def test_an_undeclared_variable_is_a_translation_error():
    # the translator rejects such source first, so only a hand-built
    # program reaches the checker's own check
    prog = method_over(
        "method m(x: Ref) requires acc(x.val) ensures acc(x.val)",
        "x.val := y")
    prog.methods()["m"].body[0].span = 40
    assert [(d.severity, d.category, d.message, d.span)
            for d in check_program(prog)] == [
        (Severity.ERROR, Category.TRANSLATION,
         "use of undeclared variable 'y'", 40)]


def test_a_call_with_too_few_targets_is_a_contract_violation():
    # the translator rejects such source first, so only a hand-built
    # program reaches the checker's own check
    prog = method_over(
        "method two() returns (a: Int, b: Int)\n{\n}\nmethod m()",
        "var c: Int\nc := two()")
    prog.methods()["m"].body[1].span = 60
    assert [(d.severity, d.category, d.message, d.span)
            for d in check_program(prog)] == [
        (Severity.ERROR, Category.CONTRACT_VIOLATION,
         "two returns 2 values, 1 targets given", 60)]


def test_path_explosion_is_capped_and_reported():
    # `c == 0` binds c on the then side, so no two sides join
    conds = "abcdef"
    params = ", ".join(f"{c}: Int" for c in conds)
    body = "\n".join(f"if ({c} == 0) {{\n}} else {{\n}}" for c in conds)
    prog = method_over(f"method wide({params})", body)
    diags = check_program(prog)
    assert any(f"more than {MAX_PATHS} symbolic paths" in d.message
               for d in diags)
    assert all(d.severity is Severity.WARNING for d in diags
               if "paths" in d.message)


def test_path_cap_is_an_error_when_strict():
    conds = "abcdef"
    params = ", ".join(f"{c}: Int" for c in conds)
    body = "\n".join(f"if ({c} == 0) {{\n}} else {{\n}}" for c in conds)
    prog = method_over(f"method wide({params})", body)
    diags = check_program(prog, strict=True)
    assert any(d.severity is Severity.ERROR and "paths" in d.message
               for d in diags)


def test_long_if_chain_joins_in_linear_work(monkeypatch):
    counts = count_work(monkeypatch)
    norms = {}
    for k in (8, 64):
        counts.clear()
        diags = check_program(bump_chain(range(0, 10 * k, 10)))
        assert diags == []  # no cap warning
        norms[k] = counts["norm"]
    # {8: 158, 64: 1222} when `eval` normalised every operator it built,
    # {8: 110, 64: 838} when each field read normalised its receiver,
    # {8: 46, 64: 326} before `decide` and `eval` probed the memo
    # themselves
    assert norms == {8: 17, 64: 129}
    assert norms[64] <= 10 * norms[8]


SETQ = """\
type t = { mutable f0 : int }
(*@ predicate q (r: t) = r ~> {f0} && r.f0 > 0 && r.f0 <> 3 *)
let setq (r: t) (a: int) =
  (*@ unfold q r *)
  if a > 0 then r.f0 <- 1 else r.f0 <- 2;
  (*@ fold q r *)
  ()
(*@ setq r a requires q r ensures q r *)
"""


def test_joined_literal_values_still_decide_a_fold():
    # r.f0 is ite(a > 0, 1, 2) at the fold, which is > 0 and <> 3
    program, diags = translate_source(SETQ)
    assert program is not None and not diags
    assert check_program(program, strict=True) == []


def test_condition_false_on_one_side_of_a_join_is_reported():
    # r.f0 == 1 folds to the guard a > 0, which the join dropped from the
    # path; deciding it on each side of the join finds it false on one,
    # as the two forked paths did before the join
    program, diags = translate_source(SETQ.replace(
        "r.f0 > 0 && r.f0 <> 3", "r.f0 = 1"))
    assert program is not None and not diags
    for strict in (False, True):
        found = check_program(program, strict=strict)
        assert [(d.severity, d.category) for d in found] \
            == [(Severity.ERROR, Category.FOLD_MISMATCH)]
        assert "condition r.f0 == 1 is false" in found[0].message


INFEASIBLE_SIDE = reparse("""
field val: Int

method need(x: Ref, b: Int)
  requires (x.val == 1 || b > 5)

method m(x: Ref, a: Int, b: Int)
  requires acc(x.val)
  ensures acc(x.val)
{
  if (a > 0) {
    x.val := 1
  } else {
    x.val := 2
  }
  if (a > 0) {
    need(x, b)
  }
}
""")


def test_a_side_of_a_join_that_contradicts_the_facts_is_dropped():
    # x.val is ite(a > 0, 1, 2) after the join, and the second `if` assumes
    # the guard again, so need's precondition is `a > 0 || b > 5`, left
    # undecided; on the join's else side the guard is false, which
    # contradicts the path, so only the then side, where it holds, counts:
    # deciding `b > 5` on the other would leave it unproved
    assert check_program(INFEASIBLE_SIDE, strict=True) == []


BOOL_JOIN = """\
type t = { mutable b : bool }
let set (c: t) (a: int) =
  if a > 0 then c.b <- true else c.b <- false
(*@ set c a requires c ~> {b}
      ensures c ~> {b} && (c.b = true || c.b = false) *)
"""


def test_joined_bool_field_is_decided_on_each_side_of_the_join():
    # c.b is ite(a > 0, true, false), which is the guard a > 0 itself;
    # each side of the join takes the guard as a literal, so the
    # postcondition holds on both, not only as an obligation
    program, diags = translate_source(BOOL_JOIN)
    assert program is not None and not diags
    for strict in (False, True):
        assert check_program(program, strict=strict) == []


CONDP = """\
type t = { mutable f0 : int }
(*@ predicate q (r: t) =
      r ~> {f0} && (if r.f0 > 0 then r.f0 < 5 else r.f0 > 0 - 5) *)
let setq (r: t) (a: int) =
  (*@ unfold q r *)
  if a > 0 then r.f0 <- 1 else r.f0 <- 0 - 1;
  (*@ fold q r *)
  ()
(*@ setq r a requires q r ensures q r *)
"""


def test_conditional_predicate_splits_a_join():
    # the fold takes the then branch on one side of the join and the else
    # branch on the other, so it runs on each side as on two paths
    program, diags = translate_source(CONDP)
    assert program is not None and not diags
    assert check_program(program, strict=True) == []
    program, _ = translate_source(CONDP.replace("0 - 5", "0 - 1"))
    assert [d.message for d in check_program(program)] \
        == ["fold Q(r): condition r.f0 > 0 - 1 is false"]


CONTRACT = """
field val: Int
method g(x: Ref) requires acc(x.val) && {pre} ensures acc(x.val)
method m(x: Ref, a: Int) requires acc(x.val) ensures acc(x.val) && {post}
{{
if (a > 0) {{
x.val := 1
}} else {{
x.val := -1
}}
{call}
}}
"""


@pytest.mark.parametrize("where", ["pre", "post"])
def test_conditional_contract_splits_a_join(where):
    # as a fold, a call's precondition and the postcondition run on each
    # side of the join whose guard picks their branch
    def check(cond):
        text = CONTRACT.format(**{"pre": "true", "post": "true",
                                  where: cond},
                               call="g(x)" if where == "pre" else "")
        return [d.message for d in check_program(reparse(text), strict=True)]

    assert check("(x.val > 0 ? x.val < 5 : x.val > -5)") == []
    what = "call to g: precondition" if where == "pre" else "postcondition of m"
    assert check("(x.val > 0 ? x.val < 5 : x.val > -1)") \
        == [f"{what}: condition x.val > -1 is false"]


def test_conditional_contract_decided_alike_on_both_sides_of_a_join():
    # x.val > 0 holds on each side of the join, though not in the joined
    # state, so the call runs on each side, takes the then branch on both,
    # and the two sides join again
    text = """
field val: Int
method g(x: Ref) requires acc(x.val) && (x.val > 0 ? true : false)
  ensures acc(x.val)
method m(x: Ref, a: Int) requires acc(x.val) ensures acc(x.val)
{
if (a > 0) {
x.val := a
} else {
x.val := 1
}
g(x)
}
"""
    assert check_program(reparse(text), strict=True) == []


NEGATED_GUARD = """
field b: Bool
field v: Int
field w: Int
predicate Q(c: Ref) { acc(c.b) && (c.b ? acc(c.w) : true) }
method m(c: Ref) requires acc(c.b) && acc(c.v) ensures Q(c) && acc(c.v)
{
if (!c.b) {
c.v := 1
} else {
c.v := 2
}
fold Q(c)
}
"""


def test_join_on_a_negated_guard_reports_what_the_two_paths_report(
        monkeypatch):
    # the join keeps the guard !c.b as c.b, with its arms swapped, so the
    # fold's condition c.b finds it and the fold runs on each side: the
    # side where c.b holds gives up c.w, which it does not hold
    program = reparse(NEGATED_GUARD)
    for strict in (False, True):
        joined = check_program(program, strict=strict)
        with monkeypatch.context() as m:
            m.setattr(Checker, "_join", lambda self, mark, a, b: None)
            assert check_program(program, strict=strict) == joined
        assert [(d.category, d.message) for d in joined] == [
            (Category.PERMISSION, "fold Q(c): no permission to give up c.w")]


REWRITTEN_FACT = """
field v: Int
method t(n: Int) requires n > 0
method need(n: Int) requires n > 5
method m(c: Ref, n: Int, k: Int) requires acc(c.v) ensures acc(c.v)
{
if (n > 0) {
c.v := n
} else {
c.v := k
}
if (c.v > 5) {
t(n)
need(n)
} else {
}
}
"""


def test_split_sides_with_different_facts_stay_apart(monkeypatch):
    # the fact ite(n > 0, n, k) > 5 reads the joined c.v; the call t(n)
    # splits on n > 0, which rewrites it to n > 5 on one side and k > 5 on
    # the other, so the sides must not join again: need(n) is unproved on
    # the side n <= 0, as on the path that the join replaced
    program = reparse(REWRITTEN_FACT)
    for strict in (False, True):
        joined = check_program(program, strict=strict)
        with monkeypatch.context() as m:
            m.setattr(Checker, "_join", lambda self, mark, a, b: None)
            assert check_program(program, strict=strict) == joined
        assert [(d.category, d.message) for d in joined] == [
            (Category.CONTRACT_VIOLATION,
             "call to t: precondition: condition n > 0 is false"),
            (Category.PURE_OBLIGATION, "call to need: precondition: "
             + ("cannot establish n > 5" if strict
                else "n > 5 is assumed, not proved"))]


def joined_q(k, tail, g=False):
    """k guarded increments of r.f0, then `tail`: r.f0 ends as a value
    that k joins built.  With `g`, the record has a second field `g`,
    held from start to end."""
    lines = ["type t = { mutable f0 : int" + ("; mutable g : int }" if g
                                               else " }"),
             "(*@ predicate p (r: t) = r ~> {f0} *)",
             "(*@ predicate q (r: t) (n: int) = r ~> {f0} && r.f0 = n *)",
             "let bump (r: t) (a: int) (b: int) =", "  (*@ unfold p r *)"]
    lines += [f"  if a > {i} then r.f0 <- r.f0 + {i};"
              for i in range(1, k + 1)]
    lines += [tail, "  ()", "(*@ bump r a b requires p r"
              + (" && r ~> {g} ensures r ~> {g} *)" if g else " *)")]
    program, diags = translate_source("\n".join(lines) + "\n")
    assert program is not None and not diags
    return program


@pytest.mark.parametrize("tail, message", [
    ("  (*@ fold q r r.f0 *)", "leaks 1 instance(s) of Q(r, ite("),
    ("  (*@ unfold q r r.f0 *)", "missing predicate instance Q(r, ite("),
    ("  (*@ fold q r b *)", "fold Q(r, b): r.f0 == n is assumed"),
])
def test_diagnostics_on_shared_joined_values_stay_cheap(tail, message):
    # 22 joins: printed or ordered as a tree, r.f0 has 2^22 nodes; the
    # fold's condition is undecided on every side of every join
    program = joined_q(22, tail)
    start = time.perf_counter()
    diags = check_program(program)
    assert time.perf_counter() - start < 1.0
    assert any(message in d.message for d in diags)
    assert all(len(d.message) < 200 for d in diags)


@pytest.mark.parametrize("k", [6, 22])
def test_a_split_that_decides_nothing_goes_on_as_one_state(k):
    # the fold's condition r.f0 == n is undecided on every side of every
    # join, so the fold splits down to MAX_PATHS sides; each side ends in
    # one state and the sides join again, so the two ifs that follow, on
    # guards that bind b, leave three states, not three times 32
    program = joined_q(k, "  (*@ fold q r b *)\n"
                       "  if b = 0 then r.g <- 1 else r.g <- 2;\n"
                       "  if b = 1 then r.g <- 1 else r.g <- 2;", g=True)
    assert [(d.severity, d.message) for d in check_program(program)] == [
        (Severity.OBLIGATION,
         "fold Q(r, b): r.f0 == n is assumed, not proved")] + [
        (Severity.WARNING, f"bump leaks 1 instance(s) of Q(r, {n})")
        for n in ("0", "1", "b")]


# -- joins against path enumeration --------------------------------------------

JOIN_HEADER = """
field v: Int
field w: Int
field b: Bool
predicate P(c: Ref) { acc(c.v) }
predicate Q(c: Ref) { acc(c.b) && (c.b ? acc(c.w) : true) }
"""
JOIN_GUARDS = ["c.b", "!c.b", "c.v > n", "n == 2", "c.w > 0", "c.v == 1",
               "n > 0", "c.w == n"]
JOIN_WRITES = ["c.v := n", "c.v := 1", "c.v := c.v + 1", "c.w := 1",
               "c.w := n", "c.b := true", "c.b := false"]
JOIN_GHOSTS = ["fold P(c)", "unfold P(c)", "fold Q(c)", "unfold Q(c)"]
JOIN_PRES = ["acc(c.v) && acc(c.w) && acc(c.b)", "P(c) && Q(c)",
             "acc(c.v) && Q(c)", "P(c) && acc(c.w) && acc(c.b)"]
JOIN_POSTS = JOIN_PRES + ["Q(c) && acc(c.v)", "Q(c) && acc(c.v) && c.v > n",
                          "P(c) && acc(c.b) && acc(c.w) && c.w == 1"]


def join_method(rng):
    """A method over P and Q of 2-5 statements: field writes, ghost
    commands and ifs nested at most twice, each side 0-2 statements."""
    def stmt(depth):
        r = rng.random()
        if r < 0.35 and depth < 2:
            then, els = (block(rng.randint(0, 2), depth + 1)
                         for _ in range(2))
            return (f"if ({rng.choice(JOIN_GUARDS)}) {{\n{then}\n}} "
                    f"else {{\n{els}\n}}")
        return rng.choice(JOIN_WRITES if r < 0.7 else JOIN_GHOSTS)

    def block(k, depth):
        return "\n".join(stmt(depth) for _ in range(k))

    return (f"{JOIN_HEADER}method m(c: Ref, n: Int)\n"
            f"  requires {rng.choice(JOIN_PRES)}\n"
            f"  ensures {rng.choice(JOIN_POSTS)}\n"
            f"{{\n{block(rng.randint(2, 5), 0)}\n}}\n")


def test_joins_never_hide_an_error(monkeypatch):
    """Every permission, fold-mismatch and contract-violation error, and
    under `strict` every pure-obligation error, that path enumeration
    reports is reported with joins too: merging may change what a query
    costs, not its answer (Kuznetsov et al., "Efficient State Merging in
    Symbolic Execution", PLDI 2012).

    Path enumeration is the checker with `_join` refusing every merge.  It
    also drops a state whose facts hold some `f` and `not f`: a binding can
    turn two facts into such a pair, which the checker does not notice, and
    an error on that infeasible path would be a false alarm of the oracle.
    Two differences are allowed:
    - the joined run can report more errors: a join drops the facts that
      made a path infeasible;
    - the joined run can decide a branch, or a pure condition, that path
      enumeration reports as undecidable, by splitting on a join's guard:
      it is more precise.  Where path enumeration cannot establish `C`,
      the joined run may instead report that `C` is false on a side."""
    kept = (Category.PERMISSION, Category.FOLD_MISMATCH,
            Category.CONTRACT_VIOLATION, Category.PURE_OBLIGATION)

    def errors(diags):
        return {(d.category, d.message, d.span) for d in diags
                if d.severity is Severity.ERROR and d.category in kept}

    def found(error, joined):
        category, message, span = error
        where, unproved, cond = message.partition(": cannot establish ")
        return error in joined or unproved and any(
            (c, f"{where}: condition {cond} is false", span) in joined
            for c in kept)

    renormalise = Checker._renormalise

    def pruning(self, st, s=None):
        renormalise(self, st, s)
        if any(self._simplify("not", (f,)) in st.facts for f in st.facts):
            st.facts[FALSE] = None

    rng = random.Random(1)
    for _ in range(2000):
        text = join_method(rng)
        program = reparse(text)
        for strict in (False, True):
            joined = errors(check_program(program, strict=strict))
            with monkeypatch.context() as m:
                m.setattr(Checker, "_join", lambda self, mark, a, b: None)
                m.setattr(Checker, "_renormalise", pruning)
                paths = errors(check_program(program, strict=strict))
            assert all(found(e, joined) for e in paths), (text, strict)


def test_if_joins_int_locals():
    # six ifs that each may bump an Int return: one path, so no cap
    body = "n := 0\n" + "\n".join(
        f"if (c > {k}) {{\nn := n + 1\n}} else {{\n}}" for k in range(6))
    prog = method_over("method count(c: Int) returns (n: Int)", body)
    assert check_program(prog) == []


@pytest.mark.parametrize("other, diags", [
    ("Ref", [f"more than {MAX_PATHS} symbolic paths; dropping the excess, "
             f"the verdict may be incomplete"]),
    ("Int", []),
])
def test_if_joins_a_local_only_at_its_one_scalar_type(other, diags):
    # each if declares a new local, Int on the then side and `other` on the
    # else side: a local declared at two types is never merged, so six
    # ifs fork 64 paths
    body = "\n".join(f"if (c > {k}) {{\nvar x{k}: Int\n}} else {{\n"
                     f"var x{k}: {other}\n}}" for k in range(6))
    prog = method_over("method m(c: Int)", body)
    assert [d.message for d in check_program(prog)] == diags


def test_if_does_not_join_different_refs():
    # ite(c > 0, a, b) would match neither acc(a.val) nor acc(b.val)
    prog = method_over(
        "method pick(a: Ref, b: Ref, c: Int)\n"
        "  requires acc(a.val) && acc(b.val)\n"
        "  ensures acc(a.val) && acc(b.val)",
        "var x: Ref\nif (c > 0) {\nx := a\n} else {\nx := b\n}\n"
        "x.val := 0")
    assert check_program(prog) == []


@pytest.mark.parametrize("test", ["1000 = r.f0", "b = r.f0"])
def test_shared_joined_values_stay_cheap(test):
    # after K joins r.f0 is a term of K levels that shares its subterms:
    # ordering, comparing or scanning it tree-wise takes 2^K steps
    program = bump_chain(range(1, 23), ints=("a", "b"),
                         guard="a > {b}", step="r.f0 + {b}",
                         tail=[f"  if {test} then r.f0 <- 0;"])
    start = time.perf_counter()
    assert check_program(program) == []
    assert time.perf_counter() - start < 1.0


def test_duplicate_diagnostics_are_merged():
    # both branches miss the same fold, one report survives
    prog = method_over(
        "method twice(x: Ref, a: Int) requires P(x) ensures P(x)",
        "if (a > 0) {\n} else {\n}")
    diags = check_program(prog)
    assert len(diags) == len({(d.severity, d.category, d.message)
                              for d in diags})


def test_sym_str_is_readable(ck):
    st = SymState()
    x = ck.fresh("x")
    assert sym_str(Lit(3)) == "3"
    assert sym_str(Ctor("Cons", (x,))).startswith("Cons(")
    assert sym_str(seq(1, 2)) == "Seq(1, 2)"
    v = ck.fresh("v")
    assert sym_str(App("drop_last", (App("++", (v, SeqV("", (x,)))),))) \
        == "drop_last(v ++ Seq(x))"
    # operands that bind as tight or looser than their operator get parens
    assert sym_str(App("&&", (App("==", (x, Lit(1))), App("<", (v, x))))) \
        == "x == 1 && v < x"
    assert sym_str(App("*", (App("+", (x, v)), Lit(2)))) == "(x + v) * 2"
    assert sym_str(App("-", (x, App("-", (v, Lit(1)))))) == "x - (v - 1)"
    assert sym_str(App("not", (x,))) == "not(x)"
    # a third nested ite is elided: K joins nest K ites that share arms
    ite = Lit(0)
    for k in range(3):
        ite = App("ite", (App(">", (x, Lit(k))), App("+", (ite, v)), ite))
    assert sym_str(ite) \
        == "ite(x > 2, ite(x > 1, ... + v, ...) + v, ite(x > 1, ... + v, ...))"


def test_norm_memo_lives_only_as_long_as_its_states():
    # one checker evaluates for many short-lived states: what it keeps
    # must not grow with their number
    ck = Checker(V.ViperProgram(list(prelude_decls())))
    body = {d.name: d.body for d in prelude_decls()}["drop_last"]

    def retained(states):
        tracemalloc.start()
        for i in range(states):
            st = SymState()
            ck.eval(st, body, {"v": SeqV("", (Lit(i), Lit(-i)))}, {})
        gc.collect()  # also empties the allocator's free lists
        size = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        return size

    retained(10)
    few, many = retained(100), retained(1000)
    assert many < 3 * few


# -- interned terms -------------------------------------------------------------


def test_equal_terms_are_one_object(ck):
    x = ck.fresh("x")
    assert App("f", (x,)) is App("f", (x,))
    assert Ctor("Cons", (x,)) is Ctor("Cons", (x,))
    assert SeqV("", (x, Lit(1))) is SeqV("", (x, Lit(1)))
    assert Lit(1) is Lit(1) and Lit(True) is TRUE
    # 1 == True, but they render differently
    assert Lit(1) is not Lit(True) and Lit(0) is not FALSE
    assert App("f", (x,)) is not Ctor("f", (x,))


@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
def test_a_check_owns_its_term_table(monkeypatch, raises):
    # inside a check, a plain table seeded with the two booleans; after
    # it, the process's weak table again, and the check's terms are gone
    outer = permcheck._TERMS
    assert isinstance(outer, weakref.WeakValueDictionary)
    seen = []
    check_method = Checker.check_method

    def probed(self, m):
        x = self.fresh("x")
        seen.append((type(permcheck._TERMS), App("f", (x,)) is App("f", (x,)),
                     Lit(True) is TRUE, Lit(False) is FALSE,
                     weakref.ref(App("g", (x, Lit(1))))))
        if raises:
            raise RuntimeError("mid-check")
        return check_method(self, m)

    monkeypatch.setattr(Checker, "check_method", probed)
    program = translate_source(
        (CORPUS / "foo_fixed.ml").read_text(encoding="utf-8"))[0]
    if raises:
        with pytest.raises(RuntimeError):
            check_program(program)
    else:
        check_program(program)
    gc.collect()
    assert permcheck._TERMS is outer
    assert seen and all(s[:4] == (dict, True, True, True) for s in seen)
    assert all(s[4]() is None for s in seen)


def test_the_term_table_keeps_no_term_of_a_finished_check():
    before = dict(permcheck._TERMS)
    program, diags = translate_source(
        (CORPUS / "checker_queue.ml").read_text(encoding="utf-8"))
    assert program is not None
    check_program(program)
    gc.collect()
    assert all(before.get(k) is ref for k, ref in permcheck._TERMS.items())


def test_a_term_that_outlives_its_method_keeps_its_names(monkeypatch):
    # keeping every normal form alive lets m1's `a + 1` and `n + 1`
    # outlive m1; m2's must still print m2's names
    kept = []
    norm = Checker.norm

    def keeping_norm(self, v, st):
        kept.append(norm(self, v, st))
        return kept[-1]

    monkeypatch.setattr(Checker, "norm", keeping_norm)
    prog = method_over(
        "predicate Q(x: Ref, n: Int) { acc(x.val) }\n"
        "method m1(a: Ref, n: Int) requires Q(a, n + 1) {}\n"
        "method m2(b: Ref, k: Int) requires Q(b, k + 1)", "")
    assert [d.message for d in check_program(prog)] == [
        "m1 leaks 1 instance(s) of Q(a, n + 1)",
        "m2 leaks 1 instance(s) of Q(b, k + 1)"]
    assert kept


def test_no_two_checkers_or_method_runs_share_a_symbol(monkeypatch):
    # every symbol id is drawn from one counter, so a term over one
    # method's symbols is never the term over another's
    made = []
    fresh = Checker.fresh

    def recording_fresh(self, hint):
        made.append(fresh(self, hint))
        return made[-1]

    monkeypatch.setattr(Checker, "fresh", recording_fresh)
    prog = method_over("method m(x: Ref, n: Int) requires acc(x.val)", "")
    one, two = Checker(prog), Checker(prog)
    runs = []
    for ck in (one, one, two):
        made.clear()
        ck.check_method(prog.methods()["m"])
        runs.append(list(made))
    assert [len(run) for run in runs] == [3, 3, 3]  # x, n and x.val
    assert len({s for run in runs for s in run}) == 9
    s1, s2 = one.fresh("s"), two.fresh("s")
    assert s1 != s2 and s1 not in runs[0] + runs[1] + runs[2]
    t = App("+", (s1, Lit(1)))
    assert App("+", (s1, Lit(1))) is t
    assert App("+", (s2, Lit(1))) is not t


def test_checking_twice_in_one_process_gives_the_same_diagnostics():
    def diagnostics(name):
        program, _ = translate_source(
            (CORPUS / name).read_text(encoding="utf-8"))
        return [(d.severity, d.category, d.message, d.span)
                for d in check_program(program)]

    first = diagnostics("queue.ml")
    assert first
    assert diagnostics("foo_missing_unfold.ml")
    assert diagnostics("queue.ml") == first
