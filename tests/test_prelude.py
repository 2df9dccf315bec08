"""The sequence helpers are defined once and evaluated two ways: the
checker knows their names as builtins, and their printed bodies are
plain take/drop slices.  Both paths must agree with a list-splitting
oracle that never touches the implementation."""

from itertools import product

from gospel2viper.permcheck import App, Checker, Lit, SeqV, SymState
from gospel2viper.translate import prelude_decls
from gospel2viper.viper_ast import ViperProgram, golden_equal, pretty

import pytest


def split_off_last(elems):
    """Oracle: the unique split (front, back) with front ++ back == elems
    and |back| == 1, found by trying every split point."""
    for cut in range(len(elems) + 1):
        front, back = elems[:cut], elems[cut:]
        if len(back) == 1 and front + back == elems:
            return front, back
    raise AssertionError("no valid split")


def seqs(max_len, lo=-2, hi=2):
    for n in range(1, max_len + 1):
        yield from product(range(lo, hi + 1), repeat=n)


@pytest.fixture(scope="module")
def checker():
    return Checker(ViperProgram(list(prelude_decls())))


def eval_body(checker, name, elems):
    decl = {d.name: d for d in prelude_decls()}[name]
    store = {"v": SeqV(tuple(Lit(x) for x in elems))}
    st = SymState()
    got = checker.eval(st, decl.body, store, {})
    assert isinstance(got, SeqV)
    return [v.value for v in got.elems]


def test_printed_form():
    assert golden_equal(pretty(ViperProgram(list(prelude_decls()))), """
function drop_last(v: Seq[Int]): Seq[Int]
  requires |v| > 0
{ v[.. |v| - 1] }

function take_last(v: Seq[Int]): Seq[Int]
  requires |v| > 0
{ v[|v| - 1 ..] }
""")


def test_bodies_match_oracle(checker):
    for elems in seqs(4):
        front, back = split_off_last(list(elems))
        assert eval_body(checker, "drop_last", elems) == front
        assert eval_body(checker, "take_last", elems) == back


def test_builtin_shortcut_agrees_with_bodies(checker):
    st = SymState()
    for elems in seqs(4):
        sv = SeqV(tuple(Lit(x) for x in elems))
        short = checker.norm(App("drop_last", (sv,)), st)
        assert [v.value for v in short.elems] == \
            eval_body(checker, "drop_last", elems)
        short = checker.norm(App("take_last", (sv,)), st)
        assert [v.value for v in short.elems] == \
            eval_body(checker, "take_last", elems)


def test_concat_identity(checker):
    st = SymState()
    for elems in seqs(4):
        sv = SeqV(tuple(Lit(x) for x in elems))
        whole = checker.norm(
            App("++", (App("drop_last", (sv,)), App("take_last", (sv,)))), st)
        assert whole == sv


def test_empty_sequence_stays_symbolic(checker):
    # the helpers require a nonempty argument, so nothing is computed
    st = SymState()
    got = checker.norm(App("drop_last", (SeqV(()),)), st)
    assert got == App("drop_last", (SeqV(()),))
