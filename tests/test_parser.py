"""Surface parser tests: declarations, annotations, and the validation
pass that resolves specification names against the program."""

import dataclasses
import sys
from pathlib import Path

from gospel2viper import parser
from gospel2viper.diagnostics import Span
from gospel2viper.lexer import KEYWORDS, PUNCT, SPEC_KEYWORDS, T, lex
from gospel2viper.parser import _BINOPS, parse_module, parse_source
from gospel2viper.surface import (AppE, AssignE, BinE, BoolLit, CtorE,
                                  FieldE, GhostCommand, GhostKind, IfA,
                                  IndexE, IntLit, LetIn, LetPatA, MatchE,
                                  OwnsA, PureA, RecordAlloc, SeqE,
                                  SepA, SliceFromE, UnE, VarE)
from gospel2viper.translate import translate_source

import pytest

CORPUS = Path(__file__).parent / "corpus"


def ok(source):
    module, diags = parse_source(source)
    assert module is not None, [d.message for d in diags]
    assert not diags, [d.message for d in diags]
    return module


def errors(source):
    _, diags = parse_source(source)
    return [d.message for d in diags]


# -- type declarations -------------------------------------------------------


def test_record_type():
    m = ok("type t = { mutable a : int; b : bool }")
    t = m.types()["t"]
    names = [(f.name, f.mutable) for f in t.kind.fields]
    assert names == [("a", True), ("b", False)]


def test_variant_type_with_payload():
    m = ok("type cell = Nil | Cons of { mutable content : int }")
    ctors = m.types()["cell"].kind.ctors
    assert [c.name for c in ctors] == ["Nil", "Cons"]
    assert ctors[0].payload == []
    assert ctors[1].payload[0].name == "content"


def test_type_name_must_be_lowercase():
    assert any("lowercase" in m for m in errors("type Queue = { a : int }"))


# -- function declarations and statements -------------------------------------


def test_fun_decl_with_params_and_result():
    m = ok("let f (x: int) (y: bool) : int = x")
    f = m.functions()["f"]
    assert [n for n, _ in f.params] == ["x", "y"]
    assert f.ret is not None


def test_unit_param_is_skipped():
    m = ok("let f () : int = 0")
    assert m.functions()["f"].params == []


def test_let_without_type_annotation_is_rejected():
    msgs = errors("let f (x: int) = let y = x in y")
    assert any("type" in m for m in msgs)


def test_field_assignment():
    m = ok("let f (q: int) = q.a <- 1")
    body = m.functions()["f"].body
    assert isinstance(body, AssignE)
    assert isinstance(body.target, FieldE)


def test_assignment_needs_field_target():
    assert errors("let f (x: int) = x <- 1")


def test_match_arms_and_binders():
    m = ok("let f (c: int) = match c with | Nil -> 0 | Cons x -> 1")
    body = m.functions()["f"].body
    assert isinstance(body, MatchE)
    assert [(a.ctor, a.binder) for a in body.arms] == [
        ("Nil", None), ("Cons", "x")]


def test_statement_sequence_with_semicolons():
    m = ok("let f (q: int) = q.a <- 1; q.b <- 2; 0")
    body = m.functions()["f"].body
    assert isinstance(body, SeqE)
    assert len(body.items) == 3


def test_parenthesized_sequence_keeps_tail():
    # the closing paren ends the inner sequence, the tail binds outside
    m = ok("let f (q: int) = (q.a <- 1; q.b <- 2); q.a <- 3")
    body = m.functions()["f"].body
    assert isinstance(body, SeqE)
    assert isinstance(body.items[0], SeqE)
    assert isinstance(body.items[1], AssignE)


def test_record_allocation_with_ctor_prefix():
    m = ok("let f () = let c : cell = Cons { content = 1; next = Nil } in c")
    body = m.functions()["f"].body
    assert isinstance(body, SeqE)
    let = body.items[0]
    assert isinstance(let, LetIn)
    assert isinstance(let.rhs, RecordAlloc)
    assert let.rhs.ctor == "Cons"
    assert [n for n, _ in let.rhs.inits] == ["content", "next"]


def test_bare_record_allocation():
    m = ok("let f () = let q : queue = { length = 0 } in q")
    assert m.functions()["f"].body.items[0].rhs.ctor is None


# -- annotations ---------------------------------------------------------------


PRED = """
type cell = Nil | Cons of { mutable content : int; mutable next : cell }
(*@ predicate seg (from: cell) (v: int sequence) (to: cell) =
      if v = empty then to = from
      else let Cons c = from in c ~> {content; next} &&
           seg c.next (v[1 ..]) to *)
"""


def test_predicate_definition_shape():
    m = ok(PRED)
    p = m.predicates()["seg"]
    assert [n for n, _ in p.params] == ["from", "v", "to"]
    body = p.body
    assert isinstance(body, IfA)
    assert isinstance(body.els, LetPatA)
    assert body.els.ctor == "Cons" and body.els.binder == "c"
    inner = body.els.body
    assert isinstance(inner, SepA)
    assert isinstance(inner.parts[0], OwnsA)
    assert inner.parts[0].fields == ["content", "next"]


def test_contract_attaches_to_preceding_function():
    m = ok("""
let f (q: int) = q
(*@ f q requires q = 0 ensures q = 0 *)
""")
    spec = m.functions()["f"].spec
    assert spec is not None
    assert spec.param_names == ["q"]
    assert len(spec.requires) == len(spec.ensures) == 1


def test_contract_params_compared_as_a_set():
    # declaration order (q) (x), spec order x q: still the same set
    ok("""
let add (q: int) (x: int) = q
(*@ add x q requires q = 0 ensures q = 0 *)
""")
    msgs = errors("""
let add (q: int) (x: int) = q
(*@ add x y requires q = 0 ensures q = 0 *)
""")
    assert any("parameter" in m for m in msgs)


def test_contract_with_result_and_ghosts():
    m = ok("""
let create () : int = 0
(*@ r = create () ensures r = 0 *)
""")
    spec = m.functions()["create"].spec
    assert spec.results == ["r"]
    m = ok("""
let add (q: int) (x: int) = q
(*@ add q x [v: int sequence] requires q = 0 ensures q = 0 *)
""")
    spec = m.functions()["add"].spec
    assert [g for g, _ in spec.ghost_params] == ["v"]


def test_duplicate_contract_is_an_error():
    msgs = errors("""
let f (q: int) = q
(*@ f q ensures q = 0 *)
(*@ f q ensures q = 1 *)
""")
    assert msgs


def test_lemma_with_parenthesized_applications():
    m = ok("""
type cell = Nil | Cons of { mutable next : cell }
(*@ predicate seg (a: cell) (b: cell) = a = b *)
(*@ lemma seg_trans (a: cell) (b: cell) (c: cell)
    requires seg(a, b) && seg(b, c)
    ensures seg(a, c) *)
""")
    lem = m.lemmas()["seg_trans"]
    req = lem.requires[0]
    assert isinstance(req, SepA)
    assert [type(a) for a in req.parts] == [PureA, PureA]
    assert req.parts[0].expr.fn == "seg"
    assert [type(x) for x in req.parts[0].expr.args] == [VarE, VarE]


def test_ghost_commands_in_statement_position():
    m = ok("""
type t = { mutable a : int }
(*@ predicate p (x: t) = x ~> {a} *)
let f (x: t) =
  (*@ unfold p x *)
  x.a <- 1
  (*@ fold p x *)
""")
    body = m.functions()["f"].body
    assert isinstance(body, SeqE)
    kinds = [i.kind for i in body.items if isinstance(i, GhostCommand)]
    assert kinds == [GhostKind.UNFOLD, GhostKind.FOLD]


def test_fold_target_must_be_a_predicate():
    msgs = errors("""
let f (x: int) =
  (*@ fold nosuch x *)
  x
""")
    assert any("nosuch" in m for m in msgs)


def test_apply_resolves_with_decapitalized_fallback():
    m = ok("""
type cell = Nil
(*@ predicate seg (a: cell) = a = Nil *)
(*@ lemma seg_refl (a: cell) requires seg(a) ensures seg(a) *)
let f (c: cell) =
  (*@ apply Seg_refl c *)
  c
""")
    body = m.functions()["f"].body
    ghost = body.items[0] if isinstance(body, SeqE) else body
    assert isinstance(ghost, GhostCommand)
    assert ghost.target == "seg_refl"


def test_ghost_argument_brackets_after_call():
    m = ok("""
let g (x: int) = x
(*@ g x [v: int sequence] requires x = 0 ensures x = 0 *)
let f (x: int) = g x [empty]
(*@ f x requires x = 0 ensures x = 0 *)
""")
    call = m.functions()["f"].body
    assert isinstance(call, AppE)
    assert len(call.ghost_args) == 1


def test_spec_sequence_syntax():
    m = ok("""
(*@ predicate p (v: int sequence) =
      v[0] = 1 && v[1 ..] = empty *)
""")
    body = m.predicates()["p"].body
    assert isinstance(body, SepA)


def test_annotation_span_points_into_file():
    source = "let f (x: int) = x\n(*@ f y ensures x = 0 *)\n"
    _, diags = parse_source(source)
    assert diags
    span = diags[0].span
    assert span is not None
    assert source[span.start:span.end]  # inside the file, not the payload


# -- binary operators ----------------------------------------------------------

# The surface operators from loosest to tightest, written out here rather
# than read from the parser.  `++` associates to the right, comparisons do
# not associate, and the rest associate to the left.
LADDER = (("||",), ("&&",), ("=", "<>", "<", "<=", ">", ">="), ("++",),
          ("+", "-"), ("*", "/"))
LEVEL = {op: i for i, ops in enumerate(LADDER) for op in ops}
BINOPS = list(LEVEL)
COMPARISONS = LADDER[2]


def spec_function_body(expr):
    source = ("(*@ function f (a: int) (b: int) (c: int) (d: int) : int = "
              + expr + " *)")
    module, diags = parse_source(source)
    if module is None:
        return None, source, [d.message for d in diags]
    return module.logical_functions()["f"].body, source, []


def assert_spans_start_at_left_operand(e):
    if isinstance(e, BinE):
        left = e.left
        while isinstance(left, BinE):
            left = left.left
        assert e.span == left.span
        assert_spans_start_at_left_operand(e.left)
        assert_spans_start_at_left_operand(e.right)


@pytest.mark.parametrize("op1", BINOPS)
@pytest.mark.parametrize("op2", BINOPS)
def test_binary_operator_pair(op1, op2):
    body, _, diags = spec_function_body(f"a {op1} b {op2} c")
    a, b, c = VarE("a"), VarE("b"), VarE("c")
    if op1 in COMPARISONS and op2 in COMPARISONS:
        assert body is None and diags, "comparisons do not associate"
        return
    assert body is not None, diags
    if LEVEL[op1] > LEVEL[op2] or (LEVEL[op1] == LEVEL[op2] and op1 != "++"):
        assert body == BinE(op2, BinE(op1, a, b), c)
    else:
        assert body == BinE(op1, a, BinE(op2, b, c))
    assert_spans_start_at_left_operand(body)


def test_comparison_after_a_looser_operator_does_not_associate():
    body, _, diags = spec_function_body("a && b < c < d")
    assert body is None and diags


def test_prefix_minus_binds_tighter_than_multiplication():
    body, source, _ = spec_function_body("- a * b")
    assert body == BinE("*", UnE("-", VarE("a")), VarE("b"))
    assert source[body.span.start:body.span.end] == "-"



# -- token kinds and spans -----------------------------------------------------


def test_token_kinds_are_distinct_ints():
    kinds = {name: v for name, v in vars(T).items() if name.isupper()}
    assert all(type(v) is int for v in kinds.values())
    assert len(set(kinds.values())) == len(kinds)
    for table in (PUNCT, KEYWORDS, SPEC_KEYWORDS):
        assert set(table.values()) <= set(kinds.values())
    assert set(_BINOPS) == {T.BARBAR, T.AMPAMP, T.EQ, T.NEQ, T.LT, T.LE,
                            T.GT, T.GE, T.PLUSPLUS, T.PLUS, T.MINUS,
                            T.STAR, T.SLASH}


def nodes(tree):
    """Every syntax node under `tree`, spans excluded."""
    todo = [tree]
    while todo:
        x = todo.pop()
        if isinstance(x, (list, tuple)):
            todo.extend(x)
        elif dataclasses.is_dataclass(x) and not isinstance(x, Span):
            yield x
            todo.extend(getattr(x, f.name) for f in dataclasses.fields(x))


LEAF_TEXT = {VarE: lambda e: e.name, CtorE: lambda e: e.name,
             AppE: lambda e: e.fn, IntLit: lambda e: str(e.value),
             BoolLit: lambda e: "true" if e.value else "false"}
LEFTMOST = {FieldE: lambda e: e.base, BinE: lambda e: e.left,
            IndexE: lambda e: e.seq, SliceFromE: lambda e: e.seq}


def test_corpus_spans_cover_names_and_leftmost_operands():
    seen = set()
    for path in sorted(CORPUS.glob("*.ml")):
        source = path.read_text(encoding="utf-8")
        module = ok(source)
        for e in nodes(module):
            if type(e) in LEAF_TEXT:
                assert source[e.span.start:e.span.end] == LEAF_TEXT[type(e)](e)
            elif type(e) in LEFTMOST:
                assert e.span == LEFTMOST[type(e)](e).span
            else:
                continue
            seen.add(type(e))
    # the corpus has no boolean literal
    assert seen == set(LEAF_TEXT) - {BoolLit} | set(LEFTMOST)


# -- parser work per token -------------------------------------------------------


def wide_module(n_fields=64, n_methods=2):
    """The benchmark's `wide` shape: a record behind one predicate and
    methods that rewrite every field from one to three others."""
    fields = [f"f{j}" for j in range(n_fields)]
    methods = [f"rewrite_{i}" for i in range(n_methods)]
    lines = ["type t = { " + "; ".join(f"mutable {x} : int" for x in fields)
             + " }",
             "(*@ predicate p (r: t) = r ~> {" + "; ".join(fields) + "} *)"]
    for m in methods:
        lines += [f"let {m} (r: t) =", "  (*@ unfold p r *)"]
        for j, x in enumerate(fields):
            srcs = [fields[(j + 7 * d + 1) % n_fields]
                    for d in range(1 + j % 3)]
            lines.append(f"  r.{x} <- " + " + ".join(f"r.{s}" for s in srcs)
                         + ";")
        lines += ["  (*@ fold p r *)", f"(*@ {m} r requires p r ensures p r *)"]
    lines.append("let caller (r: t) =")
    lines += [f"  {m} r;" for m in methods]
    lines += ["  ()", "(*@ caller r requires p r ensures p r *)"]
    return "\n".join(lines) + "\n"


def calls_per_token(source):
    """Python-level calls made by parse_module, per source token.  A count
    of calls, unlike a time, does not depend on the machine."""
    tokens, diags = lex(source)
    assert not diags
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        module, diags = parse_module(tokens)
    finally:
        sys.setprofile(None)
    assert module is not None, [d.message for d in diags]
    return calls / len(tokens), len(tokens)


def test_parser_calls_per_token_on_a_wide_module():
    # `Enum` token kinds and a six-function descent per operand made 7.3.
    # When each payload was lexed again on its own, the stream held 1893
    # tokens (an annotation was one) and parsing made 3.15 calls per token,
    # bounded by 4.5; the payload tokens now sit in the stream, 2076 in all,
    # and parsing makes 2.51 calls per token.
    per_token, n = calls_per_token(wide_module())
    assert n == 2076
    assert per_token <= 2.88


def test_each_file_is_lexed_once(monkeypatch):
    calls = []

    def counted_lex(source, base=0, spec_mode=False):
        calls.append(spec_mode)
        return lex(source, base, spec_mode)

    monkeypatch.setattr(parser, "lex", counted_lex)
    program, diags = translate_source(
        (CORPUS / "checker_queue.ml").read_text(encoding="utf-8"))
    assert program is not None, [d.message for d in diags]
    assert calls == [False]


def test_parenthesized_arguments_are_parsed_once():
    # telling `f (e)` from `f (a, b)` by reparsing `(e)` made the work
    # triple with each level of `f (f (... x))`
    e = "x"
    for _ in range(10):
        e = f"f ({e})"
    per_token, _ = calls_per_token(f"let g (x: int) : int =\n  {e}\n")
    assert per_token <= 10
