"""Surface parser tests: declarations, annotations, and where each
annotation may stand.  The names they declare and use are resolved by the
translator, whose checks are tested here through `translate_source`."""

from pathlib import Path

from gospel2viper import parser
from gospel2viper import viper_ast as V
from gospel2viper.diagnostics import Record, Severity
from gospel2viper.lexer import KEYWORDS, PUNCT, SPEC_KEYWORDS, T, lex
from gospel2viper.parser import _BINOPS, parse_source
from gospel2viper.surface import (AppE, AssignE, BinE, BoolLit, BoolT, CtorE,
                                  FieldE, GhostCommand, GhostKind, IfA,
                                  IndexE, IntLit, IntT, LetIn, LetPatA,
                                  MatchE, NamedT, OwnsA, PureA, RecordAlloc,
                                  SeqE, SepA, SliceFromE, UnE, VarE)
from gospel2viper.translate import translate_source
from gospel2viper.viper_ast import CallS, Var, VToken
from gospel2viper.viper_parser import ViperParseError, reparse

import pytest
from work_counts import calls, calls_per_token, module_source, wide_module

CORPUS = Path(__file__).parent / "corpus"


def ok(source):
    module, diags = parse_source(source)
    assert module is not None, [d.message for d in diags]
    assert not diags, [d.message for d in diags]
    return module


def errors(source):
    _, diags = parse_source(source)
    return [d.message for d in diags]


def translation_errors(source):
    _, diags = translate_source(source)
    return [d.message for d in diags if d.severity is Severity.ERROR]


def decl(module, name):
    """The declaration of `name` in `module`."""
    return next(d for d in module.decls if d.name == name)


# -- type declarations -------------------------------------------------------


def test_record_type():
    m = ok("type t = { mutable a : int; b : bool }")
    t = decl(m, "t")
    names = [(f.name, f.mutable) for f in t.kind.fields]
    assert names == [("a", True), ("b", False)]


def test_variant_type_with_payload():
    m = ok("type cell = Nil | Cons of { mutable content : int }")
    ctors = decl(m, "cell").kind.ctors
    assert [c.name for c in ctors] == ["Nil", "Cons"]
    assert ctors[0].payload == []
    assert ctors[1].payload[0].name == "content"


def test_type_name_must_be_lowercase():
    assert any("lowercase" in m for m in errors("type Queue = { a : int }"))


# -- function declarations and statements -------------------------------------


def test_fun_decl_with_params_and_result():
    m = ok("let f (x: int) (y: bool) : int = x")
    f = decl(m, "f")
    assert [n for n, _ in f.params] == ["x", "y"]
    assert f.ret is not None


def test_unit_param_is_skipped():
    m = ok("let f () : int = 0")
    assert decl(m, "f").params == []


def test_let_without_type_annotation_is_rejected():
    msgs = errors("let f (x: int) = let y = x in y")
    assert any("type" in m for m in msgs)


def test_field_assignment():
    m = ok("let f (q: int) = q.a <- 1")
    body = decl(m, "f").body
    assert isinstance(body, AssignE)
    assert isinstance(body.target, FieldE)


def test_assignment_needs_field_target():
    assert errors("let f (x: int) = x <- 1")


def test_match_arms_and_binders():
    m = ok("let f (c: int) = match c with | Nil -> 0 | Cons x -> 1")
    body = decl(m, "f").body
    assert isinstance(body, MatchE)
    assert [(a.ctor, a.binder) for a in body.arms] == [
        ("Nil", None), ("Cons", "x")]


def test_statement_sequence_with_semicolons():
    m = ok("let f (q: int) = q.a <- 1; q.b <- 2; 0")
    body = decl(m, "f").body
    assert isinstance(body, SeqE)
    assert len(body.items) == 3


def test_parenthesized_sequence_keeps_tail():
    # the closing paren ends the inner sequence, the tail binds outside
    m = ok("let f (q: int) = (q.a <- 1; q.b <- 2); q.a <- 3")
    body = decl(m, "f").body
    assert isinstance(body, SeqE)
    assert isinstance(body.items[0], SeqE)
    assert isinstance(body.items[1], AssignE)


def test_record_allocation_with_ctor_prefix():
    m = ok("let f () = let c : cell = Cons { content = 1; next = Nil } in c")
    body = decl(m, "f").body
    assert isinstance(body, SeqE)
    let = body.items[0]
    assert isinstance(let, LetIn)
    assert isinstance(let.rhs, RecordAlloc)
    assert let.rhs.ctor == "Cons"
    assert [n for n, _ in let.rhs.inits] == ["content", "next"]


def test_bare_record_allocation():
    m = ok("let f () = let q : queue = { length = 0 } in q")
    assert decl(m, "f").body.items[0].rhs.ctor is None


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
    p = decl(m, "seg")
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
    spec = decl(m, "f").spec
    assert spec is not None
    assert spec.param_names == ["q"]
    assert len(spec.requires) == len(spec.ensures) == 1


def test_contract_params_compared_as_a_set():
    # declaration order (q) (x), spec order x q: still the same set
    assert translation_errors("""
let add (q: int) (x: int) = q
(*@ add x q requires q = 0 ensures q = 0 *)
""") == []
    msgs = translation_errors("""
let add (q: int) (x: int) = q
(*@ add x y requires q = 0 ensures q = 0 *)
""")
    assert any("parameter" in m for m in msgs)


def test_contract_with_result_and_ghosts():
    m = ok("""
let create () : int = 0
(*@ r = create () ensures r = 0 *)
""")
    spec = decl(m, "create").spec
    assert spec.results == ["r"]
    m = ok("""
let add (q: int) (x: int) = q
(*@ add q x [v: int sequence] requires q = 0 ensures q = 0 *)
""")
    spec = decl(m, "add").spec
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
    lem = decl(m, "seg_trans")
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
    body = decl(m, "f").body
    assert isinstance(body, SeqE)
    kinds = [i.kind for i in body.items if isinstance(i, GhostCommand)]
    assert kinds == [GhostKind.UNFOLD, GhostKind.FOLD]


def test_fold_target_must_be_a_predicate():
    msgs = translation_errors("""
let f (x: int) =
  (*@ fold nosuch x *)
  x
""")
    assert any("nosuch" in m for m in msgs)


def test_apply_resolves_with_decapitalized_fallback():
    source = """
type cell = Nil
(*@ predicate seg (a: cell) = a = Nil *)
(*@ lemma seg_refl (a: cell) requires seg(a) ensures seg(a) *)
let f (c: cell) =
  (*@ apply Seg_refl c *)
  c
"""
    program, diags = translate_source(source)
    assert program is not None, [d.message for d in diags]
    assert program.methods()["f"].body[0] == CallS([], "Seg_refl", [Var("c")])
    # no name in either spelling: an error
    _, diags = translate_source(source.replace("Seg_refl", "Seg_sym"))
    assert "apply target 'Seg_sym' is not a declared lemma" in [
        d.message for d in diags]


def test_ghost_argument_brackets_after_call():
    m = ok("""
let g (x: int) = x
(*@ g x [v: int sequence] requires x = 0 ensures x = 0 *)
let f (x: int) = g x [empty]
(*@ f x requires x = 0 ensures x = 0 *)
""")
    call = decl(m, "f").body
    assert isinstance(call, AppE)
    assert len(call.ghost_args) == 1


def test_spec_sequence_syntax():
    m = ok("""
(*@ predicate p (v: int sequence) =
      v[0] = 1 && v[1 ..] = empty *)
""")
    body = decl(m, "p").body
    assert isinstance(body, SepA)


def test_annotation_span_points_into_file():
    source = "let f (x: int) = x\n(*@ f y ensures x = 0 *)\n"
    _, diags = translate_source(source)
    assert diags
    # the annotation's own offset in the file, not one in its payload
    assert source.startswith("(*@ f y", diags[0].span)


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
    if diags:
        return None, source, [d.message for d in diags]
    return decl(module, "f").body, source, []


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


# The same pairs, read from the operator table `viper_ast.BINARY`, through
# the surface parser, the printer and the reparser.
CHAINING = [op for op in V.BINARY if op.group != "none"]
NONCHAINING = [op for op in V.BINARY if op.group == "none"]


def reparse_expr(text):
    return reparse(f"function f(): Int {{ {text} }}").decls[0].body


def test_table_is_loosest_first_and_groups_a_level_alike():
    # the parsers take an operator after a left operand whose level
    # reaches its left floor, which relies on both
    assert [op.prec for op in V.BINARY] == sorted(op.prec for op in V.BINARY)
    for op in V.BINARY:
        assert {o.group for o in V.BINARY if o.prec == op.prec} == {op.group}


@pytest.mark.parametrize("op1", CHAINING, ids=lambda op: op.surface)
@pytest.mark.parametrize("op2", CHAINING, ids=lambda op: op.surface)
def test_table_groups_a_pair_alike_in_every_stage(op1, op2):
    # the tighter operator takes `b`; at one level, the level's grouping
    left_first = (op1.prec > op2.prec
                  or op1.prec == op2.prec and op1.group == "left")

    def tree(node, s1, s2, a, b, c, left):
        if left:
            return node(s2, node(s1, a, b), c)
        return node(s1, a, node(s2, b, c))

    body, _, diags = spec_function_body(f"a {op1.surface} b {op2.surface} c")
    assert body == tree(BinE, op1.surface, op2.surface, VarE("a"),
                        VarE("b"), VarE("c"), left_first), diags
    text = f"a {op1.viper} b {op2.viper} c"
    for left in (left_first, not left_first):
        e = tree(V.BinOp, op1.viper, op2.viper, V.Var("a"), V.Var("b"),
                 V.Var("c"), left)
        printed = V.expr_str(e)
        # the table's grouping needs no parentheses, the other one does
        assert (printed == text) == (left == left_first), printed
        assert reparse_expr(printed) == e


@pytest.mark.parametrize("op1", NONCHAINING, ids=lambda op: op.surface)
@pytest.mark.parametrize("op2", NONCHAINING, ids=lambda op: op.surface)
def test_no_stage_reads_two_comparisons_as_a_chain(op1, op2):
    body, _, diags = spec_function_body(f"a {op1.surface} b {op2.surface} c")
    assert body is None and diags
    with pytest.raises(ViperParseError):
        reparse_expr(f"a {op1.viper} b {op2.viper} c")
    a, b, c = V.Var("a"), V.Var("b"), V.Var("c")
    left = V.BinOp(op2.viper, V.BinOp(op1.viper, a, b), c)
    right = V.BinOp(op1.viper, a, V.BinOp(op2.viper, b, c))
    assert V.expr_str(left) == f"(a {op1.viper} b) {op2.viper} c"
    assert V.expr_str(right) == f"a {op1.viper} (b {op2.viper} c)"
    assert [reparse_expr(V.expr_str(e)) for e in (left, right)] \
        == [left, right]


def test_comparison_after_a_looser_operator_does_not_associate():
    body, _, diags = spec_function_body("a && b < c < d")
    assert body is None and diags


def test_prefix_minus_binds_tighter_than_multiplication():
    body, source, _ = spec_function_body("- a * b")
    assert body == BinE("*", UnE("-", VarE("a")), VarE("b"))
    assert source[body.span] == "-"



# -- token kinds and spans -----------------------------------------------------


def test_token_kinds_are_distinct_ints():
    kinds = {name: v for name, v in vars(T).items() if name.isupper()}
    assert all(type(v) is int for v in kinds.values())
    assert len(set(kinds.values())) == len(kinds)
    for table in (PUNCT, KEYWORDS, SPEC_KEYWORDS):
        assert set(table.values()) <= set(kinds.values())
    assert {kind: op[0] for kind, op in _BINOPS.items()} \
        == {PUNCT[op.surface]: op.surface for op in V.BINARY}


def test_nodes_compare_hash_and_print_as_dataclasses_do():
    # equality and repr leave spans out; only the types are hashable
    e = BinE("+", VarE("x", 0), IntLit(1, 4), 0)
    assert e == BinE("+", VarE("x"), IntLit(1))
    assert e != BinE("-", VarE("x"), IntLit(1))
    assert VarE("x") != CtorE("x")
    assert repr(e) == ("BinE(op='+', left=VarE(name='x'), "
                       "right=IntLit(value=1))")
    assert AppE("f", []).ghost_args == []
    assert IntT() == IntT() != BoolT()
    assert {NamedT("t"), NamedT("t"), IntT()} == {NamedT("t"), IntT()}
    with pytest.raises(TypeError):
        hash(VarE("x"))
    # the Viper nodes and tokens too
    pre, post = V.Pure(Var("x"), 3), V.Acc(V.FieldAcc(Var("x"), "v"))
    assert pre == V.Pure(Var("x")) != V.Pure(Var("y"))
    assert V.AssignS(Var("x"), V.IntLit(1), 0) == V.AssignS(
        Var("x"), V.IntLit(1))
    assert repr(pre) == "Pure(expr=Var(name='x'))"
    first, second = V.IfS(Var("c"), []), V.IfS(Var("c"), [])
    assert first.els == [] and first.els is not second.els
    for make in (lambda: V.FunctionDecl("f", [], V.INT),
                 lambda: V.MethodDecl("m", [], [])):
        one, two = make(), make()
        assert one.pres == one.posts == [] and one.pres is not one.posts
        assert one.pres is not two.pres and one.posts is not two.posts
    assert {V.VType("Int"), V.INT, VToken("sym", "(", 0),
            VToken("sym", "(", 0)} == {V.INT, VToken("sym", "(", 0)}
    assert VToken("sym", "(", 0) != VToken("sym", "(", 1)
    with pytest.raises(TypeError):
        hash(Var("x"))
    m = V.MethodDecl("m", [("x", V.REF)], [], [pre], [post], [], 0)
    assert (m.name, m.params, m.returns, m.pres, m.posts, m.body,
            m.span) == ("m", [("x", V.REF)], [], [pre], [post], [], 0)
    assert m == V.MethodDecl("m", [("x", V.REF)], [], [pre], [post], [])
    assert repr(m) == (
        "MethodDecl(name='m', params=[('x', VType(name='Ref'))], returns=[], "
        "pres=[Pure(expr=Var(name='x'))], posts=[Acc(loc=FieldAcc("
        "base=Var(name='x'), fieldname='v'))], body=[])")


def nodes(tree):
    """Every syntax node under `tree`, surface or Viper, spans excluded."""
    todo = [tree]
    while todo:
        x = todo.pop()
        if isinstance(x, (list, tuple)):
            todo.extend(x)
        elif isinstance(x, Record):
            yield x
            todo.extend(getattr(x, f) for f in type(x).__slots__)


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
                assert source.startswith(LEAF_TEXT[type(e)](e), e.span)
            elif type(e) in LEFTMOST:
                assert e.span == LEFTMOST[type(e)](e).span
            else:
                continue
            seen.add(type(e))
    # the corpus has no boolean literal
    assert seen == set(LEAF_TEXT) - {BoolLit} | set(LEFTMOST)


# -- parser work per token -------------------------------------------------------


def test_parser_calls_per_token_on_a_wide_module():
    # `Enum` token kinds and a six-function descent per operand made 7.3.
    # When each payload was lexed again on its own, the stream held 1893
    # tokens (an annotation was one) and parsing made 3.15 calls per token,
    # bounded by 4.5; with the payload tokens in the stream, 2076 in all,
    # parsing made 2.47, bounded by 2.88.  An operand now comes straight
    # from `parse_postfix`, not through `parse_app`: 2.28 calls per token
    # (2.21 on Python 3.10 to 3.13).  Positions kept as the start offset,
    # with no `Span` object built per node, make 1.94.  One frame per
    # expression, with names and field paths read inline and right operands
    # on a stack of the loop's own, makes 1.505.  With every path testing
    # `kinds[pos]` inline, an annotation read by the module parser's own
    # cursor and no `at` or `next` helper, 1.020 (Python 3.10 to 3.13).
    per_token, n = calls_per_token(wide_module())
    assert n == 2076
    assert per_token <= 1.05


def test_parser_calls_per_token_on_a_module():
    # the `module` shape: 2.792 calls per token since expressions parse in
    # one frame each, bounded by 2.87; 1.610 (Python 3.10 to 3.13) since
    # declarations, types, statements, contracts and matches test
    # `kinds[pos]` inline too
    per_token, n = calls_per_token(module_source())
    assert n == 5250
    assert per_token <= 1.65


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


def test_parenthesized_assertions_are_parsed_once():
    # reparsing a parenthesised assertion as an expression when it held one
    # made 36.1 calls per token at 40 levels, 55.4 at 60
    e = "c.v = 0"
    for _ in range(40):
        e = f"({e})"
    per_token, _ = calls_per_token(
        "type t = { mutable v : int }\n"
        f"(*@ predicate p (c: t) = c ~> {{v}} && {e} *)\n")
    assert per_token <= 6


def test_nesting_past_the_limit_fails_without_a_retry():
    # Every enclosing `(` of an assertion once caught the nesting error and
    # parsed its group again as an expression: 41.1 calls per token at 70
    # levels, against 4.1 at 60, which fit.  The error was the same.
    e = "c.v = 0"
    for _ in range(70):
        e = f"({e})"
    source = ("type t = { mutable v : int }\n"
              f"(*@ predicate p (c: t) = c ~> {{v}} && {e} *)\n")
    tokens, _ = lex(source)
    (module, diags), n = calls(parser.parse_module, tokens,
                               events=("call",))
    assert module is not None
    assert [(d.message, d.span) for d in diags] == [
        (f"nesting deeper than {parser.MAX_NESTING} levels", 131)]
    assert source[131:].startswith("(" * 5 + "c.v = 0")  # the 66th `(`
    assert n / len(tokens) <= 6


def test_long_concatenation_chain_parses():
    # `++` nests to the right; its chain once took a frame per element
    module = ok("(*@ function f (s: int sequence) : int sequence = "
                + " ++ ".join(["s"] * 2000) + " *)\n")
    body, n = module.decls[0].body, 1
    while isinstance(body, BinE):
        assert (body.op, body.left) == ("++", VarE("s"))
        body, n = body.right, n + 1
    assert (body, n) == (VarE("s"), 2000)
