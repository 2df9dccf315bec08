"""Translation tests: each rule is pinned by a small module and the
declaration it must produce.  Token-level comparisons use golden_equal
so layout never matters."""

import pytest
from gospel2viper import surface, translate_source
from gospel2viper.diagnostics import Category, Severity
from gospel2viper.parser import parse_source
from gospel2viper.permcheck import check_program
from gospel2viper.translate import _Tr, translate
from gospel2viper.viper_ast import (AssignS, CallS, FoldS, IfS, IsTest,
                                    MethodDecl, NewS, PredApp, UnfoldS,
                                    golden_equal, pretty, pretty_stmts)
from test_parser import nodes
from work_counts import calls, viper_nodes, wide_module

CELL = ("type cell = Nil | Cons of "
        "{ mutable content : int; mutable next : cell }\n")


def tr(source):
    prog, diags = translate_source(source)
    assert prog is not None, [d.message for d in diags]
    assert not diags, [d.message for d in diags]
    return prog


def failures(source):
    prog, diags = translate_source(source)
    return [d.message for d in diags]


# -- types -------------------------------------------------------------------


def test_variant_becomes_adt_plus_fields():
    prog = tr(CELL)
    adt = prog.adts()["Cell"]
    assert [c.name for c in adt.ctors] == ["Nil", "Cons"]
    # payload constructor gets one Ref parameter named after the record
    assert adt.ctors[1].params == [("cell", prog.decls[0].ctors[1].params[0][1])]
    assert list(prog.fields()) == ["content", "next"]
    assert str(prog.fields()["content"].typ) == "Int"
    assert str(prog.fields()["next"].typ) == "Cell"


def test_record_type_contributes_fields_only():
    prog = tr("type queue = { mutable length : int; mutable first : int }\n")
    assert not prog.adts()
    assert list(prog.fields()) == ["length", "first"]


def test_field_order_is_first_occurrence():
    prog = tr(CELL + "type extra = { mutable content : int; "
                     "mutable depth : int }\n")
    assert list(prog.fields()) == ["content", "next", "depth"]


def test_unknown_type_is_an_error():
    assert any("unknown type" in m
               for m in failures("let f (x: widget) = x"))


# -- predicates and specification terms -----------------------------------------


def test_predicate_name_capitalized_and_types_mapped():
    prog = tr(CELL + """
(*@ predicate own (c: cell) (v: int sequence) = c = Nil *)
""")
    p = prog.predicates()["Own"]
    assert [(n, str(t)) for n, t in p.params] == [
        ("c", "Cell"), ("v", "Seq[Int]")]


def test_owns_arrow_expands_to_acc_conjunction():
    prog = tr("""
type t = { mutable a : int; mutable b : int }
(*@ predicate p (x: t) = x ~> {a; b} *)
""")
    assert golden_equal(
        "\n".join(pretty(prog).splitlines()[-3:]),
        "predicate P(x: Ref) { acc(x.a) && acc(x.b) }")


def test_nullary_comparison_becomes_is_test():
    prog = tr(CELL + "(*@ predicate p (c: cell) = c = Nil *)")
    body = prog.predicates()["P"].body
    assert body.expr == IsTest(body.expr.base, "Nil")


def test_whole_conjunct_application_is_a_predicate_instance():
    prog = tr(CELL + """
(*@ predicate seg (from: cell) (v: int sequence) (to: cell) =
      if v = empty then to = from
      else let Cons c = from in c ~> {content; next} &&
           seg c.next (v[1 ..]) to *)
""")
    body = prog.predicates()["Seg"].body
    last = body.els.parts[-1].body.parts[-1]
    assert isinstance(last, PredApp)
    assert last.name == "Seg" and len(last.args) == 3


def test_lemma_applications_are_predicate_instances():
    prog = tr(CELL + """
(*@ predicate seg (a: cell) (b: cell) = a = b *)
(*@ lemma seg_trans (a: cell) (b: cell) (c: cell)
    requires seg(a, b) && seg(b, c)
    ensures seg(a, c) *)
""")
    req = prog.methods()["Seg_trans"].pres[0]
    assert [type(a) for a in req.parts] == [PredApp, PredApp]
    assert req.parts[0].name == "Seg"


def test_sequence_builtins():
    prog = tr("""
(*@ predicate p (v: int sequence) =
      v = empty && length v = 1 && v = singleton 3 *)
""")
    text = pretty(prog)
    assert "v == Seq[Int]()" in text
    assert "|v| == 1" in text
    assert "v == Seq(3)" in text


REC = "type t = { mutable v : int }\n"

# (source, message, where the span starts, the text it covers)
MISPLACED = {
    "singleton-arity": (
        "(*@ function one (x: int) : int sequence = singleton 1 2 *)\n",
        "singleton takes one argument", "singleton 1 2", "singleton"),
    "length-arity": (
        "(*@ function n (s: int sequence) : int = length s s *)\n",
        "length takes one argument", "length s s", "length"),
    "predicate-as-term": (
        REC + "(*@ predicate p (c: t) = c ~> {v} *)\nlet f (c: t) = ()\n"
        "(*@ f c requires p c = true ensures true *)\n",
        "predicate 'p' used in expression position; predicates must stand "
        "as whole conjuncts", "p c = true", "p"),
    "call-as-term": (
        REC + "let g (c: t) : int = 1\n"
        "(*@ r = g c requires true ensures true *)\n"
        "let h (c: t) = c.v <- g c + 1\n"
        "(*@ h c requires c ~> {v} ensures c ~> {v} *)\n",
        "'g' is a program function; calls are statements, not expressions",
        "g c + 1", "g"),
    "unit-result": (
        REC + "let f (c: t) : int = ()\n"
        "(*@ r = f c requires true ensures true *)\n",
        "unit value has no translation in this position", "()", "("),
    "allocation-as-value": (
        REC + "let h (c: t) = c.v <- { v = 1 }\n"
        "(*@ h c requires c ~> {v} ensures c ~> {v} *)\n",
        "allocation must be bound by a let", "{ v = 1 }", "{"),
}


@pytest.mark.parametrize("case", sorted(MISPLACED))
def test_a_term_in_the_wrong_place_is_one_translation_error(case):
    source, message, marker, covered = MISPLACED[case]
    prog, diags = translate_source(source)
    assert prog is None
    assert [(d.severity, d.category, d.message) for d in diags] == [
        (Severity.ERROR, Category.TRANSLATION, message)]
    assert diags[0].span == source.index(marker)
    assert source.startswith(covered, diags[0].span)


def test_spec_indexing_and_suffix():
    prog = tr("(*@ predicate p (v: int sequence) = "
              "v[0] = 1 && v[1 ..] = empty *)")
    text = pretty(prog)
    assert "v[0] == 1" in text
    assert "v[1 ..] == Seq[Int]()" in text


# -- allocation --------------------------------------------------------------


def test_alloc_lists_all_fields_in_declaration_order():
    prog = tr("""
type t = { mutable a : int; mutable b : int; mutable c : int }
let make () : t =
  let r : t = { c = 3; a = 1; b = 2 } in
  r
(*@ r = make () ensures r = r *)
""")
    body = prog.methods()["make"].body
    assert body[0] == NewS("r", ["a", "b", "c"])
    # initializers keep their source order
    texts = pretty_stmts(body[1:4]).splitlines()
    assert texts == ["r.c := 3", "r.a := 1", "r.b := 2"]


def test_ctor_alloc_introduces_payload_cell():
    prog = tr(CELL + """
let make () : cell =
  let c : cell = Cons { content = 1; next = Nil } in
  c
(*@ c = make () ensures c = c *)
""")
    body = prog.methods()["make"].body
    payload = body[0].target
    assert payload != "c"  # the record cell gets a fresh name
    assert golden_equal(pretty_stmts(body), f"""
var {payload}: Ref := new(content, next)
{payload}.content := 1
{payload}.next := Nil()
c := Cons({payload})
""")


def test_alloc_into_the_result_uses_assign_form():
    prog = tr("""
type t = { mutable a : int }
let make () : t =
  let r : t = { a = 1 } in
  r
(*@ r = make () ensures r = r *)
""")
    body = prog.methods()["make"].body
    assert body[0] == NewS("r", ["a"])
    assert not body[0].declare


# -- statements -----------------------------------------------------------------


def test_match_compiles_to_is_test_if():
    prog = tr(CELL + """
let probe (c: cell) =
  match c with
  | Nil -> ()
  | Cons x -> x.content <- 1
(*@ probe c requires c = c ensures c = c *)
""")
    body = prog.methods()["probe"].body
    assert isinstance(body[0], IfS)
    assert body[0].cond == IsTest(body[0].cond.base, "Nil")


def test_match_binder_substitutes_projection():
    prog = tr(CELL + """
let bump (q: cell) =
  match q with
  | Nil -> ()
  | Cons last -> last.next <- Nil
(*@ bump q requires q = q ensures q = q *)
""")
    els = prog.methods()["bump"].body[0].els
    assert golden_equal(pretty_stmts(els), "q.cell.next := Nil()")


def test_match_must_be_exhaustive():
    msgs = failures(CELL + """
let probe (c: cell) =
  match c with
  | Nil -> ()
(*@ probe c requires c = c ensures c = c *)
""")
    assert any("Cons" in m for m in msgs)


BOX = CELL + """type box = { mutable item : cell }
(*@ predicate own (c: cell) (v: int sequence) = c = c *)
"""


def in_cons_arm(body):
    """`bump` matches `b.item` and runs `body` in its `Cons last` arm."""
    return BOX + f"""
let bump (b: box) (s: int sequence) =
  match b.item with
  | Nil -> ()
  | Cons last ->
{body}
(*@ bump b s requires b = b ensures b = b *)
"""


REASSIGNED = ("binder 'last' is used after its scrutinee path was "
              "reassigned; bind the payload before mutating it")


def test_binder_invalidated_by_scrutinee_write():
    # writing through the scrutinee path would change what last means
    msgs = failures(in_cons_arm("    (b.item <- Nil; last.next <- Nil)"))
    assert msgs == [REASSIGNED]


@pytest.mark.parametrize("body, more", [
    ("    if last.content > 0 then (b.item <- Nil; last.content <- 0)", []),
    ("    b.item <- Nil;\n"
     "    let a : int = - last.content in\n"
     "    b.item <- Nil", []),
    ("    b.item <- Nil;\n"
     "    last", ["value 'last' is discarded"]),
    ("    b.item <- Nil\n"
     "    (*@ fold own last s *)", []),
    ("    (match last.next with Nil -> () | Cons d -> b.item <- Nil);\n"
     "    last.content <- 0", []),
    ("    b.item <- Nil;\n"
     "    last.content <- 1;\n"
     "    last.content <- 2", []),
], ids=["if-branch", "let-rhs", "discarded", "ghost-argument",
        "nested-match-write", "one-error-for-two-uses"])
def test_binder_use_after_a_nested_scrutinee_write_is_reported(body, more):
    msgs = failures(in_cons_arm(body))
    assert msgs == [REASSIGNED] + more


def test_binder_uses_before_the_scrutinee_write_are_not_reported():
    # last is read in a let, an allocation, a nested match and the
    # arguments of ghost commands, all before b.item is written
    tr(in_cons_arm("""\
    let a : int = - last.content in
    let n : cell = Cons { content = a; next = last.next } in
    (match last.next with Nil -> () | Cons d -> d.content <- a);
    (*@ fold own n (s[1 ..]) *)
    (*@ unfold own n (singleton (s[0])) *)
    b.item <- n"""))


def test_binder_read_by_the_write_to_its_scrutinee_is_not_reported():
    # the value is read before the write takes effect
    tr(in_cons_arm("    b.item <- last.next"))


@pytest.mark.parametrize("k", [50, 399])
def test_translating_a_binder_arm_is_linear(k):
    # walking each binder arm again, in evaluation order, to find a use
    # after a write made 23.2 and 127.8 calls per node (Python 3.11)
    source = CELL + f"""type box = {{ mutable cl : cell; mutable v : int }}
let f (b: box) =
  match b.cl with
  | Nil -> ()
  | Cons c -> b.v <- {" + ".join(["c.content"] * k)}
(*@ f b requires b = b ensures b = b *)
"""
    module, diags = parse_source(source)
    assert not diags
    (program, diags), n = calls(translate, module)
    assert program is not None and not diags
    assert n / viper_nodes(program) <= 3.0


def test_if_statement_translation():
    prog = tr("""
type t = { mutable a : int }
let f (x: t) =
  if x.a > 0 then x.a <- 1 else x.a <- 2
(*@ f x requires x = x ensures x = x *)
""")
    body = prog.methods()["f"].body
    assert isinstance(body[0], IfS)
    assert body[0].els != []


RESULT = """\
type t = { mutable v : int }
(*@ function get (c: int) : int = c *)
let f (c: t) : int =
  BODY
(*@ r = f c requires c ~> {v} ensures c ~> {v} && r = c.v *)
let g (c: t) : int =
  c.v
(*@ r = g c requires c ~> {v} ensures c ~> {v} && r = c.v *)
"""


@pytest.mark.parametrize("body, stmts", [
    ("c.v", "r := c.v"),
    ("let x : int = c.v in\n  x", "var x: Int := c.v\nr := x"),
    ("let x : int = c.v in\n  (c.v <- x; c.v)",
     "var x: Int := c.v\nc.v := x\nr := c.v"),
    ("g c", "r := g(c)"),
    ("let r : int = c.v in\n  r", "r := c.v"),
    ("if c.v > 0 then c.v else (g c)",
     "if (c.v > 0) {\n  r := c.v\n} else {\n  r := g(c)\n}"),
], ids=["field", "local", "block", "call", "result", "branches"])
def test_final_value_is_assigned_to_the_result(body, stmts):
    # the function's value is its last item; it was dropped with a
    # warning, leaving the result unconstrained
    prog = tr(RESULT.replace("BODY", body))
    assert pretty_stmts(prog.methods()["f"].body) == stmts
    assert check_program(prog, strict=True) == []


def test_final_application_of_a_logical_function_is_the_result():
    prog = tr(RESULT.replace("BODY", "get c.v"))
    assert pretty_stmts(prog.methods()["f"].body) == "r := get(c.v)"


@pytest.mark.parametrize("source, warnings", [
    ("type t = { mutable v : int }\n"
     "let f (c: t) =\n  c.v\n"
     "(*@ f c requires c ~> {v} ensures c ~> {v} *)\n",
     ["statement has no effect"]),
    ("type t = { mutable v : int }\n"
     "let f (c: t) =\n  if c.v > 0 then c.v else 0\n"
     "(*@ f c requires c ~> {v} ensures c ~> {v} *)\n",
     ["statement has no effect"] * 2),
    (RESULT.replace("BODY", "let x : int = c.v in\n  x;\n  c.v"),
     ["value 'x' is discarded"]),
], ids=["no-result", "branch-tails", "not-last"])
def test_a_value_that_is_not_the_result_is_still_reported(source, warnings):
    prog, diags = translate_source(source)
    assert prog is not None
    assert [d.message for d in diags] == warnings
    assert all(d.severity is Severity.WARNING for d in diags)


def test_ghost_command_opens_an_unparenthesised_if_branch():
    # OCaml reads the annotation as a comment, so the write after it is
    # the branch, and what follows the `;` runs after the `if`
    prog = tr("""\
type t = { mutable v : int }
(*@ predicate p (c: t) = c ~> {v} *)
let f (c: t) =
  (*@ unfold p c *)
  if c.v > 0 then (*@ fold p c *) (*@ unfold p c *) c.v <- 1;
  c.v <- 2;
  (*@ fold p c *)
  ()
(*@ f c requires p c ensures p c *)
""")
    body = prog.methods()["f"].body
    assert [type(s) for s in body] == [UnfoldS, IfS, AssignS, FoldS]
    assert [type(s) for s in body[1].then] == [FoldS, UnfoldS, AssignS]
    assert pretty_stmts(body[1:3]) == (
        "if (c.v > 0) {\n  fold P(c)\n  unfold P(c)\n  c.v := 1\n}\n"
        "c.v := 2")
    assert check_program(prog, strict=True) == []


SCOPED = """\
type t = { mutable v : int; mutable w : int }
type u = A | B
let f (c: t) =
  """

VALUE = "a statement cannot be used as a value"

# A `let … in` binds to the end of its block, and a statement is no value.
# Each case gives a body and its errors, each with the text whose last
# occurrence starts the error's span.
BLOCKS = {
    "semicolon-after-in": ("let x : int = 1 in ; c.v <- x",
                           [("expected an expression, found ';'", ";")]),
    "let-headed-branch": ("if c.v = 0 then let x : int = 1 in c.v <- x; "
                          "c.w <- x", []),
    "paren-ends-scope": ("(let x : int = 1 in c.v <- x); c.w <- x",
                         [("unbound name 'x'", "x")]),
    "let-ends-block": ("(c.v <- 1; let x : int = 1 in)",
                       [("expected an expression after 'in'", ")")]),
    "paren-span": ("(c.v <- 1; c.w <- 2).v <- 3", [(VALUE, "(")]),
    "if-value": ("(if c.v = 0 then c.v <- 1).v <- 3", [(VALUE, "if")]),
    "match-value": ("(match A with A -> c.v <- 1 | B -> c.w <- 1).v <- 3",
                    [(VALUE, "match")]),
    "assign-value": ("(c.v <- 1).v <- 3", [(VALUE, "c.v <- 1")]),
}


@pytest.mark.parametrize("case", sorted(BLOCKS))
def test_block_scopes_and_statement_values(case):
    body, expected = BLOCKS[case]
    source = SCOPED + body + "\n"
    _, diags = translate_source(source)
    got = [(d.message, d.span) for d in diags
           if d.severity is Severity.ERROR]
    assert got == [(m, source.rindex(at)) for m, at in expected]


# -- contracts and ghosts ----------------------------------------------------------


def test_ghost_params_appended_after_real_params():
    prog = tr("""
type t = { mutable a : int }
(*@ predicate p (x: t) (v: int sequence) = x = x *)
let f (x: t) =
  x.a <- 1
(*@ f x [v: int sequence] requires p x v ensures p x v *)
""")
    m = prog.methods()["f"]
    assert [(n, str(t)) for n, t in m.params] == [
        ("x", "Ref"), ("v", "Seq[Int]")]


def test_result_binder_becomes_return():
    prog = tr("""
let create () : int =
  let r : int = 0 in
  r
(*@ r = create () ensures r = 0 *)
""")
    m = prog.methods()["create"]
    assert [(n, str(t)) for n, t in m.returns] == [("r", "Int")]
    assert m.params == []
    # binding the result assigns it, and the tail variable is the return
    assert m.body == [AssignS(m.body[0].target, m.body[0].value)]
    assert pretty_stmts(m.body) == "r := 0"


def test_no_return_type_means_no_returns():
    prog = tr("""
type t = { mutable a : int }
let f (x: t) = x.a <- 1
(*@ f x requires x = x ensures x = x *)
""")
    assert prog.methods()["f"].returns == []


def test_lemma_is_a_bodyless_capitalized_method():
    prog = tr(CELL + """
(*@ predicate seg (a: cell) (b: cell) = a = b *)
(*@ lemma seg_trans (a: cell) (b: cell)
    requires seg(a, b) ensures seg(b, a) *)
""")
    lem = prog.methods()["Seg_trans"]
    assert lem.body is None
    assert isinstance(lem, MethodDecl)


VALUE_CELL = """
type c = { mutable v : int }
let get (x: c) : int =
  let r : int = x.v in
  r
(*@ r = get x requires x ~> {v} ensures x ~> {v} *)
let zero (x: c) =
  x.v <- 0
(*@ zero x requires x ~> {v} ensures x ~> {v} *)
let keep (x: c) =
  x.v <- x.v
(*@ keep x [n: int] requires x ~> {v} ensures x ~> {v} *)
"""


def test_let_bound_call_declares_its_target_and_checks_clean():
    prog = tr(VALUE_CELL + """
let bump (x: c) : int =
  let a : int = get x in
  x.v <- a + 1;
  let s : int = get x in
  s
(*@ s = bump x requires x ~> {v} ensures x ~> {v} *)
""")
    # a local target is declared first; the result is assigned directly
    assert golden_equal(pretty_stmts(prog.methods()["bump"].body), """
var a: Int
a := get(x)
x.v := a + 1
s := get(x)
""")
    assert check_program(prog) == []
    assert check_program(prog, strict=True) == []


@pytest.mark.parametrize("caller, message", [
    ("let f (x: c) =\n  zero x x\n", "'zero' takes 1 arguments, got 2"),
    ("let f (x: c) =\n  keep x\n", "'keep' takes 2 arguments, got 1"),
    ("let f (x: c) : int =\n  let r : int = zero x in\n  r\n",
     "'zero' has no result to bind"),
], ids=["extra-argument", "missing-ghost-argument", "bound-unit-call"])
def test_call_of_the_wrong_shape_is_a_translation_error(caller, message):
    # Viper rejects a call whose arity or targets do not fit the method
    result = "r = " if "let r" in caller else ""
    source = (VALUE_CELL + caller
              + f"(*@ {result}f x requires x ~> {{v}} ensures x ~> {{v}} *)\n")
    prog, diags = translate_source(source)
    assert prog is None
    assert [(d.severity, d.category, d.message) for d in diags] == [
        (Severity.ERROR, Category.TRANSLATION, message)]


def test_apply_becomes_a_call():
    prog = tr(CELL + """
(*@ predicate seg (a: cell) (b: cell) = a = b *)
(*@ lemma seg_swap (a: cell) (b: cell)
    requires seg(a, b) ensures seg(b, a) *)
let f (c: cell) =
  (*@ apply seg_swap c c *)
  ()
(*@ f c requires seg c c ensures seg c c *)
""")
    body = prog.methods()["f"].body
    assert body[0] == CallS([], "Seg_swap", body[0].args)


def test_fold_unfold_capitalize_their_predicate():
    prog = tr("""
type t = { mutable a : int }
(*@ predicate p (x: t) = x ~> {a} *)
let f (x: t) =
  (*@ unfold p x *)
  x.a <- 1
  (*@ fold p x *)
(*@ f x requires p x ensures p x *)
""")
    body = prog.methods()["f"].body
    assert isinstance(body[0], UnfoldS) and body[0].pred.name == "P"
    assert isinstance(body[2], FoldS) and body[2].pred.name == "P"


def test_ghost_call_arguments_append():
    prog = tr("""
type t = { mutable a : int }
(*@ predicate p (x: t) (v: int sequence) = x = x *)
let g (x: t) =
  x.a <- 1
(*@ g x [v: int sequence] requires p x v ensures p x v *)
let f (x: t) =
  g x [empty]
(*@ f x requires p x empty ensures p x empty *)
""")
    body = prog.methods()["f"].body
    assert body[0] == CallS([], "g", body[0].args)
    assert len(body[0].args) == 2  # real argument plus ghost sequence


def test_ghost_param_shadowing_is_an_error():
    msgs = failures("""
let f (v: int) = v
(*@ f v [v: int sequence] requires v = 0 ensures v = 0 *)
""")
    assert msgs


# -- prelude and declaration order ------------------------------------------------


def test_prelude_emitted_once_when_referenced():
    prog = tr("""
(*@ predicate p (v: int sequence) =
      drop_last v = empty && take_last v = v *)
""")
    names = [f for f in prog.functions()]
    assert names == ["drop_last", "take_last"]
    text = pretty(prog)
    assert text.count("function drop_last") == 1


def test_prelude_not_emitted_when_unused():
    prog = tr("(*@ predicate p (v: int sequence) = v = empty *)")
    assert not prog.functions()


def test_prelude_rules_can_be_overridden():
    # a module that defines drop_last gets its own function, not the
    # helper; take_last, which it does not define, is still the helper
    prog = tr("""
(*@ function drop_last (v: int sequence) : int sequence = v *)
(*@ predicate p (v: int sequence) =
      drop_last v = empty && take_last v = v *)
""")
    text = pretty(prog)
    assert text.count("function drop_last") == 1
    assert "function drop_last(v: Seq[Int]): Seq[Int]\n{\n  v\n}" in text
    assert list(prog.functions()) == ["take_last", "drop_last"]


def test_declaration_groups_are_ordered():
    prog = tr(CELL + """
(*@ predicate own (c: cell) = c = Nil *)
let touch (c: cell) =
  (*@ fold own c *)
(*@ touch c requires c = Nil ensures own c *)
""")
    kinds = [type(d).__name__ for d in prog.decls]
    assert kinds == ["AdtDecl", "FieldDecl", "FieldDecl",
                     "PredicateDecl", "MethodDecl"]


def test_source_order_within_method_group():
    prog = tr(CELL + """
(*@ predicate seg (a: cell) = a = Nil *)
let first (c: cell) =
  ()
(*@ first c requires seg c ensures seg c *)
(*@ lemma mid (a: cell) requires seg(a) ensures seg(a) *)
let second (c: cell) =
  ()
(*@ second c requires seg c ensures seg c *)
""")
    methods = [d.name for d in prog.decls if isinstance(d, MethodDecl)]
    assert methods == ["first", "Mid", "second"]


def test_empty_module_translates_to_empty_program():
    prog = tr("")
    assert prog.decls == []
    assert pretty(prog) == ""


# -- node layout and dispatch ----------------------------------------------------


def test_every_surface_node_class_has_a_handler():
    def classes(base):
        return {c for c in vars(surface).values()
                if isinstance(c, type) and issubclass(c, base)
                and c is not base}

    exprs = classes(surface.SurfaceExpr)
    # statements, which `tr_expr` rejects as values
    statements = {surface.AssignE, surface.LetIn, surface.IfE,
                  surface.MatchE, surface.SeqE}
    assert set(_Tr._EXPR) == exprs - statements
    assert set(_Tr._ASSERTION) == classes(surface.Assertion)
    # the rest of the expressions are values without effect
    assert statements | {surface.GhostCommand} <= set(_Tr._STMTS)
    assert set(_Tr._STMTS) <= exprs | {surface.GhostCommand}


def test_an_assertion_class_without_a_handler_raises():
    # no parse builds one.  A handler takes its parts' handlers from the
    # table itself, so one nested in a known assertion fails as at the top
    class Odd:
        span = None

    tr_ = _Tr(surface.SurfaceModule([], [], {}))
    true = surface.PureA(surface.BoolLit(True))
    for a in (Odd(), surface.SepA([true, Odd()]),
              surface.IfA(surface.BoolLit(True), true, Odd())):
        with pytest.raises(TypeError, match="^unknown assertion Odd$"):
            tr_.tr_assertion(a, {})


def test_no_node_of_the_corpus_has_a_dict(corpus):
    for path in sorted(corpus.glob("*.ml")):
        module, diags = parse_source(path.read_text(encoding="utf-8"))
        program, diags = translate(module)
        assert program is not None, [d.message for d in diags]
        for node in [*nodes(module), *nodes(program)]:
            assert not hasattr(node, "__dict__"), type(node).__name__
            span = getattr(node, "span", None)  # a position is an offset
            assert span is None or type(span) is int, type(node).__name__


def test_translator_and_printer_calls_per_node_on_a_wide_module():
    # `isinstance` ladders in `tr_expr`, `tr_stmts` and `tr_assertion`, a
    # `(text, precedence)` tuple from `_expr` under every `expr_str` and
    # ladders in the other printers made 4.92 calls per node translating
    # and 6.00 printing; 2.52 and 2.51 with class tables (Python 3.11).
    # Those counted 1515 nodes, 207 of them `Span` objects; now that a
    # span is an `int`, the same calls (4,198 and 3,790 on Python 3.11)
    # came to 3.21 and 2.90 per node, bounded by 3.34 and 3.33.  With each
    # handler calling its children's from the table, not through the
    # dispatcher, and a variable receiver read in place, 2.12 and 1.33
    # (2,770 and 1,738 calls; 1.99 and 1.32 on Python 3.12 and 3.13)
    module, diags = parse_source(wide_module())
    assert not diags
    (program, diags), translating = calls(translate, module)
    assert program is not None and not diags
    n = viper_nodes(program)
    assert n == 1308
    _, printing = calls(pretty, program)
    assert translating / n <= 2.15
    assert printing / n <= 1.35
