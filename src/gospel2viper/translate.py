"""Translation from annotated surface modules to Viper programs.

Shape of the mapping:

* a variant type becomes an ADT whose record payloads live behind a Ref,
  so a constructor with fields turns into `Ctor(<typename>: Ref)` and the
  payload fields become global heap field declarations;
* a record type disappears as a type (its values are Refs) and
  contributes its fields to the global field declarations; every
  declaration of a field name must agree on its type and on `mutable`,
  and only a `mutable` field may be assigned (`error[type]`);
* predicates and lemmas keep their names with the first letter
  capitalized, logical functions and program functions keep theirs;
* ownership assertions expand to one `acc` conjunct per field, `e = C`
  against a nullary constructor becomes `e.isC`, and a constructor
  pattern `let C x = e in ...` becomes `e.isC && let x == (e.<proj>) in`;
* `match` lowers to an `if` on constructor tests, binding payload
  binders by substituting the projection expression; that is no snapshot,
  so a use of a binder after its arm writes the scrutinee path is an error;
* allocation `{f = e; ...}` lowers to `new` over every declared field in
  declaration order followed by the initializing assignments in source
  order;
* each value in tail position of a function with a result (the body's
  last item, and through `if` and `match` each branch's) is translated as
  `let <result> = value in`.

Sequence helpers `drop_last` and `take_last` are emitted as Viper
functions once, and only when referenced and not defined by the module.

Translation is total: it accumulates diagnostics and returns
(None, diags) when any is an error, never raising.

The translator owns the module's declaration table: `_Tr.declare` fills
one dict per namespace in one pass over the declarations, and resolves the
target of each ghost command, which the parser lists.  The checks that
need no body report `error[parse]`: a duplicate name or parameter, a
constructor of two types, a contract that does not match its function,
and a ghost command whose target is undeclared or gets the wrong number
of arguments.  They run before any body is translated, and when one
fails, translation stops with those errors alone: a body would only add
unknown functions and unbound names that repeat them.  When the parse
reported errors but went on to the end of the file, `translate_source`
runs these checks alone and reports them beside the parse's errors.

Each walk keeps a handler per node class in one table, `_Tr._EXPR`,
`_Tr._STMTS` or `_Tr._ASSERTION`, and a handler calls its children's
straight from it, as the checker's do: one Python frame per node.
`tr_expr`, `tr_stmts` and `tr_assertion` are the entries from outside.  A
class missing from `_EXPR` is a statement used as a value, one missing
from `_STMTS` a value without effect; both are diagnosed, wherever they
sit.  Only an unknown assertion class, which no parse produces, raises
TypeError.
"""

from __future__ import annotations

from . import viper_ast as V
from .diagnostics import (Category, Diagnostic, Handlers, Record, error,
                          has_errors, warning)
from .parser import parse_source
from .surface import (AppE, AssignE, Assertion, BinE, BoolLit, BoolT,
                      ContractSpec, CtorE, FieldDef, FieldE, FunDecl,
                      GhostCommand, GhostKind, IfA, IfE,
                      IndexE, IntLit, IntT, LemmaDef, LetIn, LetPatA,
                      LogicalFunctionDef, MatchArm, MatchE, NamedT, OwnsA,
                      PredicateDef, PureA, RecordAlloc, RecordKind, SeqE,
                      SeqT, SepA, SliceFromE, SurfaceExpr, SurfaceModule,
                      SurfaceType, TypeDecl, UnE, UnitLit, VariantKind, VarE)

PRELUDE_NAMES = ("drop_last", "take_last")

# The Viper spelling of each surface operator
_VIPER_OPS = {op.surface: op.viper for op in V.BINARY}

_CLEAN, _STALE, _REPORTED = range(3)  # states of a match binder (_Tr)


def _cap(name: str) -> str:
    return name[:1].upper() + name[1:]


def prelude_decls() -> list[V.FunctionDecl]:
    v = V.Var("v")
    nonempty = V.Pure(V.BinOp(">", V.SeqLen(v), V.IntLit(0)))
    last = V.BinOp("-", V.SeqLen(v), V.IntLit(1))
    return [
        V.FunctionDecl("drop_last", [("v", V.SEQ_INT)], V.SEQ_INT,
                       pres=[nonempty], body=V.SeqTake(v, last)),
        V.FunctionDecl("take_last", [("v", V.SEQ_INT)], V.SEQ_INT,
                       pres=[nonempty], body=V.SeqDrop(v, last)),
    ]


class _CtorInfo(Record):
    __slots__ = ("name", "type_name",
                 "proj",  # projection/param name, None for nullary
                 "payload", "span")


def resolve_spec_name(name: str, table: dict) -> str | None:
    """Spec listings mix `cellSeg_trans` and `CellSeg_trans`; accept both."""
    for candidate in (name, name[:1].lower() + name[1:]):
        if candidate in table:
            return candidate
    return None


class _Tr:
    def __init__(self, module: SurfaceModule):
        self.module = module
        self.diags: list[Diagnostic] = []
        self.prelude_used: set[str] = set()

        # the declaration table, one dict per namespace, filled by `declare`
        self.types: dict[str, TypeDecl] = {}
        self.ctors: dict[str, _CtorInfo] = {}
        self.fields: dict[str, FieldDef] = {}  # each name's first declaration
        self.funs: dict[str, FunDecl] = {}
        self.preds: dict[str, PredicateDef] = {}
        self.lemmas: dict[str, LemmaDef] = {}
        self.logical: dict[str, LogicalFunctionDef] = {}
        # [binder, scrutinee path, state] of each arm being translated
        # whose scrutinee is a path: _CLEAN until the arm writes that path
        # or a prefix of it, then _STALE until a use of the binder is found
        self.binders: list[list] = []

    def err(self, message: str, span: int | None,
            category: Category = Category.TRANSLATION) -> None:
        self.diags.append(error(category, message, span))

    def warn(self, message: str, span: int | None) -> None:
        self.diags.append(warning(Category.TRANSLATION, message, span))

    # -- the declaration table ------------------------------------------

    def declare(self) -> None:
        """Fill the declaration table in one pass over the module, then
        resolve the target of each ghost command.  A name already in its
        namespace's table is a duplicate.  The checks on names that need
        no body report `error[parse]`."""
        namespaces = {TypeDecl: ("type", self.types),
                      FunDecl: ("function", self.funs),
                      PredicateDef: ("predicate", self.preds),
                      LemmaDef: ("lemma", self.lemmas),
                      LogicalFunctionDef: ("logical function", self.logical)}
        for d in self.module.decls:
            namespace, table = namespaces[type(d)]
            if d.name in table:
                self.err(f"duplicate {namespace} name '{d.name}'", d.span,
                         Category.PARSE)
            table[d.name] = d
            if isinstance(d, TypeDecl):
                self._declare_type(d)
                continue
            names: set[str] = set()
            for name, _ in d.params:
                if name in names:
                    self.err(f"duplicate parameter name '{name}'", d.span,
                             Category.PARSE)
                names.add(name)
            if isinstance(d, FunDecl) and d.spec is not None:
                self._check_contract(d, d.spec, names)
        for cmd in self.module.ghosts:
            self._resolve(cmd)

    def _declare_type(self, d: TypeDecl) -> None:
        if isinstance(d.kind, RecordKind):
            self._declare_fields(d.kind.fields)
            return
        for c in d.kind.ctors:
            if c.name in self.ctors:
                self.err(f"constructor '{c.name}' already declared by type "
                         f"'{self.ctors[c.name].type_name}'", c.span,
                         Category.PARSE)
            proj = d.name if c.payload else None
            self.ctors[c.name] = _CtorInfo(c.name, d.name, proj, c.payload,
                                           c.span)
            self._declare_fields(c.payload)

    def _declare_fields(self, defs: list[FieldDef]) -> None:
        """A field name is one Viper field, whichever types declare it, so
        its declarations must agree on its type and on `mutable`."""
        for f in defs:
            first = self.fields.setdefault(f.name, f)
            if first.typ != f.typ:
                self.err(f"field '{f.name}' redeclared at a different "
                         f"type", f.span)
            elif first.mutable != f.mutable:
                self.err(f"field '{f.name}' redeclared "
                         f"{'without' if first.mutable else 'with'} "
                         f"'mutable'", f.span, Category.TYPE)

    def _check_contract(self, d: FunDecl, spec: ContractSpec,
                        declared: set[str]) -> None:
        if set(spec.param_names) != declared:
            self.err(f"contract for '{d.name}' names parameters "
                     f"{sorted(spec.param_names)} but the function declares "
                     f"{sorted(declared)}", spec.span, Category.PARSE)
        if spec.fn_name != d.name:
            self.err(f"contract names '{spec.fn_name}' but follows "
                     f"'{d.name}'", spec.span, Category.PARSE)
        if len(spec.results) > 1:
            self.err("multiple results are unsupported", spec.span,
                     Category.PARSE)
        for g, _ in spec.ghost_params:
            if g in declared:
                self.err(f"ghost parameter '{g}' shadows a parameter",
                         spec.span, Category.PARSE)

    def _resolve(self, cmd: GhostCommand) -> None:
        """Point `cmd` at the predicate it folds or unfolds, or the lemma
        it applies, and check its arity."""
        table, what = ((self.lemmas, "lemma") if cmd.kind is GhostKind.APPLY
                       else (self.preds, "predicate"))
        resolved = resolve_spec_name(cmd.target, table)
        if resolved is None:
            # a declaration that did not parse was reported by the parser
            broken = resolve_spec_name(cmd.target, self.module.unparsed)
            if broken is None or self.module.unparsed[broken] != what:
                self.err(f"{cmd.kind.value} target '{cmd.target}' is not a "
                         f"declared {what}", cmd.span, Category.PARSE)
            return
        cmd.target = resolved
        arity = len(table[resolved].params)
        if len(cmd.args) != arity:
            self.err(f"'{resolved}' takes {arity} arguments, "
                     f"got {len(cmd.args)}", cmd.span, Category.PARSE)

    # -- types ----------------------------------------------------------

    def map_type(self, t: SurfaceType, span: int | None) -> V.VType:
        if isinstance(t, IntT):
            return V.INT
        if isinstance(t, BoolT):
            return V.BOOL
        if isinstance(t, SeqT):
            return V.SEQ_INT
        info = self.types.get(t.name)  # the only type left: a NamedT
        if info is None:
            self.err(f"unknown type '{t.name}'", span)
            return V.REF
        if isinstance(info.kind, VariantKind):
            return V.VType(_cap(info.name))
        return V.REF

    # -- expressions ------------------------------------------------------

    def tr_expr(self, e: SurfaceExpr, env: dict[str, V.VExpr]) -> V.VExpr:
        return self._EXPR[type(e)](self, e, env)

    # One handler per expression class, in `_EXPR`; each takes tr_expr's
    # arguments (e, env).  A class without one gets `_tr_not_value`.

    def _tr_not_value(self, e, env: dict[str, V.VExpr]) -> V.VExpr:
        # AssignE, LetIn, IfE, MatchE, SeqE, GhostCommand
        self.err("a statement cannot be used as a value", e.span)
        return V.IntLit(0)

    def _tr_int(self, e: IntLit, env: dict[str, V.VExpr]) -> V.VExpr:
        return V.IntLit(e.value)

    def _tr_bool(self, e: BoolLit, env: dict[str, V.VExpr]) -> V.VExpr:
        return V.BoolLit(e.value)

    def _tr_var(self, e: VarE, env: dict[str, V.VExpr]) -> V.VExpr:
        if self.binders:
            self._binder_use(e)
        if e.name in env:
            return env[e.name]
        if e.name == "empty":
            return V.SeqLit([])
        self.err(f"unbound name '{e.name}'", e.span)
        return V.Var(e.name)

    def _tr_ctor(self, e: CtorE, env: dict[str, V.VExpr]) -> V.VExpr:
        info = self.ctors.get(e.name)
        if info is None:
            self.err(f"unknown constructor '{e.name}'", e.span)
        elif info.proj is not None:
            self.err(f"constructor '{e.name}' carries a payload and "
                     f"cannot appear bare", e.span)
        return V.CtorCall(e.name, [])

    def _tr_field(self, e: FieldE, env: dict[str, V.VExpr]) -> V.VExpr:
        base = e.base
        if type(base) is VarE and base.name in env and not self.binders:
            base = env[base.name]  # `_tr_var`
        else:
            base = self._EXPR[type(base)](self, base, env)
        if e.fieldname not in self.fields:
            self.err(f"unknown field '{e.fieldname}'", e.span)
        return V.FieldAcc(base, e.fieldname)

    def _tr_un(self, e: UnE, env: dict[str, V.VExpr]) -> V.VExpr:
        inner = self._EXPR[type(e.operand)](self, e.operand, env)
        if e.op == "-" and isinstance(inner, V.IntLit):
            return V.IntLit(-inner.value)
        return V.UnOp(e.op, inner)

    def _tr_index(self, e: IndexE, env: dict[str, V.VExpr]) -> V.VExpr:
        table, seq, index = self._EXPR, e.seq, e.index
        return V.SeqIndex(table[type(seq)](self, seq, env),
                          table[type(index)](self, index, env))

    def _tr_slice(self, e: SliceFromE, env: dict[str, V.VExpr]) -> V.VExpr:
        table, seq, lo = self._EXPR, e.seq, e.lo
        return V.SeqDrop(table[type(seq)](self, seq, env),
                         table[type(lo)](self, lo, env))

    def _tr_unit(self, e: UnitLit, env: dict[str, V.VExpr]) -> V.VExpr:
        self.err("unit value has no translation in this position", e.span)
        return V.IntLit(0)

    def _tr_alloc_value(self, e: RecordAlloc,
                        env: dict[str, V.VExpr]) -> V.VExpr:
        self.err("allocation must be bound by a let", e.span)
        return V.IntLit(0)

    def _tr_bin(self, e: BinE, env: dict[str, V.VExpr]) -> V.VExpr:
        if e.op in ("=", "<>"):
            test = self._ctor_test(e, env)
            if test is not None:
                return test if e.op == "=" else V.UnOp("!", test)
        table, left, right = self._EXPR, e.left, e.right
        return V.BinOp(_VIPER_OPS[e.op],
                       table[type(left)](self, left, env),
                       table[type(right)](self, right, env))

    def _ctor_test(self, e: BinE,
                   env: dict[str, V.VExpr]) -> V.VExpr | None:
        """`x = C` with exactly one bare nullary-constructor side."""
        def nullary(side: SurfaceExpr) -> str | None:
            if isinstance(side, CtorE):
                info = self.ctors.get(side.name)
                if info is not None and info.proj is None:
                    return side.name
            return None

        lc, rc = nullary(e.left), nullary(e.right)
        if (lc is None) == (rc is None):
            return None
        side = e.right if lc is not None else e.left
        return V.IsTest(self._EXPR[type(side)](self, side, env), lc or rc)

    def _tr_app(self, e: AppE, env: dict[str, V.VExpr]) -> V.VExpr:
        args = [self._EXPR[type(a)](self, a, env) for a in e.args]
        if e.fn == "singleton":
            if len(args) != 1:
                self.err("singleton takes one argument", e.span)
            return V.SeqLit(args[:1] or [V.IntLit(0)])
        if e.fn == "length":
            if len(args) != 1:
                self.err("length takes one argument", e.span)
                return V.IntLit(0)
            return V.SeqLen(args[0])
        if e.fn in self.logical or e.fn in PRELUDE_NAMES:
            if e.fn in PRELUDE_NAMES and e.fn not in self.logical:
                self.prelude_used.add(e.fn)
            return V.FunApp(e.fn, args)
        if e.fn in self.ctors:
            info = self.ctors[e.fn]
            if info.proj is None:
                self.err(f"constructor '{e.fn}' takes no arguments", e.span)
            return V.CtorCall(e.fn, args)
        if e.fn in self.preds:
            self.err(f"predicate '{e.fn}' used in expression position; "
                     f"predicates must stand as whole conjuncts", e.span)
            return V.BoolLit(True)
        if e.fn in self.funs:
            self.err(f"'{e.fn}' is a program function; calls are "
                     f"statements, not expressions", e.span)
            return V.IntLit(0)
        self.err(f"unknown function '{e.fn}'", e.span)
        return V.FunApp(e.fn, args)

    _EXPR = Handlers({
        IntLit: _tr_int, BoolLit: _tr_bool, VarE: _tr_var, CtorE: _tr_ctor,
        FieldE: _tr_field, BinE: _tr_bin, UnE: _tr_un, IndexE: _tr_index,
        SliceFromE: _tr_slice, AppE: _tr_app, UnitLit: _tr_unit,
        RecordAlloc: _tr_alloc_value}, default=_tr_not_value)

    # -- assertions -----------------------------------------------------------

    def tr_assertion(self, a: Assertion,
                     env: dict[str, V.VExpr]) -> V.VAssertion:
        return self._ASSERTION[type(a)](self, a, env)

    # One handler per assertion class, in `_ASSERTION`; each takes (a, env).

    def _tr_pure(self, a: PureA, env: dict[str, V.VExpr]) -> V.VAssertion:
        e, table = a.expr, self._EXPR
        # a whole conjunct that applies a predicate is an instance;
        # specs are parsed in spec mode, so it has no ghost arguments
        if type(e) is AppE and e.fn in self.preds:
            return V.PredApp(_cap(e.fn),
                             [table[type(x)](self, x, env) for x in e.args],
                             span=a.span)
        return V.Pure(table[type(e)](self, e, env), span=a.span)

    def _tr_owns(self, a: OwnsA, env: dict[str, V.VExpr]) -> V.VAssertion:
        target = self._EXPR[type(a.target)](self, a.target, env)
        accs: list[V.VAssertion] = []
        for f in a.fields:
            if f not in self.fields:
                self.err(f"unknown field '{f}'", a.span)
            accs.append(V.Acc(V.FieldAcc(target, f), span=a.span))
        return V.and_all(accs)

    def _tr_sep(self, a: SepA, env: dict[str, V.VExpr]) -> V.VAssertion:
        return V.and_all([self._ASSERTION[type(x)](self, x, env)
                          for x in a.parts])

    def _tr_if_a(self, a: IfA, env: dict[str, V.VExpr]) -> V.VAssertion:
        table, then, els = self._ASSERTION, a.then, a.els
        return V.CondA(self._EXPR[type(a.cond)](self, a.cond, env),
                       table[type(then)](self, then, env),
                       table[type(els)](self, els, env), span=a.span)

    def _tr_let_pat(self, a: LetPatA,
                    env: dict[str, V.VExpr]) -> V.VAssertion:
        info = self.ctors.get(a.ctor)
        scrut = self._EXPR[type(a.scrutinee)](self, a.scrutinee, env)
        if info is None:
            self.err(f"unknown constructor '{a.ctor}'", a.span)
            return V.Pure(V.BoolLit(True))
        if info.proj is None:
            self.err(f"constructor '{a.ctor}' has no payload to bind",
                     a.span)
            return V.Pure(V.BoolLit(True))
        inner_env = dict(env)
        inner_env[a.binder] = V.Var(a.binder)
        body = self._ASSERTION[type(a.body)](self, a.body, inner_env)
        guard = V.Pure(V.IsTest(scrut, a.ctor))
        bound = V.FieldAcc(scrut, info.proj)
        guard.span = a.span
        let = V.LetA(a.binder, bound, body, span=a.span)
        return V.AndA([guard, let])

    _ASSERTION = Handlers({
        PureA: _tr_pure, OwnsA: _tr_owns, SepA: _tr_sep, IfA: _tr_if_a,
        LetPatA: _tr_let_pat}, unknown="unknown assertion")

    # -- statements --------------------------------------------------------------

    def tr_stmts(self, e: SurfaceExpr | GhostCommand,
                 ctx: "_FnCtx") -> list[V.VStmt]:
        return self._STMTS[type(e)](self, e, ctx)

    # One handler per statement class, in `_STMTS` (after `_tr_match`);
    # each takes (e, ctx).  A class without one gets `_tr_no_effect`.

    def _tr_no_effect(self, e, ctx: "_FnCtx") -> list[V.VStmt]:
        # a value whose only effect is its diagnostics
        self.warn("statement has no effect", getattr(e, "span", None))
        self._EXPR[type(e)](self, e, ctx.env)
        return []

    def _tr_block(self, e: SeqE, ctx: "_FnCtx") -> list[V.VStmt]:
        # a block is a scope: its lets end with it.  Going to the items'
        # handlers directly, it adds no frame to the depth of the
        # expressions in it
        saved, ctx.env = ctx.env, dict(ctx.env)
        out: list[V.VStmt] = []
        table = self._STMTS
        for item in e.items:
            out += table[type(item)](self, item, ctx)
        ctx.env = saved
        return out

    def _tr_unit_stmt(self, e: UnitLit, ctx: "_FnCtx") -> list[V.VStmt]:
        return []

    def _tr_discard(self, e: VarE, ctx: "_FnCtx") -> list[V.VStmt]:
        if self.binders:
            self._binder_use(e)
        if e.name != ctx.result:
            self.warn(f"value '{e.name}' is discarded", e.span)
        return []

    def _tr_assign(self, e: AssignE, ctx: "_FnCtx") -> list[V.VStmt]:
        field = self.fields.get(e.target.fieldname)
        if field is not None and not field.mutable:
            self.err(f"field '{field.name}' is not mutable", e.span,
                     Category.TYPE)
        # the value is read before the write, the target after it
        table = self._EXPR
        value = table[type(e.value)](self, e.value, ctx.env)
        written = _path_of(e.target) if self.binders else None
        if written is not None:
            for entry in self.binders:
                if entry[2] == _CLEAN and _is_prefix(written, entry[1]):
                    entry[2] = _STALE
        return [V.AssignS(table[type(e.target)](self, e.target, ctx.env),
                          value, span=e.span)]

    def _binder_use(self, e: VarE) -> None:
        """Report a use of a binder whose scrutinee path was written,
        once per arm: the binder would silently read the new value."""
        for entry in self.binders:
            if entry[0] == e.name and entry[2] == _STALE:
                entry[2] = _REPORTED
                self.err(f"binder '{e.name}' is used after its scrutinee "
                         f"path was reassigned; bind the payload before "
                         f"mutating it", e.span)

    def _tr_if(self, e: IfE, ctx: "_FnCtx") -> list[V.VStmt]:
        table, then, els = self._STMTS, e.then, e.els
        cond = self._EXPR[type(e.cond)](self, e.cond, ctx.env)
        then = table[type(then)](self, then, ctx)
        els = [] if els is None else table[type(els)](self, els, ctx)
        return [V.IfS(cond, then, els, span=e.span)]

    def _tr_call_stmt(self, e: AppE, ctx: "_FnCtx") -> list[V.VStmt]:
        return self._tr_call(e, None, None, ctx)

    def _tr_alloc_stmt(self, e: RecordAlloc, ctx: "_FnCtx") -> list[V.VStmt]:
        self.err("allocation must be bound by a let", e.span)
        return []

    def _tr_ghost(self, cmd: GhostCommand, ctx: "_FnCtx") -> list[V.VStmt]:
        args = [self._EXPR[type(a)](self, a, ctx.env) for a in cmd.args]
        if cmd.kind is GhostKind.FOLD:
            return [V.FoldS(V.PredApp(_cap(cmd.target), args), span=cmd.span)]
        if cmd.kind is GhostKind.UNFOLD:
            return [V.UnfoldS(V.PredApp(_cap(cmd.target), args),
                              span=cmd.span)]
        return [V.CallS([], _cap(cmd.target), args, span=cmd.span)]

    def _tr_call(self, e: AppE, target: str | None, target_typ: V.VType | None,
                 ctx: "_FnCtx") -> list[V.VStmt]:
        if e.fn not in self.funs:
            self.err(f"'{e.fn}' is not a function that can be called as a "
                     f"statement", e.span)
            return []
        args = [self._EXPR[type(a)](self, a, ctx.env)
                for a in (*e.args, *e.ghost_args)]
        callee = self.funs[e.fn]
        spec = callee.spec
        arity = len(callee.params) + (len(spec.ghost_params) if spec else 0)
        if len(args) != arity:
            self.err(f"'{e.fn}' takes {arity} arguments, got {len(args)}",
                     e.span)
            return []
        if target is not None and not (spec and spec.results):
            self.err(f"'{e.fn}' has no result to bind", e.span)
            return []
        out: list[V.VStmt] = []
        targets: list[str] = []
        if target is not None:
            if target != ctx.result:
                assert target_typ is not None
                out.append(V.VarDeclS(target, target_typ))
            targets = [target]
        out.append(V.CallS(targets, e.fn, args, span=e.span))
        return out

    def _tr_let(self, e: LetIn, ctx: "_FnCtx") -> list[V.VStmt]:
        name = e.name if e.name == ctx.result else ctx.fresh(e.name)
        # `_to_result` gives the allocation a function ends in the return
        # type itself, which `_tr_fun` has mapped: mapping it again would
        # report an unknown type twice
        typ = V.REF
        if e.typ is not None and e.typ is not ctx.ret:
            typ = self.map_type(e.typ, e.span)
        rhs = e.rhs
        out: list[V.VStmt] = []
        if isinstance(rhs, RecordAlloc):
            out.extend(self._tr_alloc(name, e.typ, rhs, ctx))
        elif isinstance(rhs, AppE) and rhs.fn in self.funs:
            out.extend(self._tr_call(rhs, name, typ, ctx))
        else:
            init = self._EXPR[type(rhs)](self, rhs, ctx.env)
            if name == ctx.result:
                out.append(V.AssignS(V.Var(name), init, span=e.span))
            else:
                out.append(V.VarDeclS(name, typ, init, span=e.span))
        ctx.env[e.name] = V.Var(name)
        return out

    def _tr_alloc(self, name: str, typ: SurfaceType | None,
                  alloc: RecordAlloc, ctx: "_FnCtx") -> list[V.VStmt]:
        info = self.types.get(typ.name) if isinstance(typ, NamedT) else None
        if info is None:
            self.err("allocation needs a declared record or variant type",
                     alloc.span)
            return []
        if isinstance(info.kind, RecordKind):
            if alloc.ctor is not None:
                self.warn(f"constructor '{alloc.ctor}' is redundant on a "
                          f"record allocation", alloc.span)
            return self._alloc_into(name, info.kind.fields, alloc, ctx,
                                    declare=name != ctx.result)
        if alloc.ctor is None:
            self.err("variant allocation needs a constructor", alloc.span)
            return []
        cinfo = self.ctors.get(alloc.ctor)
        if cinfo is None or cinfo.type_name != info.name or cinfo.proj is None:
            self.err(f"constructor '{alloc.ctor}' does not build a "
                     f"'{info.name}' payload", alloc.span)
            return []
        payload = ctx.fresh(cinfo.proj[:1] or "p")
        out = self._alloc_into(payload, cinfo.payload, alloc, ctx,
                               declare=True)
        ctor_val = V.CtorCall(cinfo.name, [V.Var(payload)])
        if name == ctx.result:
            out.append(V.AssignS(V.Var(name), ctor_val, span=alloc.span))
        else:
            out.append(V.VarDeclS(name, V.VType(_cap(info.name)), ctor_val,
                                  span=alloc.span))
        return out

    def _alloc_into(self, name: str, fields: list[FieldDef],
                    alloc: RecordAlloc, ctx: "_FnCtx",
                    declare: bool) -> list[V.VStmt]:
        declared = [f.name for f in fields]
        out: list[V.VStmt] = [V.NewS(name, declared, declare=declare,
                                     span=alloc.span)]
        seen: set[str] = set()
        for fname, val in alloc.inits:
            if fname not in declared:
                self.err(f"'{fname}' is not a field of this type", alloc.span)
                continue
            if fname in seen:
                self.err(f"field '{fname}' initialized twice", alloc.span)
                continue
            seen.add(fname)
            value = self._EXPR[type(val)](self, val, ctx.env)
            out.append(V.AssignS(V.FieldAcc(V.Var(name), fname), value,
                                 span=alloc.span))
        for fname in declared:
            if fname not in seen:
                self.warn(f"field '{fname}' left uninitialized", alloc.span)
        return out

    def _tr_match(self, e: MatchE, ctx: "_FnCtx") -> list[V.VStmt]:
        scrut = self._EXPR[type(e.scrutinee)](self, e.scrutinee, ctx.env)
        infos: list[_CtorInfo] = []
        for arm in e.arms:
            info = self.ctors.get(arm.ctor)
            if info is None:
                self.err(f"unknown constructor '{arm.ctor}'", arm.span)
                return []
            infos.append(info)
        type_names = {i.type_name for i in infos}
        if len(type_names) != 1:
            self.err("match arms mix constructors of different types",
                     e.span)
            return []
        declared = self.types[infos[0].type_name].kind
        assert isinstance(declared, VariantKind)
        missing = ({c.name for c in declared.ctors}
                   - {a.ctor for a in e.arms})
        if missing:
            self.err(f"match does not cover {', '.join(sorted(missing))}",
                     e.span)
            return []

        arms = list(zip(e.arms, infos))
        if len(arms) == 2 and (infos[0].proj is None) != (infos[1].proj is None):
            if infos[0].proj is not None:  # test the nullary side first
                arms.reverse()

        # arms are translated in order, then chained from the last one out
        path = _path_of(e.scrutinee)
        bodies = [self._tr_arm(arm, info, scrut, path, ctx)
                  for arm, info in arms]
        out = bodies.pop()
        for (arm, _), body in zip(reversed(arms[:-1]), reversed(bodies)):
            out = [V.IfS(V.IsTest(scrut, arm.ctor), body, out, span=e.span)]
        return out

    _STMTS = Handlers({
        SeqE: _tr_block, UnitLit: _tr_unit_stmt, VarE: _tr_discard,
        GhostCommand: _tr_ghost, AssignE: _tr_assign, LetIn: _tr_let,
        IfE: _tr_if, MatchE: _tr_match, AppE: _tr_call_stmt,
        RecordAlloc: _tr_alloc_stmt}, default=_tr_no_effect)

    def _tr_arm(self, arm, info: _CtorInfo, scrut: V.VExpr,
                path: tuple[str, ...] | None, ctx: "_FnCtx") -> list[V.VStmt]:
        tr_body = self._STMTS[type(arm.body)]
        if arm.binder is None:
            return tr_body(self, arm.body, ctx)
        if info.proj is None:
            self.err(f"constructor '{arm.ctor}' has no payload to bind",
                     arm.span)
            return tr_body(self, arm.body, ctx)
        if path is not None:
            self.binders.append([arm.binder, path, _CLEAN])
        saved = ctx.env
        ctx.env = {**saved, arm.binder: V.FieldAcc(scrut, info.proj)}
        body = tr_body(self, arm.body, ctx)
        ctx.env = saved
        if path is not None:
            self.binders.pop()
        return body

    # -- declarations ---------------------------------------------------------------

    def run(self) -> V.ViperProgram | None:
        self.declare()
        # when a name check fails, its errors are all that is reported,
        # as when the parser made them: a body would only repeat them as
        # unknown functions and unbound names
        named = [d for d in self.diags if d.category is Category.PARSE]
        if named:
            self.diags = named
            return None
        self._check_names()

        adts: list[V.VDecl] = []
        fields: list[V.VDecl] = []
        functions: list[V.VDecl] = []
        predicates: list[V.VDecl] = []
        methods: list[V.VDecl] = []

        for d in self.module.decls:
            if isinstance(d, TypeDecl):
                if isinstance(d.kind, VariantKind):
                    adts.append(self._tr_adt(d))
            elif isinstance(d, PredicateDef):
                predicates.append(self._tr_pred(d))
            elif isinstance(d, LogicalFunctionDef):
                functions.append(self._tr_logical(d))
            elif isinstance(d, LemmaDef):
                methods.append(self._tr_lemma(d))
            elif isinstance(d, FunDecl):
                methods.append(self._tr_fun(d))

        for fname, fdef in self.fields.items():
            fields.append(V.FieldDecl(fname, self.map_type(fdef.typ, None)))

        if has_errors(self.diags):
            return None
        prelude = [f for f in prelude_decls() if f.name in self.prelude_used]
        return V.ViperProgram(adts + fields + prelude + functions
                              + predicates + methods)

    def _check_names(self) -> None:
        """Report each declaration that Viper would spell as an earlier
        one, and each field that Viper would read as a constructor test."""
        taken: dict[str, str] = {}  # Viper name -> the declaration's words
        variants = [t for t in self.types.values()
                    if isinstance(t.kind, VariantKind)]
        for kind, decls, spell in (
                ("type", variants, _cap),
                ("constructor", self.ctors.values(), str),
                ("predicate", self.preds.values(), _cap),
                ("lemma", self.lemmas.values(), _cap),
                ("function", self.funs.values(), str),
                ("logical function", self.logical.values(), str)):
            for d in decls:
                name, what = spell(d.name), f"{kind} '{d.name}'"
                if name in taken:
                    self.err(f"{what} collides with {taken[name]}: both are "
                             f"'{name}' in the output", d.span)
                else:
                    taken[name] = what
        for f in self.fields.values():
            test = f.name[2:]
            if f.name.startswith("is") and test[:1].isupper() \
                    and test in self.ctors:
                self.err(f"field '{f.name}' clashes with the constructor "
                         f"test of '{test}'", f.span)

    def _tr_adt(self, d: TypeDecl) -> V.AdtDecl:
        assert isinstance(d.kind, VariantKind)
        ctors = []
        for c in d.kind.ctors:
            params = [(d.name, V.REF)] if c.payload else []
            ctors.append(V.CtorSig(c.name, params))
        return V.AdtDecl(_cap(d.name), ctors)

    def _params(self, params: list[tuple[str, SurfaceType]],
                span: int | None) -> list[tuple[str, V.VType]]:
        return [(n, self.map_type(t, span)) for n, t in params]

    def _tr_pred(self, p: PredicateDef) -> V.PredicateDecl:
        env = {n: V.Var(n) for n, _ in p.params}
        return V.PredicateDecl(_cap(p.name), self._params(p.params, p.span),
                               self.tr_assertion(p.body, env))

    def _tr_logical(self, f: LogicalFunctionDef) -> V.FunctionDecl:
        env = {n: V.Var(n) for n, _ in f.params}
        return V.FunctionDecl(f.name, self._params(f.params, f.span),
                              self.map_type(f.ret, f.span),
                              body=self.tr_expr(f.body, env))

    def _tr_lemma(self, l: LemmaDef) -> V.MethodDecl:
        env = {n: V.Var(n) for n, _ in l.params}
        return V.MethodDecl(
            _cap(l.name), self._params(l.params, l.span), [],
            pres=[self.tr_assertion(a, env) for a in l.requires],
            posts=[self.tr_assertion(a, env) for a in l.ensures],
            body=None, span=l.span)

    def _tr_fun(self, d: FunDecl) -> V.MethodDecl:
        spec = d.spec
        if spec is None:
            self.warn(f"function '{d.name}' has no contract; assuming an "
                      f"empty one", d.span)
            spec = ContractSpec([], d.name, [n for n, _ in d.params], [],
                                [], [])
        params = self._params(d.params, d.span)
        params += self._params(spec.ghost_params, spec.span)

        returns: list[tuple[str, V.VType]] = []
        result = None
        if spec.results:
            result = spec.results[0]
            if d.ret is None:
                self.err(f"contract for '{d.name}' names result "
                         f"'{result}' but the function has no return "
                         f"type", spec.span)
                returns = [(result, V.REF)]
            else:
                returns = [(result, self.map_type(d.ret, d.span))]
        elif d.ret is not None:
            self.err(f"'{d.name}' returns a value but its contract names "
                     f"no result", d.span if spec.span is None else spec.span)

        env: dict[str, V.VExpr] = {n: V.Var(n) for n, _ in d.params}
        env.update({n: V.Var(n) for n, _ in spec.ghost_params})
        pres = [self.tr_assertion(a, env) for a in spec.requires]
        if result is not None:
            env[result] = V.Var(result)
        posts = [self.tr_assertion(a, env) for a in spec.ensures]

        ctx = _FnCtx(env=env, result=result, ret=d.ret,
                     used=dict.fromkeys([n for n, _ in params + returns], 1))
        body = d.body if result is None else _to_result(d.body, result, d.ret)
        return V.MethodDecl(d.name, params, returns, pres, posts,
                            self.tr_stmts(body, ctx), span=d.span)


class _FnCtx(Record):
    __slots__ = ("env", "result",
                 "ret",  # the function's return type, as written
                 # every name taken in the method, and the lowest suffix
                 # that may still be free after it; names are never
                 # released, so that never goes down
                 "used")

    def fresh(self, base: str) -> str:
        """`base`, or `base` with the lowest numeric suffix not taken."""
        i = self.used.setdefault(base, 0)
        if i:
            while f"{base}{i}" in self.used:
                i += 1
            self.used[base] = i + 1
            base = f"{base}{i}"
        self.used[base] = 1
        return base


def _to_result(e: SurfaceExpr | GhostCommand, result: str,
               ret: SurfaceType | None) -> SurfaceExpr | GhostCommand:
    """`e` with each value in tail position (its last item, through `if`
    and `match` each branch's) bound as `let <result> = value in`, which
    `_tr_let` assigns to the result, a call or allocation included.  Only
    an allocation needs the type `ret`: `_tr_fun` maps it for the method."""
    if isinstance(e, SeqE):
        return SeqE(e.items[:-1] + [_to_result(e.items[-1], result, ret)],
                    e.span)
    if isinstance(e, IfE):
        els = None if e.els is None else _to_result(e.els, result, ret)
        return IfE(e.cond, _to_result(e.then, result, ret), els, e.span)
    if isinstance(e, MatchE):
        return MatchE(e.scrutinee, [
            MatchArm(a.ctor, a.binder, _to_result(a.body, result, ret),
                     a.span) for a in e.arms], e.span)
    if isinstance(e, (LetIn, AssignE, GhostCommand)) \
            or isinstance(e, VarE) and e.name == result:
        return e
    return LetIn(result, ret if isinstance(e, RecordAlloc) else None, e,
                 span=e.span)


def _path_of(e: SurfaceExpr) -> tuple[str, ...] | None:
    if isinstance(e, VarE):
        return (e.name,)
    if isinstance(e, FieldE):
        base = _path_of(e.base)
        if base is None:
            return None
        return base + (e.fieldname,)
    return None


def _is_prefix(p: tuple[str, ...], of: tuple[str, ...]) -> bool:
    return len(p) <= len(of) and of[:len(p)] == p


def translate(module: SurfaceModule
              ) -> tuple[V.ViperProgram | None, list[Diagnostic]]:
    tr = _Tr(module)
    program = tr.run()
    return program, tr.diags


def translate_source(source: str
                     ) -> tuple[V.ViperProgram | None, list[Diagnostic]]:
    module, diags = parse_source(source)
    if module is None:
        return None, diags
    if has_errors(diags):
        # the parse went on past its errors: its names are checked too,
        # but no body is translated
        tr = _Tr(module)
        tr.declare()
        return None, diags + tr.diags
    program, more = translate(module)
    return program, diags + more
