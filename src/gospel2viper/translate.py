"""Translation from annotated surface modules to Viper programs.

Shape of the mapping:

* a variant type becomes an ADT whose record payloads live behind a Ref,
  so a constructor with fields turns into `Ctor(<typename>: Ref)` and the
  payload fields become global heap field declarations;
* a record type disappears as a type (its values are Refs) and
  contributes its fields to the global field declarations;
* predicates and lemmas keep their names with the first letter
  capitalized, logical functions and program functions keep theirs;
* ownership assertions expand to one `acc` conjunct per field, `e = C`
  against a nullary constructor becomes `e.isC`, and a constructor
  pattern `let C x = e in ...` becomes `e.isC && let x == (e.<proj>) in`;
* `match` lowers to an `if` on constructor tests, binding payload
  binders by substituting the projection expression;
* allocation `{f = e; ...}` lowers to `new` over every declared field in
  declaration order followed by the initializing assignments in source
  order.

Sequence helpers `drop_last` and `take_last` are emitted as Viper
functions once, and only when referenced (unless suppressed).

Translation is total: it accumulates diagnostics and returns
(None, diags) when any is an error, never raising.

Each walk looks up the handler for a node's class in one table, as the
checker's `eval` does: `tr_expr` in `_Tr._EXPR`, `tr_stmts` in
`_Tr._STMTS` and `tr_assertion` in `_Tr._ASSERTION`.  A class missing
from `_EXPR` is a statement used as a value, one missing from `_STMTS` a
value without effect; both are diagnosed.  Only an unknown assertion class,
which no parse produces, raises TypeError.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import viper_ast as V
from .diagnostics import Category, Diagnostic, Span, error, has_errors, warning
from .parser import parse_source
from .surface import (AppE, AssignE, Assertion, BinE, BoolLit, BoolT,
                      ContractSpec, CtorE, FieldDef, FieldE, FunDecl,
                      GhostCommand, GhostDecl, GhostKind, IfA, IfE,
                      IndexE, IntLit, IntT, LemmaDef, LetIn, LetPatA,
                      LogicalFunctionDef, MatchE, NamedT, OwnsA,
                      PredicateDef, PureA, RecordAlloc, RecordKind, SeqE,
                      SeqT, SepA, SliceFromE, SurfaceExpr, SurfaceModule,
                      SurfaceType, TypeDecl, UnE, UnitLit, VariantKind, VarE)

PRELUDE_NAMES = ("drop_last", "take_last")


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


@dataclass
class _TypeInfo:
    name: str
    kind: RecordKind | VariantKind

    @property
    def is_variant(self) -> bool:
        return isinstance(self.kind, VariantKind)


@dataclass
class _CtorInfo:
    name: str
    type_name: str
    proj: str | None  # projection/param name, None for nullary
    payload: list[FieldDef]


class _Tr:
    def __init__(self, module: SurfaceModule, no_prelude: bool):
        self.module = module
        self.diags: list[Diagnostic] = []
        self.no_prelude = no_prelude
        self.prelude_used: set[str] = set()

        self.types: dict[str, _TypeInfo] = {}
        self.ctors: dict[str, _CtorInfo] = {}
        self.fields: dict[str, SurfaceType] = {}
        self.preds = module.predicates()
        self.lemmas = module.lemmas()
        self.logical = module.logical_functions()
        self.funs = module.functions()

    def err(self, message: str, span: Span | None) -> None:
        self.diags.append(error(Category.TRANSLATION, message, span))

    def warn(self, message: str, span: Span | None) -> None:
        self.diags.append(warning(Category.TRANSLATION, message, span))

    # -- types ----------------------------------------------------------

    def collect_types(self) -> None:
        for d in self.module.decls:
            if not isinstance(d, TypeDecl):
                continue
            info = _TypeInfo(d.name, d.kind)
            self.types[d.name] = info
            if isinstance(d.kind, VariantKind):
                for c in d.kind.ctors:
                    proj = d.name if c.payload else None
                    self.ctors[c.name] = _CtorInfo(c.name, d.name, proj,
                                                   c.payload)
                    self._add_fields(c.payload)
            else:
                self._add_fields(d.kind.fields)

    def _add_fields(self, defs: list[FieldDef]) -> None:
        for f in defs:
            if f.name in self.fields:
                if self.fields[f.name] != f.typ:
                    self.err(f"field '{f.name}' redeclared at a different "
                             f"type", f.span)
                continue
            self.fields[f.name] = f.typ

    def map_type(self, t: SurfaceType, span: Span | None) -> V.VType:
        if isinstance(t, IntT):
            return V.INT
        if isinstance(t, BoolT):
            return V.BOOL
        if isinstance(t, SeqT):
            return V.SEQ_INT
        if isinstance(t, NamedT):
            info = self.types.get(t.name)
            if info is None:
                self.err(f"unknown type '{t.name}'", span)
                return V.REF
            if info.is_variant:
                return V.VType(_cap(info.name))
            return V.REF
        raise TypeError(f"unknown surface type {t!r}")

    # -- expressions ------------------------------------------------------

    def tr_expr(self, e: SurfaceExpr, env: dict[str, V.VExpr]) -> V.VExpr:
        try:
            handler = self._EXPR[type(e)]
        except KeyError:  # AssignE, LetIn, IfE, MatchE, SeqE, GhostCommand
            self.err("a statement cannot be used as a value", e.span)
            return V.IntLit(0)
        return handler(self, e, env)

    # One handler per expression class, looked up by `tr_expr` in `_EXPR`;
    # each takes tr_expr's arguments (e, env).

    def _tr_int(self, e: IntLit, env: dict[str, V.VExpr]) -> V.VExpr:
        return V.IntLit(e.value)

    def _tr_bool(self, e: BoolLit, env: dict[str, V.VExpr]) -> V.VExpr:
        return V.BoolLit(e.value)

    def _tr_var(self, e: VarE, env: dict[str, V.VExpr]) -> V.VExpr:
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
        base = self.tr_expr(e.base, env)
        if e.fieldname not in self.fields:
            self.err(f"unknown field '{e.fieldname}'", e.span)
        return V.FieldAcc(base, e.fieldname)

    def _tr_un(self, e: UnE, env: dict[str, V.VExpr]) -> V.VExpr:
        inner = self.tr_expr(e.operand, env)
        if e.op == "-" and isinstance(inner, V.IntLit):
            return V.IntLit(-inner.value)
        return V.UnOp(e.op, inner)

    def _tr_index(self, e: IndexE, env: dict[str, V.VExpr]) -> V.VExpr:
        return V.SeqIndex(self.tr_expr(e.seq, env), self.tr_expr(e.index, env))

    def _tr_slice(self, e: SliceFromE, env: dict[str, V.VExpr]) -> V.VExpr:
        return V.SeqDrop(self.tr_expr(e.seq, env), self.tr_expr(e.lo, env))

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
        left = self.tr_expr(e.left, env)
        right = self.tr_expr(e.right, env)
        op = {"=": "==", "<>": "!="}.get(e.op, e.op)
        return V.BinOp(op, left, right)

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
        if lc is not None:
            return V.IsTest(self.tr_expr(e.right, env), lc)
        return V.IsTest(self.tr_expr(e.left, env), rc)

    def _tr_app(self, e: AppE, env: dict[str, V.VExpr]) -> V.VExpr:
        args = [self.tr_expr(a, env) for a in e.args]
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

    _EXPR = {IntLit: _tr_int, BoolLit: _tr_bool, VarE: _tr_var,
             CtorE: _tr_ctor, FieldE: _tr_field, BinE: _tr_bin, UnE: _tr_un,
             IndexE: _tr_index, SliceFromE: _tr_slice, AppE: _tr_app,
             UnitLit: _tr_unit, RecordAlloc: _tr_alloc_value}

    # -- assertions -----------------------------------------------------------

    def tr_assertion(self, a: Assertion,
                     env: dict[str, V.VExpr]) -> V.VAssertion:
        try:
            handler = self._ASSERTION[type(a)]
        except KeyError:
            raise TypeError(f"unknown assertion {type(a).__name__}") from None
        return handler(self, a, env)

    # One handler per assertion class, looked up by `tr_assertion` in
    # `_ASSERTION`; each takes (a, env).

    def _tr_pure(self, a: PureA, env: dict[str, V.VExpr]) -> V.VAssertion:
        e = a.expr
        # a whole conjunct that applies a predicate is an instance;
        # specs are parsed in spec mode, so it has no ghost arguments
        if isinstance(e, AppE) and e.fn in self.preds:
            return V.PredApp(_cap(e.fn),
                             [self.tr_expr(x, env) for x in e.args],
                             span=a.span)
        return V.Pure(self.tr_expr(e, env), span=a.span)

    def _tr_owns(self, a: OwnsA, env: dict[str, V.VExpr]) -> V.VAssertion:
        target = self.tr_expr(a.target, env)
        accs: list[V.VAssertion] = []
        for f in a.fields:
            if f not in self.fields:
                self.err(f"unknown field '{f}'", a.span)
            accs.append(V.Acc(V.FieldAcc(target, f), span=a.span))
        return V.and_all(accs)

    def _tr_sep(self, a: SepA, env: dict[str, V.VExpr]) -> V.VAssertion:
        return V.and_all([self.tr_assertion(x, env) for x in a.parts])

    def _tr_if_a(self, a: IfA, env: dict[str, V.VExpr]) -> V.VAssertion:
        return V.CondA(self.tr_expr(a.cond, env),
                       self.tr_assertion(a.then, env),
                       self.tr_assertion(a.els, env), span=a.span)

    def _tr_let_pat(self, a: LetPatA,
                    env: dict[str, V.VExpr]) -> V.VAssertion:
        info = self.ctors.get(a.ctor)
        scrut = self.tr_expr(a.scrutinee, env)
        if info is None:
            self.err(f"unknown constructor '{a.ctor}'", a.span)
            return V.Pure(V.BoolLit(True))
        if info.proj is None:
            self.err(f"constructor '{a.ctor}' has no payload to bind",
                     a.span)
            return V.Pure(V.BoolLit(True))
        inner_env = dict(env)
        inner_env[a.binder] = V.Var(a.binder)
        body = self.tr_assertion(a.body, inner_env)
        guard = V.Pure(V.IsTest(scrut, a.ctor))
        bound = V.FieldAcc(scrut, info.proj)
        guard.span = a.span
        let = V.LetA(a.binder, bound, body, span=a.span)
        return V.AndA([guard, let])

    _ASSERTION = {PureA: _tr_pure, OwnsA: _tr_owns, SepA: _tr_sep,
                  IfA: _tr_if_a, LetPatA: _tr_let_pat}

    # -- statements --------------------------------------------------------------

    def tr_stmts(self, e: SurfaceExpr | GhostCommand,
                 ctx: "_FnCtx") -> list[V.VStmt]:
        try:
            handler = self._STMTS[type(e)]
        except KeyError:  # a value whose only effect is its diagnostics
            self.warn("statement has no effect", getattr(e, "span", None))
            self.tr_expr(e, ctx.env)
            return []
        return handler(self, e, ctx)

    # One handler per statement class, looked up by `tr_stmts` in `_STMTS`
    # (the table follows `_tr_match`); each takes (e, ctx).

    def _tr_block(self, e: SeqE, ctx: "_FnCtx") -> list[V.VStmt]:
        # a block is a scope: its lets end with it.  Items go to their
        # handlers directly (to tr_stmts only when a class has none), so a
        # block adds no frame to the depth of the expressions in it.
        saved, ctx.env = ctx.env, dict(ctx.env)
        out: list[V.VStmt] = []
        for item in e.items:
            out += self._STMTS.get(type(item), _Tr.tr_stmts)(self, item, ctx)
        ctx.env = saved
        return out

    def _tr_unit_stmt(self, e: UnitLit, ctx: "_FnCtx") -> list[V.VStmt]:
        return []

    def _tr_discard(self, e: VarE, ctx: "_FnCtx") -> list[V.VStmt]:
        if ctx.result is None or e.name != ctx.result:
            self.warn(f"value '{e.name}' is discarded", e.span)
        return []

    def _tr_assign(self, e: AssignE, ctx: "_FnCtx") -> list[V.VStmt]:
        target = self.tr_expr(e.target, ctx.env)
        return [V.AssignS(target, self.tr_expr(e.value, ctx.env),
                          span=e.span)]

    def _tr_if(self, e: IfE, ctx: "_FnCtx") -> list[V.VStmt]:
        cond = self.tr_expr(e.cond, ctx.env)
        then = self.tr_stmts(e.then, ctx)
        els = self.tr_stmts(e.els, ctx) if e.els is not None else []
        return [V.IfS(cond, then, els, span=e.span)]

    def _tr_call_stmt(self, e: AppE, ctx: "_FnCtx") -> list[V.VStmt]:
        return self._tr_call(e, None, None, ctx)

    def _tr_alloc_stmt(self, e: RecordAlloc, ctx: "_FnCtx") -> list[V.VStmt]:
        self.err("allocation must be bound by a let", e.span)
        return []

    def _tr_ghost(self, cmd: GhostCommand, ctx: "_FnCtx") -> list[V.VStmt]:
        args = [self.tr_expr(a, ctx.env) for a in cmd.args]
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
        args = [self.tr_expr(a, ctx.env) for a in e.args]
        args += [self.tr_expr(a, ctx.env) for a in e.ghost_args]
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
        typ = self.map_type(e.typ, e.span) if e.typ is not None else V.REF
        rhs = e.rhs
        out: list[V.VStmt] = []
        if isinstance(rhs, RecordAlloc):
            out.extend(self._tr_alloc(name, e.typ, rhs, ctx))
        elif isinstance(rhs, AppE) and rhs.fn in self.funs:
            out.extend(self._tr_call(rhs, name, typ, ctx))
        else:
            init = self.tr_expr(rhs, ctx.env)
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
        if not info.is_variant:
            if alloc.ctor is not None:
                self.warn(f"constructor '{alloc.ctor}' is redundant on a "
                          f"record allocation", alloc.span)
            assert isinstance(info.kind, RecordKind)
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
            out.append(V.AssignS(V.FieldAcc(V.Var(name), fname),
                                 self.tr_expr(val, ctx.env),
                                 span=alloc.span))
        for fname in declared:
            if fname not in seen:
                self.warn(f"field '{fname}' left uninitialized", alloc.span)
        return out

    def _tr_match(self, e: MatchE, ctx: "_FnCtx") -> list[V.VStmt]:
        scrut = self.tr_expr(e.scrutinee, ctx.env)
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
        bodies = [self._tr_arm(arm, info, scrut, e, ctx) for arm, info in arms]
        out = bodies.pop()
        for (arm, _), body in zip(reversed(arms[:-1]), reversed(bodies)):
            out = [V.IfS(V.IsTest(scrut, arm.ctor), body, out, span=e.span)]
        return out

    _STMTS = {SeqE: _tr_block, UnitLit: _tr_unit_stmt, VarE: _tr_discard,
              GhostCommand: _tr_ghost, AssignE: _tr_assign, LetIn: _tr_let,
              IfE: _tr_if, MatchE: _tr_match, AppE: _tr_call_stmt,
              RecordAlloc: _tr_alloc_stmt}

    def _tr_arm(self, arm, info: _CtorInfo, scrut: V.VExpr, m: MatchE,
                ctx: "_FnCtx") -> list[V.VStmt]:
        if arm.binder is None:
            return self.tr_stmts(arm.body, ctx)
        if info.proj is None:
            self.err(f"constructor '{arm.ctor}' has no payload to bind",
                     arm.span)
            return self.tr_stmts(arm.body, ctx)
        self._check_substitution(arm, m)
        saved = ctx.env
        ctx.env = {**saved, arm.binder: V.FieldAcc(scrut, info.proj)}
        body = self.tr_stmts(arm.body, ctx)
        ctx.env = saved
        return body

    def _check_substitution(self, arm, m: MatchE) -> None:
        """Binders are substituted, not snapshotted: once the scrutinee
        path (or a prefix of it) is assigned, later binder uses would
        silently read the new value, so reject that ordering."""
        scrut_path = _path_of(m.scrutinee)
        if scrut_path is None:
            return
        dirty = False
        for node in _walk_order(arm.body):
            if isinstance(node, AssignE):
                p = _path_of(node.target)
                if p is not None and _is_prefix(p, scrut_path):
                    dirty = True
            elif dirty and isinstance(node, VarE) and node.name == arm.binder:
                self.err(
                    f"binder '{arm.binder}' is used after its scrutinee "
                    f"path was reassigned; bind the payload before "
                    f"mutating it", node.span)
                return

    # -- declarations ---------------------------------------------------------------

    def run(self) -> V.ViperProgram | None:
        self.collect_types()
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
            elif isinstance(d, GhostDecl):
                p = d.payload
                if isinstance(p, PredicateDef):
                    predicates.append(self._tr_pred(p))
                elif isinstance(p, LogicalFunctionDef):
                    functions.append(self._tr_logical(p))
                elif isinstance(p, LemmaDef):
                    methods.append(self._tr_lemma(p))
            elif isinstance(d, FunDecl):
                methods.append(self._tr_fun(d))

        for fname, ftyp in self.fields.items():
            fields.append(V.FieldDecl(fname, self.map_type(ftyp, None)))

        if not self.no_prelude:
            pre = [f for f in prelude_decls()
                   if f.name in self.prelude_used
                   and f.name not in self.logical]
            functions = pre + functions

        if has_errors(self.diags):
            return None
        return V.ViperProgram(adts + fields + functions + predicates
                              + methods)

    def _check_names(self) -> None:
        taken: dict[str, str] = {}

        def claim(name: str, what: str, span: Span | None) -> None:
            if name in taken:
                self.err(f"{what} '{name}' collides with "
                         f"{taken[name]} of the same name in the output",
                         span)
            else:
                taken[name] = what

        for info in self.types.values():
            if info.is_variant:
                claim(_cap(info.name), f"type '{info.name}'", None)
        for c in self.ctors.values():
            claim(c.name, "constructor", None)
        for p in self.preds.values():
            claim(_cap(p.name), f"predicate '{p.name}'", p.span)
        for l in self.lemmas.values():
            claim(_cap(l.name), f"lemma '{l.name}'", l.span)
        for f in self.funs.values():
            claim(f.name, "function", f.span)
        for fn in self.logical.values():
            claim(fn.name, "logical function", fn.span)
        for fname in self.fields:
            if (fname.startswith("is") and len(fname) > 2
                    and fname[2].isupper() and fname[2:] in self.ctors):
                self.err(f"field '{fname}' clashes with the constructor "
                         f"test of '{fname[2:]}'", None)

    def _tr_adt(self, d: TypeDecl) -> V.AdtDecl:
        assert isinstance(d.kind, VariantKind)
        ctors = []
        for c in d.kind.ctors:
            params = [(d.name, V.REF)] if c.payload else []
            ctors.append(V.CtorSig(c.name, params))
        return V.AdtDecl(_cap(d.name), ctors)

    def _params(self, params: list[tuple[str, SurfaceType]],
                span: Span | None) -> list[tuple[str, V.VType]]:
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
            body=None)

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
                     f"no result", spec.span or d.span)

        env: dict[str, V.VExpr] = {n: V.Var(n) for n, _ in d.params}
        env.update({n: V.Var(n) for n, _ in spec.ghost_params})
        pres = [self.tr_assertion(a, env) for a in spec.requires]
        if result is not None:
            env[result] = V.Var(result)
        posts = [self.tr_assertion(a, env) for a in spec.ensures]

        ctx = _FnCtx(env=env, result=result,
                     used=dict.fromkeys([n for n, _ in params + returns], 1))
        body = self.tr_stmts(d.body, ctx)
        return V.MethodDecl(d.name, params, returns, pres, posts, body)


@dataclass
class _FnCtx:
    env: dict[str, V.VExpr]
    result: str | None
    # every name taken in the method, and the lowest suffix that may still
    # be free after it; names are never released, so that never goes down
    used: dict[str, int]

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


def _walk_order(e: SurfaceExpr | GhostCommand):
    """All nodes in evaluation order (approximate but order-faithful for
    statements).  An assignment's value is read before the write takes
    effect, so it is yielded before the AssignE node; the target after."""
    if isinstance(e, AssignE):
        yield from _walk_order(e.value)
        yield e
        yield from _walk_order(e.target)
        return
    yield e
    children: list[SurfaceExpr] = []
    if isinstance(e, SeqE):
        children = e.items
    elif isinstance(e, LetIn):
        children = [e.rhs]
    elif isinstance(e, IfE):
        children = [e.cond, e.then] + ([e.els] if e.els is not None else [])
    elif isinstance(e, MatchE):
        children = [e.scrutinee] + [a.body for a in e.arms]
    elif isinstance(e, BinE):
        children = [e.left, e.right]
    elif isinstance(e, UnE):
        children = [e.operand]
    elif isinstance(e, FieldE):
        children = [e.base]
    elif isinstance(e, AppE):
        children = list(e.args) + list(e.ghost_args)
    elif isinstance(e, (IndexE,)):
        children = [e.seq, e.index]
    elif isinstance(e, SliceFromE):
        children = [e.seq, e.lo]
    elif isinstance(e, RecordAlloc):
        children = [v for _, v in e.inits]
    elif isinstance(e, GhostCommand):
        children = list(e.args)
    for c in children:
        yield from _walk_order(c)


def translate(module: SurfaceModule, no_prelude: bool = False
              ) -> tuple[V.ViperProgram | None, list[Diagnostic]]:
    tr = _Tr(module, no_prelude)
    program = tr.run()
    return program, tr.diags


def translate_source(source: str, no_prelude: bool = False
                     ) -> tuple[V.ViperProgram | None, list[Diagnostic]]:
    module, diags = parse_source(source)
    if module is None:
        return None, diags
    program, more = translate(module, no_prelude)
    return program, diags + more
