"""Surface AST: OCaml-light declarations plus Gospel annotation payloads.

Every node is a plain class with `__slots__` and a hand-written
`__init__`, and the abstract bases declare no slots, so a node has no
`__dict__`: it is smaller and cheaper to build, and no stage can hang an
undeclared attribute on it.  Equality and repr come from `Record` and are
those a dataclass would give.  A node's `span` is the source offset of
its first character, an `int` or None (see `diagnostics`); spans never
participate in structural equality, so tests can build expected trees
without positions.
The types are hashable, like frozen dataclasses; the other nodes are not.
"""

from __future__ import annotations

from enum import Enum

from .diagnostics import Record


# --------------------------------------------------------------------------
# types

class SurfaceType(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(())


class IntT(SurfaceType):
    __slots__ = ()


class BoolT(SurfaceType):
    __slots__ = ()


class SeqT(SurfaceType):
    """Integer sequences; the only sequence element type in the subset."""
    __slots__ = ()


class NamedT(SurfaceType):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __hash__(self) -> int:
        return hash((self.name,))


# --------------------------------------------------------------------------
# expressions (shared by program code and specification terms)

class SurfaceExpr(Record):
    __slots__ = ()


class IntLit(SurfaceExpr):
    __slots__ = ("value", "span")

    def __init__(self, value: int, span: int | None = None):
        self.value = value
        self.span = span


class BoolLit(SurfaceExpr):
    __slots__ = ("value", "span")

    def __init__(self, value: bool, span: int | None = None):
        self.value = value
        self.span = span


class UnitLit(SurfaceExpr):
    __slots__ = ("span",)

    def __init__(self, span: int | None = None):
        self.span = span


class VarE(SurfaceExpr):
    __slots__ = ("name", "span")

    def __init__(self, name: str, span: int | None = None):
        self.name = name
        self.span = span


class FieldE(SurfaceExpr):
    __slots__ = ("base", "fieldname", "span")

    def __init__(self, base: SurfaceExpr, fieldname: str,
                 span: int | None = None):
        self.base = base
        self.fieldname = fieldname
        self.span = span


class CtorE(SurfaceExpr):
    """A bare constructor value, e.g. Nil."""
    __slots__ = ("name", "span")

    def __init__(self, name: str, span: int | None = None):
        self.name = name
        self.span = span


class RecordAlloc(SurfaceExpr):
    """A record literal, optionally prefixed by a constructor name."""
    __slots__ = ("ctor", "inits", "span")

    def __init__(self, ctor: str | None,
                 inits: list[tuple[str, SurfaceExpr]],
                 span: int | None = None):
        self.ctor = ctor
        self.inits = inits
        self.span = span


class AppE(SurfaceExpr):
    """Application of a named head: builtin, predicate, function or lemma."""
    __slots__ = ("fn", "args", "ghost_args", "span")

    def __init__(self, fn: str, args: list[SurfaceExpr],
                 ghost_args: list[SurfaceExpr] | None = None,
                 span: int | None = None):
        self.fn = fn
        self.args = args
        self.ghost_args = [] if ghost_args is None else ghost_args
        self.span = span


class BinE(SurfaceExpr):
    __slots__ = ("op", "left", "right", "span")

    def __init__(self, op: str, left: SurfaceExpr, right: SurfaceExpr,
                 span: int | None = None):
        self.op = op
        self.left = left
        self.right = right
        self.span = span


class UnE(SurfaceExpr):
    __slots__ = ("op", "operand", "span")

    def __init__(self, op: str, operand: SurfaceExpr,
                 span: int | None = None):
        self.op = op
        self.operand = operand
        self.span = span


class IndexE(SurfaceExpr):
    __slots__ = ("seq", "index", "span")

    def __init__(self, seq: SurfaceExpr, index: SurfaceExpr,
                 span: int | None = None):
        self.seq = seq
        self.index = index
        self.span = span


class SliceFromE(SurfaceExpr):
    """v[k ..] : the suffix of v starting at k."""
    __slots__ = ("seq", "lo", "span")

    def __init__(self, seq: SurfaceExpr, lo: SurfaceExpr,
                 span: int | None = None):
        self.seq = seq
        self.lo = lo
        self.span = span


class LetIn(SurfaceExpr):
    """`let name : typ = rhs in`, an item of its block: it binds `name`
    from the next item to the end of that block."""
    __slots__ = ("name", "typ", "rhs", "span")

    def __init__(self, name: str, typ: SurfaceType | None, rhs: SurfaceExpr,
                 span: int | None = None):
        self.name = name
        self.typ = typ
        self.rhs = rhs
        self.span = span


class IfE(SurfaceExpr):
    __slots__ = ("cond", "then", "els", "span")

    def __init__(self, cond: SurfaceExpr, then: SurfaceExpr,
                 els: SurfaceExpr | None, span: int | None = None):
        self.cond = cond
        self.then = then
        self.els = els
        self.span = span


class MatchArm(Record):
    __slots__ = ("ctor", "binder", "body", "span")

    def __init__(self, ctor: str, binder: str | None,
                 body: SurfaceExpr | GhostCommand, span: int | None = None):
        self.ctor = ctor
        self.binder = binder
        self.body = body
        self.span = span


class MatchE(SurfaceExpr):
    __slots__ = ("scrutinee", "arms", "span")

    def __init__(self, scrutinee: SurfaceExpr, arms: list[MatchArm],
                 span: int | None = None):
        self.scrutinee = scrutinee
        self.arms = arms
        self.span = span


class AssignE(SurfaceExpr):
    __slots__ = ("target", "value", "span")

    def __init__(self, target: FieldE, value: SurfaceExpr,
                 span: int | None = None):
        self.target = target
        self.value = value
        self.span = span


class SeqE(SurfaceExpr):
    """A block: a statement sequence, and the scope of the lets in it.
    Ghost commands are items too; the last item may be the result."""
    __slots__ = ("items", "span")

    def __init__(self, items: list[SurfaceExpr | GhostCommand],
                 span: int | None = None):
        self.items = items
        self.span = span


# --------------------------------------------------------------------------
# assertions

class Assertion(Record):
    __slots__ = ()


class PureA(Assertion):
    __slots__ = ("expr", "span")

    def __init__(self, expr: SurfaceExpr, span: int | None = None):
        self.expr = expr
        self.span = span


class OwnsA(Assertion):
    """target ~> {f1; ...; fn}: whole permission to the listed fields."""
    __slots__ = ("target", "fields", "span")

    def __init__(self, target: SurfaceExpr, fields: list[str],
                 span: int | None = None):
        self.target = target
        self.fields = fields
        self.span = span


class SepA(Assertion):
    """A && chain of two or more assertions, kept flat."""
    __slots__ = ("parts", "span")

    def __init__(self, parts: list[Assertion], span: int | None = None):
        self.parts = parts
        self.span = span


class IfA(Assertion):
    __slots__ = ("cond", "then", "els", "span")

    def __init__(self, cond: SurfaceExpr, then: Assertion, els: Assertion,
                 span: int | None = None):
        self.cond = cond
        self.then = then
        self.els = els
        self.span = span


class LetPatA(Assertion):
    """let C b = scrutinee in body, destructing a payload constructor."""
    __slots__ = ("ctor", "binder", "scrutinee", "body", "span")

    def __init__(self, ctor: str, binder: str, scrutinee: SurfaceExpr,
                 body: Assertion, span: int | None = None):
        self.ctor = ctor
        self.binder = binder
        self.scrutinee = scrutinee
        self.body = body
        self.span = span


# --------------------------------------------------------------------------
# annotation payloads

class GhostKind(Enum):
    FOLD = "fold"
    UNFOLD = "unfold"
    APPLY = "apply"


class GhostCommand(Record):
    __slots__ = ("kind", "target", "args", "span")

    def __init__(self, kind: GhostKind, target: str, args: list[SurfaceExpr],
                 span: int | None = None):
        self.kind = kind
        self.target = target
        self.args = args
        self.span = span


class ContractSpec(Record):
    __slots__ = ("results", "fn_name", "param_names", "ghost_params",
                 "requires", "ensures", "span")

    def __init__(self, results: list[str], fn_name: str,
                 param_names: list[str],
                 ghost_params: list[tuple[str, SurfaceType]],
                 requires: list[Assertion], ensures: list[Assertion],
                 span: int | None = None):
        self.results = results
        self.fn_name = fn_name
        self.param_names = param_names
        self.ghost_params = ghost_params
        self.requires = requires
        self.ensures = ensures
        self.span = span


class PredicateDef(Record):
    __slots__ = ("name", "params", "body", "span")

    def __init__(self, name: str, params: list[tuple[str, SurfaceType]],
                 body: Assertion, span: int | None = None):
        self.name = name
        self.params = params
        self.body = body
        self.span = span


class LogicalFunctionDef(Record):
    __slots__ = ("name", "params", "ret", "body", "span")

    def __init__(self, name: str, params: list[tuple[str, SurfaceType]],
                 ret: SurfaceType, body: SurfaceExpr,
                 span: int | None = None):
        self.name = name
        self.params = params
        self.ret = ret
        self.body = body
        self.span = span


class LemmaDef(Record):
    __slots__ = ("name", "params", "requires", "ensures", "span")

    def __init__(self, name: str, params: list[tuple[str, SurfaceType]],
                 requires: list[Assertion], ensures: list[Assertion],
                 span: int | None = None):
        self.name = name
        self.params = params
        self.requires = requires
        self.ensures = ensures
        self.span = span


AnnotationPayload = (ContractSpec | PredicateDef | LogicalFunctionDef
                     | LemmaDef | GhostCommand)


# --------------------------------------------------------------------------
# declarations

class FieldDef(Record):
    __slots__ = ("name", "typ", "mutable", "span")

    def __init__(self, name: str, typ: SurfaceType, mutable: bool,
                 span: int | None = None):
        self.name = name
        self.typ = typ
        self.mutable = mutable
        self.span = span


class RecordKind(Record):
    __slots__ = ("fields",)

    def __init__(self, fields: list[FieldDef]):
        self.fields = fields


class CtorDef(Record):
    __slots__ = ("name", "payload", "span")

    def __init__(self, name: str, payload: list[FieldDef],
                 span: int | None = None):
        self.name = name
        self.payload = payload  # empty for nullary constructors
        self.span = span


class VariantKind(Record):
    __slots__ = ("ctors",)

    def __init__(self, ctors: list[CtorDef]):
        self.ctors = ctors


class TypeDecl(Record):
    __slots__ = ("name", "kind", "span")

    def __init__(self, name: str, kind: RecordKind | VariantKind,
                 span: int | None = None):
        self.name = name
        self.kind = kind
        self.span = span


class FunDecl(Record):
    __slots__ = ("name", "params", "ret", "body", "spec", "span")

    def __init__(self, name: str, params: list[tuple[str, SurfaceType]],
                 ret: SurfaceType | None, body: SurfaceExpr | GhostCommand,
                 spec: ContractSpec | None = None, span: int | None = None):
        self.name = name
        self.params = params
        self.ret = ret  # None means unit
        self.body = body
        self.spec = spec
        self.span = span


SurfaceDecl = (TypeDecl | FunDecl | PredicateDef | LogicalFunctionDef
               | LemmaDef)


class SurfaceModule(Record, uncompared=("ghosts",)):
    __slots__ = ("decls", "ghosts", "unparsed")

    def __init__(self, decls: list[SurfaceDecl], ghosts: list[GhostCommand],
                 unparsed: dict[str, str]):
        self.decls = decls
        # the ghost commands of the function bodies, in source order; they
        # are compared as part of the bodies
        self.ghosts = ghosts
        # name -> keyword ("predicate", "function" or "lemma") of each
        # declaration whose annotation did not parse, and so is not in decls
        self.unparsed = unparsed
