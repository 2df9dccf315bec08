"""Surface AST: OCaml-light declarations plus Gospel annotation payloads.

Every node is a slots dataclass and the abstract bases declare no slots,
so a node has no `__dict__`: it is smaller and cheaper to build, and no
stage can hang an undeclared attribute on it.  Span fields never
participate in structural equality, so tests can build expected trees
without positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .diagnostics import Span


def _span():
    return field(default=None, compare=False, repr=False)


# --------------------------------------------------------------------------
# types

class SurfaceType:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class IntT(SurfaceType):
    pass


@dataclass(frozen=True, slots=True)
class BoolT(SurfaceType):
    pass


@dataclass(frozen=True, slots=True)
class SeqT(SurfaceType):
    """Integer sequences; the only sequence element type in the subset."""


@dataclass(frozen=True, slots=True)
class NamedT(SurfaceType):
    name: str


# --------------------------------------------------------------------------
# expressions (shared by program code and specification terms)

class SurfaceExpr:
    __slots__ = ()


@dataclass(slots=True)
class IntLit(SurfaceExpr):
    value: int
    span: Span | None = _span()


@dataclass(slots=True)
class BoolLit(SurfaceExpr):
    value: bool
    span: Span | None = _span()


@dataclass(slots=True)
class UnitLit(SurfaceExpr):
    span: Span | None = _span()


@dataclass(slots=True)
class VarE(SurfaceExpr):
    name: str
    span: Span | None = _span()


@dataclass(slots=True)
class FieldE(SurfaceExpr):
    base: SurfaceExpr
    fieldname: str
    span: Span | None = _span()


@dataclass(slots=True)
class CtorE(SurfaceExpr):
    """A bare constructor value, e.g. Nil."""
    name: str
    span: Span | None = _span()


@dataclass(slots=True)
class RecordAlloc(SurfaceExpr):
    """A record literal, optionally prefixed by a constructor name."""
    ctor: str | None
    inits: list[tuple[str, SurfaceExpr]]
    span: Span | None = _span()


@dataclass(slots=True)
class AppE(SurfaceExpr):
    """Application of a named head: builtin, predicate, function or lemma."""
    fn: str
    args: list[SurfaceExpr]
    ghost_args: list[SurfaceExpr] = field(default_factory=list)
    span: Span | None = _span()


@dataclass(slots=True)
class BinE(SurfaceExpr):
    op: str
    left: SurfaceExpr
    right: SurfaceExpr
    span: Span | None = _span()


@dataclass(slots=True)
class UnE(SurfaceExpr):
    op: str
    operand: SurfaceExpr
    span: Span | None = _span()


@dataclass(slots=True)
class IndexE(SurfaceExpr):
    seq: SurfaceExpr
    index: SurfaceExpr
    span: Span | None = _span()


@dataclass(slots=True)
class SliceFromE(SurfaceExpr):
    """v[k ..] : the suffix of v starting at k."""
    seq: SurfaceExpr
    lo: SurfaceExpr
    span: Span | None = _span()


@dataclass(slots=True)
class LetIn(SurfaceExpr):
    """`let name : typ = rhs in`, an item of its block: it binds `name`
    from the next item to the end of that block."""
    name: str
    typ: SurfaceType | None
    rhs: SurfaceExpr
    span: Span | None = _span()


@dataclass(slots=True)
class IfE(SurfaceExpr):
    cond: SurfaceExpr
    then: SurfaceExpr
    els: SurfaceExpr | None
    span: Span | None = _span()


@dataclass(slots=True)
class MatchArm:
    ctor: str
    binder: str | None
    body: SurfaceExpr | GhostCommand
    span: Span | None = _span()


@dataclass(slots=True)
class MatchE(SurfaceExpr):
    scrutinee: SurfaceExpr
    arms: list[MatchArm]
    span: Span | None = _span()


@dataclass(slots=True)
class AssignE(SurfaceExpr):
    target: FieldE
    value: SurfaceExpr
    span: Span | None = _span()


@dataclass(slots=True)
class SeqE(SurfaceExpr):
    """A block: a statement sequence, and the scope of the lets in it.
    Ghost commands are items too; the last item may be the result."""
    items: list[SurfaceExpr | GhostCommand]
    span: Span | None = _span()


# --------------------------------------------------------------------------
# assertions

class Assertion:
    __slots__ = ()


@dataclass(slots=True)
class PureA(Assertion):
    expr: SurfaceExpr
    span: Span | None = _span()


@dataclass(slots=True)
class OwnsA(Assertion):
    """target ~> {f1; ...; fn}: whole permission to the listed fields."""
    target: SurfaceExpr
    fields: list[str]
    span: Span | None = _span()


@dataclass(slots=True)
class SepA(Assertion):
    """A && chain of two or more assertions, kept flat."""
    parts: list[Assertion]
    span: Span | None = _span()


@dataclass(slots=True)
class IfA(Assertion):
    cond: SurfaceExpr
    then: Assertion
    els: Assertion
    span: Span | None = _span()


@dataclass(slots=True)
class LetPatA(Assertion):
    """let C b = scrutinee in body, destructing a payload constructor."""
    ctor: str
    binder: str
    scrutinee: SurfaceExpr
    body: Assertion
    span: Span | None = _span()


# --------------------------------------------------------------------------
# annotation payloads

class GhostKind(Enum):
    FOLD = "fold"
    UNFOLD = "unfold"
    APPLY = "apply"


@dataclass(slots=True)
class GhostCommand:
    kind: GhostKind
    target: str
    args: list[SurfaceExpr]
    span: Span | None = _span()


@dataclass(slots=True)
class ContractSpec:
    results: list[str]
    fn_name: str
    param_names: list[str]
    ghost_params: list[tuple[str, SurfaceType]]
    requires: list[Assertion]
    ensures: list[Assertion]
    span: Span | None = _span()


@dataclass(slots=True)
class PredicateDef:
    name: str
    params: list[tuple[str, SurfaceType]]
    body: Assertion
    span: Span | None = _span()


@dataclass(slots=True)
class LogicalFunctionDef:
    name: str
    params: list[tuple[str, SurfaceType]]
    ret: SurfaceType
    body: SurfaceExpr
    span: Span | None = _span()


@dataclass(slots=True)
class LemmaDef:
    name: str
    params: list[tuple[str, SurfaceType]]
    requires: list[Assertion]
    ensures: list[Assertion]
    span: Span | None = _span()


AnnotationPayload = (ContractSpec | PredicateDef | LogicalFunctionDef
                     | LemmaDef | GhostCommand)


# --------------------------------------------------------------------------
# declarations

@dataclass(slots=True)
class FieldDef:
    name: str
    typ: SurfaceType
    mutable: bool
    span: Span | None = _span()


@dataclass(slots=True)
class RecordKind:
    fields: list[FieldDef]


@dataclass(slots=True)
class CtorDef:
    name: str
    payload: list[FieldDef]  # empty for nullary constructors
    span: Span | None = _span()


@dataclass(slots=True)
class VariantKind:
    ctors: list[CtorDef]


@dataclass(slots=True)
class TypeDecl:
    name: str
    kind: RecordKind | VariantKind
    span: Span | None = _span()


@dataclass(slots=True)
class FunDecl:
    name: str
    params: list[tuple[str, SurfaceType]]
    ret: SurfaceType | None  # None means unit
    body: SurfaceExpr | GhostCommand
    spec: ContractSpec | None = None
    span: Span | None = _span()


@dataclass(slots=True)
class GhostDecl:
    payload: PredicateDef | LogicalFunctionDef | LemmaDef
    span: Span | None = _span()


SurfaceDecl = TypeDecl | FunDecl | GhostDecl


@dataclass(slots=True)
class SurfaceModule:
    decls: list[SurfaceDecl]

    def predicates(self) -> dict[str, PredicateDef]:
        return {d.payload.name: d.payload for d in self.decls
                if isinstance(d, GhostDecl) and isinstance(d.payload, PredicateDef)}

    def lemmas(self) -> dict[str, LemmaDef]:
        return {d.payload.name: d.payload for d in self.decls
                if isinstance(d, GhostDecl) and isinstance(d.payload, LemmaDef)}

    def logical_functions(self) -> dict[str, LogicalFunctionDef]:
        return {d.payload.name: d.payload for d in self.decls
                if isinstance(d, GhostDecl)
                and isinstance(d.payload, LogicalFunctionDef)}

    def functions(self) -> dict[str, FunDecl]:
        return {d.name: d for d in self.decls if isinstance(d, FunDecl)}

    def types(self) -> dict[str, TypeDecl]:
        return {d.name: d for d in self.decls if isinstance(d, TypeDecl)}
