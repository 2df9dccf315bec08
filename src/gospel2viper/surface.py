"""Surface AST: OCaml-light declarations plus Gospel annotation payloads.

Span fields never participate in structural equality, so tests can build
expected trees without positions.
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
    pass


@dataclass(frozen=True)
class IntT(SurfaceType):
    pass


@dataclass(frozen=True)
class BoolT(SurfaceType):
    pass


@dataclass(frozen=True)
class SeqT(SurfaceType):
    """Integer sequences; the only sequence element type in the subset."""


@dataclass(frozen=True)
class NamedT(SurfaceType):
    name: str


# --------------------------------------------------------------------------
# expressions (shared by program code and specification terms)

class SurfaceExpr:
    pass


@dataclass
class IntLit(SurfaceExpr):
    value: int
    span: Span | None = _span()


@dataclass
class BoolLit(SurfaceExpr):
    value: bool
    span: Span | None = _span()


@dataclass
class UnitLit(SurfaceExpr):
    span: Span | None = _span()


@dataclass
class VarE(SurfaceExpr):
    name: str
    span: Span | None = _span()


@dataclass
class FieldE(SurfaceExpr):
    base: SurfaceExpr
    fieldname: str
    span: Span | None = _span()


@dataclass
class CtorE(SurfaceExpr):
    """A bare constructor value, e.g. Nil."""
    name: str
    span: Span | None = _span()


@dataclass
class RecordAlloc(SurfaceExpr):
    """A record literal, optionally prefixed by a constructor name."""
    ctor: str | None
    inits: list[tuple[str, SurfaceExpr]]
    span: Span | None = _span()


@dataclass
class AppE(SurfaceExpr):
    """Application of a named head: builtin, predicate, function or lemma."""
    fn: str
    args: list[SurfaceExpr]
    ghost_args: list[SurfaceExpr] = field(default_factory=list)
    span: Span | None = _span()


@dataclass
class BinE(SurfaceExpr):
    op: str
    left: SurfaceExpr
    right: SurfaceExpr
    span: Span | None = _span()


@dataclass
class UnE(SurfaceExpr):
    op: str
    operand: SurfaceExpr
    span: Span | None = _span()


@dataclass
class IndexE(SurfaceExpr):
    seq: SurfaceExpr
    index: SurfaceExpr
    span: Span | None = _span()


@dataclass
class SliceFromE(SurfaceExpr):
    """v[k ..] : the suffix of v starting at k."""
    seq: SurfaceExpr
    lo: SurfaceExpr
    span: Span | None = _span()


@dataclass
class LetIn(SurfaceExpr):
    """`let name : typ = rhs in`, an item of its block: it binds `name`
    from the next item to the end of that block."""
    name: str
    typ: SurfaceType | None
    rhs: SurfaceExpr
    span: Span | None = _span()


@dataclass
class IfE(SurfaceExpr):
    cond: SurfaceExpr
    then: SurfaceExpr
    els: SurfaceExpr | None
    span: Span | None = _span()


@dataclass
class MatchArm:
    ctor: str
    binder: str | None
    body: SurfaceExpr | GhostCommand
    span: Span | None = _span()


@dataclass
class MatchE(SurfaceExpr):
    scrutinee: SurfaceExpr
    arms: list[MatchArm]
    span: Span | None = _span()


@dataclass
class AssignE(SurfaceExpr):
    target: FieldE
    value: SurfaceExpr
    span: Span | None = _span()


@dataclass
class SeqE(SurfaceExpr):
    """A block: a statement sequence, and the scope of the lets in it.
    Ghost commands are items too; the last item may be the result."""
    items: list[SurfaceExpr | GhostCommand]
    span: Span | None = _span()


# --------------------------------------------------------------------------
# assertions

class Assertion:
    pass


@dataclass
class PureA(Assertion):
    expr: SurfaceExpr
    span: Span | None = _span()


@dataclass
class OwnsA(Assertion):
    """target ~> {f1; ...; fn}: whole permission to the listed fields."""
    target: SurfaceExpr
    fields: list[str]
    span: Span | None = _span()


@dataclass
class SepA(Assertion):
    """A && chain of two or more assertions, kept flat."""
    parts: list[Assertion]
    span: Span | None = _span()


@dataclass
class IfA(Assertion):
    cond: SurfaceExpr
    then: Assertion
    els: Assertion
    span: Span | None = _span()


@dataclass
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


@dataclass
class GhostCommand:
    kind: GhostKind
    target: str
    args: list[SurfaceExpr]
    span: Span | None = _span()


@dataclass
class ContractSpec:
    results: list[str]
    fn_name: str
    param_names: list[str]
    ghost_params: list[tuple[str, SurfaceType]]
    requires: list[Assertion]
    ensures: list[Assertion]
    span: Span | None = _span()


@dataclass
class PredicateDef:
    name: str
    params: list[tuple[str, SurfaceType]]
    body: Assertion
    span: Span | None = _span()


@dataclass
class LogicalFunctionDef:
    name: str
    params: list[tuple[str, SurfaceType]]
    ret: SurfaceType
    body: SurfaceExpr
    span: Span | None = _span()


@dataclass
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

@dataclass
class FieldDef:
    name: str
    typ: SurfaceType
    mutable: bool
    span: Span | None = _span()


@dataclass
class RecordKind:
    fields: list[FieldDef]


@dataclass
class CtorDef:
    name: str
    payload: list[FieldDef]  # empty for nullary constructors
    span: Span | None = _span()


@dataclass
class VariantKind:
    ctors: list[CtorDef]


@dataclass
class TypeDecl:
    name: str
    kind: RecordKind | VariantKind
    span: Span | None = _span()


@dataclass
class FunDecl:
    name: str
    params: list[tuple[str, SurfaceType]]
    ret: SurfaceType | None  # None means unit
    body: SurfaceExpr | GhostCommand
    spec: ContractSpec | None = None
    span: Span | None = _span()


@dataclass
class GhostDecl:
    payload: PredicateDef | LogicalFunctionDef | LemmaDef
    span: Span | None = _span()


SurfaceDecl = TypeDecl | FunDecl | GhostDecl


@dataclass
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
