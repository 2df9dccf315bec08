"""Surface AST: OCaml-light declarations plus Gospel annotation payloads.

Every node is a `Record`: a plain class with `__slots__`, and the
abstract bases declare no slots, so a node has no `__dict__`: it is
smaller and cheaper to build, and no stage can hang an undeclared
attribute on it.  Its constructor takes the slots in order, with the
defaults its class header names (`span=None` on each node that has a
span); equality and repr are those a dataclass would give.  A node's
`span` is the source offset of its first character, an `int` or None (see
`diagnostics`); spans never participate in structural equality, so tests
can build expected trees without positions.
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

    def __hash__(self) -> int:
        return hash((self.name,))


# --------------------------------------------------------------------------
# expressions (shared by program code and specification terms)

class SurfaceExpr(Record):
    __slots__ = ()


class IntLit(SurfaceExpr, span=None):
    __slots__ = ("value", "span")


class BoolLit(SurfaceExpr, span=None):
    __slots__ = ("value", "span")


class UnitLit(SurfaceExpr, span=None):
    __slots__ = ("span",)


class VarE(SurfaceExpr, span=None):
    __slots__ = ("name", "span")


class FieldE(SurfaceExpr, span=None):
    __slots__ = ("base", "fieldname", "span")


class CtorE(SurfaceExpr, span=None):
    """A bare constructor value, e.g. Nil."""
    __slots__ = ("name", "span")


class RecordAlloc(SurfaceExpr, span=None):
    """A record literal, optionally prefixed by a constructor name."""
    __slots__ = ("ctor", "inits", "span")


class AppE(SurfaceExpr, ghost_args=[], span=None):
    """Application of a named head: builtin, predicate, function or lemma."""
    __slots__ = ("fn", "args", "ghost_args", "span")


class BinE(SurfaceExpr, span=None):
    __slots__ = ("op", "left", "right", "span")


class UnE(SurfaceExpr, span=None):
    __slots__ = ("op", "operand", "span")


class IndexE(SurfaceExpr, span=None):
    __slots__ = ("seq", "index", "span")


class SliceFromE(SurfaceExpr, span=None):
    """v[k ..] : the suffix of v starting at k."""
    __slots__ = ("seq", "lo", "span")


class LetIn(SurfaceExpr, span=None):
    """`let name : typ = rhs in`, an item of its block: it binds `name`
    from the next item to the end of that block."""
    __slots__ = ("name", "typ", "rhs", "span")


class IfE(SurfaceExpr, span=None):
    __slots__ = ("cond", "then", "els", "span")


class MatchArm(Record, span=None):
    __slots__ = ("ctor", "binder", "body", "span")


class MatchE(SurfaceExpr, span=None):
    __slots__ = ("scrutinee", "arms", "span")


class AssignE(SurfaceExpr, span=None):
    __slots__ = ("target", "value", "span")


class SeqE(SurfaceExpr, span=None):
    """A block: a statement sequence, and the scope of the lets in it.
    Ghost commands are items too; the last item may be the result."""
    __slots__ = ("items", "span")


# --------------------------------------------------------------------------
# assertions

class Assertion(Record):
    __slots__ = ()


class PureA(Assertion, span=None):
    __slots__ = ("expr", "span")


class OwnsA(Assertion, span=None):
    """target ~> {f1; ...; fn}: whole permission to the listed fields."""
    __slots__ = ("target", "fields", "span")


class SepA(Assertion, span=None):
    """A && chain of two or more assertions, kept flat."""
    __slots__ = ("parts", "span")


class IfA(Assertion, span=None):
    __slots__ = ("cond", "then", "els", "span")


class LetPatA(Assertion, span=None):
    """let C b = scrutinee in body, destructing a payload constructor."""
    __slots__ = ("ctor", "binder", "scrutinee", "body", "span")


# --------------------------------------------------------------------------
# annotation payloads

class GhostKind(Enum):
    FOLD = "fold"
    UNFOLD = "unfold"
    APPLY = "apply"


class GhostCommand(Record, span=None):
    __slots__ = ("kind", "target", "args", "span")


class ContractSpec(Record, span=None):
    __slots__ = ("results", "fn_name", "param_names", "ghost_params",
                 "requires", "ensures", "span")


class PredicateDef(Record, span=None):
    __slots__ = ("name", "params", "body", "span")


class LogicalFunctionDef(Record, span=None):
    __slots__ = ("name", "params", "ret", "body", "span")


class LemmaDef(Record, span=None):
    __slots__ = ("name", "params", "requires", "ensures", "span")


AnnotationPayload = (ContractSpec | PredicateDef | LogicalFunctionDef
                     | LemmaDef | GhostCommand)


# --------------------------------------------------------------------------
# declarations

class FieldDef(Record, span=None):
    __slots__ = ("name", "typ", "mutable", "span")


class RecordKind(Record):
    __slots__ = ("fields",)


class CtorDef(Record, span=None):
    __slots__ = ("name",
                 "payload",  # empty for nullary constructors
                 "span")


class VariantKind(Record):
    __slots__ = ("ctors",)


class TypeDecl(Record, span=None):
    __slots__ = ("name", "kind", "span")


class FunDecl(Record, spec=None, span=None):
    __slots__ = ("name", "params",
                 "ret",  # None means unit
                 "body", "spec", "span")


SurfaceDecl = (TypeDecl | FunDecl | PredicateDef | LogicalFunctionDef
               | LemmaDef)


class SurfaceModule(Record, uncompared=("ghosts",)):
    __slots__ = (
        "decls",
        # the ghost commands of the function bodies, in source order; they
        # are compared as part of the bodies
        "ghosts",
        # name -> keyword ("predicate", "function" or "lemma") of each
        # declaration whose annotation did not parse, and so is not in decls
        "unparsed",
    )
