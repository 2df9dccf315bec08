"""Symbolic permission accounting for translated programs, without a solver.

The checker walks each method body over a set of symbolic states.  A
state is a heap of held cells, a multiset of folded predicate instances,
an ordered table of assumed boolean facts, the local store, and an
equality substitution used to propagate facts like `q.length == 0` into
later queries.  As in Viper's heap chunks, a cell `(receiver, field) ->
value` is both the value and the whole permission to it: a location is
held exactly when it is a key of the heap.

A three-valued `decide` settles guards: literal after normalization,
assumed in the fact table, or unknown.  Producing a conditional
assertion with an unknown guard forks the state; consuming one reports an
undecidable branch instead, because exhaling must pick a side.  Predicate
instances never unroll on their own: `fold P(a)` consumes the body and
produces the instance, `unfold P(a)` consumes the instance and produces
the body, so an instance is added only by `produce` and removed only by
`consume`.

An `if` with an unknown guard `c` runs both sides, then joins them into
one state when each side ends in one state whose facts are the facts
before the `if` plus its guard, and the two agree on the substitution,
the instances and the heap and store keys, differing only in the values
of Int or Bool fields and locals.  Each differing value becomes
`ite(c, then's, else's)` and the guard leaves the facts, since `c || !c`
holds.  A joined Ref would match no held cell, so Ref values are never
joined.  Otherwise both states go on, and past MAX_PATHS states the
excess is dropped with a warning (an error under `strict`).  A chain of K
joins costs time linear in K, not 2^K paths.

The state records the guards of its joins.  A consumed condition that the
joined state leaves undecided is decided on each side of a join whose
guard it mentions, with that join's ites resolved and the guard or its
negation assumed, down to MAX_PATHS sides; false on any side is false,
as on the two paths the join replaced.  When a conditional assertion
takes a different branch on each side, the consuming step (a fold, a
call, the postcondition) runs on each side instead.

Normalization evaluates the sequence helpers (`drop_last`, `take_last`)
and all sequence/arithmetic/constructor operators on literal operands,
so programs over concrete sequences are fully decidable.  An operator
applied to an `ite` whose arms are literals is lifted over it, so that
`ite(c, 1, 2) > 0` folds to true; `ite(c, true, false)` is `c`.

Terms are hash-consed (Filliâtre and Conchon, "Type-Safe Modular
Hash-Consing"): `Lit`, `Ctor`, `SeqV` and `App` are built through one
table, `_TERMS`, keyed by class and fields, so equal terms are one object
that hashes and compares by identity, in C.  A symbol is an `int`, its
id, so it too hashes and compares in C.  Symbol ids restart in every
method and a symbol's hint takes no part in equality, so the table hands
out a term only when its children are the very objects asked for: a term
that outlives its method never stands in for one over another method's
symbols.  The table holds its terms by weak references whose callback
removes the entry, so it keeps no term alive: a term leaves the table
when nothing else refers to it.  Every checker in the process shares the
table, which takes no lock: checkers run in one thread.

A value that K joins built is a term of K levels that shares its
subterms; walked as a tree it has 2^K nodes.  So every walk over terms
visits each node once: the arguments of `==`, `&&` and `||` are sorted by
a structural key cached on each compound term (`_key`), not by `repr`;
the occurs check remembers the nodes it saw; and normalising an unchanged
term returns the term itself, as interning must, so the sharing survives.
Diagnostics print an ite nested in two others as "...".

A statement costs a few calls per node of its expressions.  `eval`,
`_produce`, `_consume` and `exec_stmt` each find the handler for a node's
class in one table (`_EVAL`, `_PRODUCE`, `_CONSUME`, `_EXEC`).  A field
read normalises its receiver once, for the permission probe and the heap
read alike.  `_simplify` tries the arithmetic operators first, and lifts
an operator over an `ite` only in a method that has built one.

Each term is normalised once per substitution: `norm` first probes the
state's `memo`, for every kind of term, so a term already normalised costs
one dict probe.  It memoises a symbol too (an unbound one to itself), and
a normal form to itself; clones share the memo, and a binding starts a
fresh one, so it lives only as long as the states that use it.
Every heap key, instance argument and fact of a state is in normal form
under the state's own substitution, as in Smallfoot's symbolic heaps.
`Checker._bind` alone grows the substitution, and it restores that
invariant: it renormalises the facts, and the stored keys when one
mentions the bound symbol.  So a lookup is one probe of the normalised
key, and `decide` finds a fact without normalising the table again.

On a failed access the checker reports once and then repairs the state
(adds the missing cell or carries on past the missing instance) so one
mistake does not cascade into a wall of noise.
"""

from __future__ import annotations

import itertools
import operator
import weakref
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

from . import viper_ast as V
from .diagnostics import (Category, Diagnostic, Severity, error, obligation,
                          warning)

MAX_PATHS = 32
_SCALAR = frozenset({"Int", "Bool"})  # types whose values a join merges

# -- symbolic values -----------------------------------------------------------


class SymVal:
    __slots__ = ()


class Sym(int, SymVal):
    """A symbol, equal to its id as an `int`, so it hashes and compares in
    C, without a Python frame, and its hash does not depend on the hash
    seed.  `hint` names it in diagnostics and takes no part in equality."""

    def __new__(cls, id: int, hint: str = ""):
        s = super().__new__(cls, id)
        s.id, s.hint = int(id), hint
        return s

    def __repr__(self) -> str:
        return f"Sym(id={self.id})"


class _Ref(weakref.ref):
    """An entry of `_TERMS`: a weak reference to a term and its key."""
    __slots__ = ("key",)


_TERMS: dict = {}  # {(class, fields...): _Ref(term)}


def _forget(ref: _Ref, terms: dict = _TERMS) -> None:
    """Drop the entry of a term that died, unless a newer term took its
    key (see `_live`)."""
    if terms.get(ref.key) is ref:
        del terms[ref.key]


def _live(key: tuple):
    """The live term interned under `key` whose children (the last field
    of a key) are the very objects in `key`, else None.  A symbol equals
    every symbol with its id and ids restart in every method, so a term
    that outlives its method must not stand in for one over the new
    method's symbols."""
    ref = _TERMS.get(key)
    if ref is not None:
        t = ref()
        if t is not None and all(map(operator.is_, ref.key[-1], key[-1])):
            return t
    return None


def _intern(t: SymVal, key: tuple) -> None:
    ref = _Ref(t, _forget)
    ref.key = key
    _TERMS[key] = ref


class Lit(SymVal):
    """An int or bool literal.  1 and True are different literals: equal
    terms must render alike."""
    __slots__ = ("value", "__weakref__")

    def __new__(cls, value):
        key = (cls, value, type(value))
        ref = _TERMS.get(key)
        t = None if ref is None else ref()
        if t is None:
            t = object.__new__(cls)
            t.value = value
            _intern(t, key)
        return t

    def __repr__(self) -> str:
        return f"Lit({self.value!r})"


class _Node(SymVal):
    """A compound term `name(args)`; `sortkey` caches `_key`."""
    __slots__ = ("name", "args", "sortkey", "__weakref__")

    def __new__(cls, name: str, args: tuple = ()):
        key = (cls, name, args)
        t = _live(key)
        if t is None:
            t = object.__new__(cls)
            t.name, t.args, t.sortkey = name, args, None
            _intern(t, key)
        return t

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, {self.args!r})"


class Ctor(_Node):
    """A constructor of an ADT applied to its payload."""
    __slots__ = ()


class App(_Node):
    """An operator or function applied to its arguments."""
    __slots__ = ()


class SeqV(SymVal):
    """A literal sequence."""
    __slots__ = ("elems", "sortkey", "__weakref__")

    def __new__(cls, elems: tuple = ()):
        key = (cls, elems)
        t = _live(key)
        if t is None:
            t = object.__new__(cls)
            t.elems, t.sortkey = elems, None
            _intern(t, key)
        return t

    def __repr__(self) -> str:
        return f"SeqV({self.elems!r})"


TRUE = Lit(True)
FALSE = Lit(False)


def _key(v: SymVal) -> tuple:
    """A structural sort key, total on terms and cached on compound ones.

    It orders the arguments of commutative operators.  Unlike `repr`, it
    costs one step per distinct node of a shared term, and it uses no
    `hash()`, so the order does not depend on the hash seed.  The ranks
    follow the class names, as the order by `repr` did."""
    if isinstance(v, Sym):
        return (4, v.id)
    if isinstance(v, Lit):
        return (2, type(v.value).__name__, v.value)
    k = v.sortkey
    if k is None:
        if isinstance(v, SeqV):
            k = (3, "", tuple(map(_key, v.elems)))
        else:
            k = (0 if isinstance(v, App) else 1, v.name,
                 tuple(map(_key, v.args)))
        v.sortkey = k
    return k


_ITE_DEPTH = 2  # sym_str prints an ite inside this many ites as "..."


def sym_str(v: SymVal, ites: int = 0) -> str:
    """`v` for a diagnostic; `ites` counts the ites around it.

    A value that K joins built nests K ites that share their arms, so
    printed in full it is 2^K long: past `_ITE_DEPTH` an ite is "..."."""
    if isinstance(v, Sym):
        return v.hint if v.hint else f"_{v.id}"
    if isinstance(v, Lit):
        if isinstance(v.value, bool):
            return "true" if v.value else "false"
        return str(v.value)
    if isinstance(v, SeqV):
        if not v.elems:
            return "Seq[Int]()"
        return "Seq(" + ", ".join(sym_str(a, ites) for a in v.elems) + ")"
    if isinstance(v, App) and v.name == "ite":
        if ites >= _ITE_DEPTH:
            return "..."
        ites += 1
    if isinstance(v, App) and _infix(v):
        prec = V._PREC[v.name]
        return f" {v.name} ".join(
            f"({sym_str(a, ites)})" if _infix(a) and V._PREC[a.name] <= prec
            else sym_str(a, ites) for a in v.args)
    if isinstance(v, (Ctor, App)):
        return f"{v.name}(" + ", ".join(sym_str(a, ites) for a in v.args) + ")"
    raise TypeError(type(v).__name__)


def _infix(v: SymVal) -> bool:
    return isinstance(v, App) and v.name in V._PREC and len(v.args) > 1


# -- symbolic state --------------------------------------------------------------


@dataclass
class SymState:
    # the held cells: a key is a whole permission, its value the field's
    heap: dict = field(default_factory=dict)  # {(recv, field): SymVal}
    preds: Counter = field(default_factory=Counter)  # {(name, args): n}
    # the assumed facts, in normal form, in the order they were assumed;
    # FALSE if the state is infeasible
    facts: dict = field(default_factory=dict)  # {bool SymVal: None}
    store: dict = field(default_factory=dict)  # {var: SymVal}
    subst: dict = field(default_factory=dict)  # {sym id: SymVal}
    # {term: normal form} under subst, replaced as subst grows
    memo: dict = field(default_factory=dict, compare=False, repr=False)
    joins: tuple = ()  # the guards of the joins whose ites values hold

    def clone(self) -> "SymState":
        return SymState(dict(self.heap), Counter(self.preds),
                        dict(self.facts), dict(self.store), dict(self.subst),
                        self.memo, self.joins)


class _Unjoin(Exception):
    """A consume must pick a different branch on each side of the join on
    `guard`; `Checker._split_run` catches it and splits the state."""

    def __init__(self, guard: SymVal):
        super().__init__(guard)
        self.guard = guard


class _Mode(Enum):
    EXEC = "exec"  # reads require permission, writes go to the live heap
    CONSUME = "consume"  # reads hit a frozen snapshot, no permission needed
    PRODUCE = "produce"  # reads prefer live heap, unframed reads get a cache


@dataclass
class _ConsumeCtx:
    """What a failed consume should be reported as."""
    pred_category: Category
    what: object  # printed by str(): "postcondition of m", or a _FoldName


@dataclass
class _FoldName:
    """`fold P(args)`, rendered only when a diagnostic prints it: most
    folds never fail."""
    pred: V.PredApp

    def __str__(self) -> str:
        call = V.FunApp(self.pred.name, self.pred.args)
        return f"fold {V.expr_str(call)}"


# -- checker ------------------------------------------------------------------------


class Checker:
    def __init__(self, program: V.ViperProgram, strict: bool = False):
        self.program = program
        self.strict = strict
        self.predicates = program.predicates()
        self.methods = program.methods()
        self.fields = set(program.fields())
        # joins may merge values of these fields and locals (see _join)
        self.scalar_fields = {n for n, d in program.fields().items()
                              if d.typ.name in _SCALAR}
        self.scalar_locals: set[str] = set()
        self.projections: dict[str, str] = {}  # proj name -> ctor name
        self.ctor_params: dict[str, list[str]] = {}
        self.siblings: dict[str, list[str]] = {}  # ctor -> all ctors of adt
        for adt in program.adts().values():
            names = [c.name for c in adt.ctors]
            for c in adt.ctors:
                self.ctor_params[c.name] = [p for p, _ in c.params]
                self.siblings[c.name] = names
                for p, _ in c.params:
                    self.projections[p] = c.name
        self._ids = itertools.count()
        self.diags: list[Diagnostic] = []
        self._splits = 0  # sides a consume may still split into (_Unjoin)
        self._ites = False  # whether _simplify has built an ite (_lifted)

    def fresh(self, hint: str = "") -> Sym:
        return Sym(next(self._ids), hint)

    # -- normalization ------------------------------------------------------

    def norm(self, v: SymVal, st: SymState) -> SymVal:
        memo = st.memo
        n = memo.get(v)
        if n is not None:
            return n
        cls = type(v)
        if cls is App:
            n = self._simplify(v.name, tuple([self.norm(a, st)
                                              for a in v.args]))
        elif cls is Sym:
            repl = st.subst.get(v)
            n = v if repl is None else self.norm(repl, st)
        elif cls is Lit:
            n = v
        elif cls is Ctor:
            n = Ctor(v.name, tuple([self.norm(a, st) for a in v.args]))
        elif cls is SeqV:
            n = SeqV(tuple([self.norm(a, st) for a in v.elems]))
        else:
            raise TypeError(cls.__name__)
        memo[v] = n
        if n is not v:
            memo[n] = n  # a normal form is its own
        return n

    def _simplify(self, name: str, args: tuple) -> SymVal:
        if name in ("+", "-", "*", "/"):
            a, b = args
            if not (isinstance(a, Lit) and isinstance(a.value, int)
                    and isinstance(b, Lit) and isinstance(b.value, int)):
                return self._lifted(name, args)
            a, b = a.value, b.value
            if name == "+":
                return Lit(a + b)
            if name == "-":
                return Lit(a - b)
            if name == "*":
                return Lit(a * b)
            if b == 0:
                return App(name, args)
            q = abs(a) // abs(b)  # truncating division
            return Lit(q if (a < 0) == (b < 0) else -q)
        if name == "++":
            return self._concat(args)
        if name == "len" and isinstance(args[0], SeqV):
            return Lit(len(args[0].elems))
        if name == "index" and isinstance(args[0], SeqV):
            idx = args[1]
            if isinstance(idx, Lit) and isinstance(idx.value, int):
                if 0 <= idx.value < len(args[0].elems):
                    return args[0].elems[idx.value]
        if name == "drop" and isinstance(args[0], SeqV):
            k = args[1]
            if isinstance(k, Lit) and isinstance(k.value, int):
                return SeqV(args[0].elems[max(k.value, 0):])
        if name == "take" and isinstance(args[0], SeqV):
            k = args[1]
            if isinstance(k, Lit) and isinstance(k.value, int):
                return SeqV(args[0].elems[:max(k.value, 0)])
        if name in ("drop_last", "take_last") and isinstance(args[0], SeqV):
            elems = args[0].elems
            if elems:
                return SeqV(elems[:-1] if name == "drop_last" else elems[-1:])
        if name == "neg" and isinstance(args[0], Lit) \
                and isinstance(args[0].value, int):
            return Lit(-args[0].value)
        if name in ("<", "<=", ">", ">=") and all(
                isinstance(a, Lit) and isinstance(a.value, int)
                for a in args):
            a, b = args[0].value, args[1].value
            return Lit({"<": a < b, "<=": a <= b,
                        ">": a > b, ">=": a >= b}[name])
        if name == "==":
            return self._norm_eq(args[0], args[1])
        if name == "!=":
            return self._simplify("not", (self._norm_eq(args[0], args[1]),))
        if name == "not":
            (a,) = args
            if isinstance(a, Lit):
                return Lit(not a.value)
            if isinstance(a, App) and a.name == "not":
                return a.args[0]
            return App("not", args)
        if name == "&&":
            parts = []
            for a in _flat(args, "&&"):
                if a == FALSE:
                    return FALSE
                if a != TRUE and a not in parts:
                    parts.append(a)
            if not parts:
                return TRUE
            if len(parts) == 1:
                return parts[0]
            return App("&&", tuple(sorted(parts, key=_key)))
        if name == "||":
            parts = []
            for a in _flat(args, "||"):
                if a == TRUE:
                    return TRUE
                if a != FALSE and a not in parts:
                    parts.append(a)
            if not parts:
                return FALSE
            if len(parts) == 1:
                return parts[0]
            return App("||", tuple(sorted(parts, key=_key)))
        if name == "ite":
            cond, then, els = args
            if isinstance(cond, Lit):
                return then if cond.value else els
            if then == els:
                return then
            if then == TRUE and els == FALSE:
                return cond
            if then == FALSE and els == TRUE:
                return self._simplify("not", (cond,))
            self._ites = True
            return App(name, args)
        if name.startswith("is#"):
            ctor = name[3:]
            if isinstance(args[0], Ctor):
                return Lit(args[0].name == ctor)
        if name.startswith("proj#"):
            pname = name[5:]
            target = args[0]
            if isinstance(target, Ctor) and target.args:
                params = self.ctor_params.get(target.name, [])
                if pname in params:
                    return target.args[params.index(pname)]
        return self._lifted(name, args)

    def _lifted(self, name: str, args: tuple) -> SymVal:
        """`name(args)`, lifted over an argument that is an `ite` with
        literal arms, as a join leaves: `ite(c, 1, 2) > 0` folds to true.
        Every ite in a normal form was built by `_simplify`, so until it
        builds one there is none to look for."""
        if not self._ites:
            return App(name, args)
        for i, a in enumerate(args):
            if isinstance(a, App) and a.name == "ite" \
                    and isinstance(a.args[1], Lit) \
                    and isinstance(a.args[2], Lit):
                c, x, y = a.args
                return self._simplify("ite", (
                    c, self._simplify(name, args[:i] + (x,) + args[i + 1:]),
                    self._simplify(name, args[:i] + (y,) + args[i + 1:])))
        return App(name, args)

    def _concat(self, args: tuple) -> SymVal:
        parts: list[SymVal] = []
        for a in _flat(args, "++"):
            if isinstance(a, SeqV):
                if not a.elems:
                    continue
                if parts and isinstance(parts[-1], SeqV):
                    parts[-1] = SeqV(parts[-1].elems + a.elems)
                    continue
            parts.append(a)
        if not parts:
            return SeqV()
        if len(parts) == 1:
            return parts[0]
        return App("++", tuple(parts))

    def _norm_eq(self, a: SymVal, b: SymVal) -> SymVal:
        if a == b:
            return TRUE
        if isinstance(a, Lit) and isinstance(b, Lit):
            return Lit(a.value == b.value)
        if isinstance(a, Ctor) and isinstance(b, Ctor):
            if a.name != b.name or len(a.args) != len(b.args):
                return FALSE
            eqs = tuple(self._norm_eq(x, y) for x, y in zip(a.args, b.args))
            return self._simplify("&&", eqs)
        if isinstance(a, SeqV) and isinstance(b, SeqV):
            if len(a.elems) != len(b.elems):
                return FALSE
            eqs = tuple(self._norm_eq(x, y)
                        for x, y in zip(a.elems, b.elems))
            return self._simplify("&&", eqs)
        if isinstance(a, SeqV) != isinstance(b, SeqV):
            # a literal sequence never equals a strictly longer concat
            other = b if isinstance(a, SeqV) else a
            lit = a if isinstance(a, SeqV) else b
            if isinstance(other, App) and other.name == "++":
                known = sum(len(p.elems) for p in other.args
                            if isinstance(p, SeqV))
                if known > len(lit.elems):
                    return FALSE
        return self._lifted("==", tuple(sorted((a, b), key=_key)))

    # -- deciding and assuming ------------------------------------------------

    def decide(self, st: SymState, v: SymVal) -> bool | None:
        n = self.norm(v, st)
        if isinstance(n, Lit):
            return bool(n.value)
        if n in st.facts:
            return True
        neg = self._simplify("not", (n,))
        if neg in st.facts:
            return False
        if isinstance(n, App) and n.name == "not" and n.args[0] in st.facts:
            return False
        return None

    def _sides(self, st: SymState, v: SymVal, budget: int = MAX_PATHS
               ) -> set:
        """The verdicts on `v`, undecided in `st`, on each side of the joins
        whose ites it holds, down to at most `budget` sides; {None} if it
        holds none.  A join dropped its guard from the facts, so this is
        how a condition false on one side is still found false."""
        if not st.joins or budget < 2:
            return {None}
        v = self.norm(v, st)
        guard = self._join_guard(st, v)
        if guard is None:
            return {None}
        out = set()
        for side in (True, False):
            found = self._side(st, guard, side, v)
            if found is not None:
                s, w = found
                verdict = self.decide(s, w)
                out |= ({verdict} if verdict is not None
                        else self._sides(s, w, budget // 2))
        return out

    def _join_guard(self, st: SymState, v: SymVal) -> SymVal | None:
        """The first guard of a join in normal `v`, in pre-order: as the
        condition of an ite, or itself, as a lift over an ite leaves it."""
        guards = {self.norm(g, st) for g in st.joins}
        seen = set()
        todo = [v]
        while todo:
            t = todo.pop()
            if isinstance(t, Lit) or t in seen:
                continue
            if t in guards:
                return t
            seen.add(t)
            if not isinstance(t, Sym):
                todo.extend(reversed(t.elems if isinstance(t, SeqV)
                                     else t.args))
        return None

    def _side(self, st: SymState, guard: SymVal, side: bool,
              v: SymVal = TRUE) -> tuple | None:
        """A copy of `st`, and `v`, on one side of the join on `guard`:
        each `ite(guard, x, y)` is x on the true side and y on the false
        side, and the guard or its negation is assumed.  None if that side
        is infeasible."""
        s = st.clone()
        memo: dict = {}

        def pick(t):
            return self.norm(_resolve(t, guard, side, memo), s)

        s.heap = {k: pick(t) for k, t in s.heap.items()}
        s.store = {k: pick(t) for k, t in s.store.items()}
        preds: Counter = Counter()
        for (name, args), count in s.preds.items():
            preds[(name, tuple(map(pick, args)))] += count
        s.preds = preds
        s.facts = dict.fromkeys(map(pick, s.facts))
        s.joins = tuple(g for g in s.joins if self.norm(g, s) != guard)
        if not self.assume(s, guard if side else App("not", (guard,))):
            return None
        return s, pick(v)

    def assume(self, st: SymState, v: SymVal) -> bool:
        """Add a fact; returns False when the state became infeasible."""
        n = self.norm(v, st)
        if isinstance(n, Lit):
            return bool(n.value)
        if isinstance(n, App) and n.name == "&&":
            return all(self.assume(st, part) for part in n.args)
        if self.decide(st, n) is False:
            return False
        st.facts[n] = None
        self._refine(st, n)
        # a refinement can fold an earlier fact to a constant; a state
        # with a false fact is infeasible, not merely undecided
        return FALSE not in st.facts

    def _refine(self, st: SymState, n: SymVal) -> None:
        """Bind a symbol that the new fact `n` determines.  `n` is in
        normal form, so every symbol in it is unbound."""
        if not isinstance(n, App):
            return
        if n.name == "==":
            a, b = n.args
            for lhs, rhs in ((a, b), (b, a)):
                if isinstance(lhs, Sym) and not _occurs(lhs, rhs):
                    self._bind(st, lhs, rhs)
                    return
        elif n.name.startswith("is#"):
            ctor = n.name[3:]
            target = n.args[0]
            if isinstance(target, Sym):
                params = self.ctor_params.get(ctor)
                if params is not None:
                    payload = tuple(self.fresh(p) for p in params)
                    self._bind(st, target, Ctor(ctor, payload))
        elif n.name == "not":
            inner = n.args[0]
            if isinstance(inner, App) and inner.name.startswith("is#"):
                ctor = inner.name[3:]
                target = inner.args[0]
                others = [c for c in self.siblings.get(ctor, [])
                          if c != ctor]
                if isinstance(target, Sym) and len(others) == 1:
                    other = others[0]
                    payload = tuple(self.fresh(p)
                                    for p in self.ctor_params[other])
                    self._bind(st, target, Ctor(other, payload))

    def _bind(self, st: SymState, s: Sym, v: SymVal) -> None:
        """Substitute the normal form `v` for `s` from now on, and bring
        the facts and the stored keys back to normal form.  Two cells that
        fall on one key make the state infeasible."""
        st.subst[s.id] = v
        st.memo = {}
        st.facts = dict.fromkeys(self.norm(f, st) for f in st.facts)
        # a stored key stays normal unless it mentions s
        keys = itertools.chain((r for r, _ in st.heap),
                               (a for _, args in st.preds for a in args))
        if not any(_occurs(s, k) for k in keys):
            return
        heap = {(self.norm(r, st), f): val
                for (r, f), val in st.heap.items()}
        if len(heap) < len(st.heap):
            st.facts[FALSE] = None
        st.heap = heap
        preds: Counter = Counter()
        for (name, args), count in st.preds.items():
            preds[(name, tuple(self.norm(a, st) for a in args))] += count
        st.preds = preds

    # -- expression evaluation ---------------------------------------------------

    def eval(self, st: SymState, e: V.VExpr, store: dict, mode: _Mode,
             heap: dict, span=None) -> SymVal:
        try:
            handler = self._EVAL[type(e)]
        except KeyError:
            raise TypeError(f"cannot evaluate {type(e).__name__}") from None
        return handler(self, st, e, store, mode, heap, span)

    # One handler per expression class, looked up by `eval` in `_EVAL`.
    # Each takes eval's arguments: (st, e, store, mode, heap, span).

    def _eval_lit(self, st, e, store, mode, heap, span) -> SymVal:
        return Lit(e.value)

    def _eval_var(self, st, e, store, mode, heap, span) -> SymVal:
        if e.name not in store:
            self._err(Category.TRANSLATION,
                      f"use of undeclared variable '{e.name}'", span)
            store[e.name] = self.fresh(e.name)
        return store[e.name]

    def _eval_field(self, st, e, store, mode, heap, span) -> SymVal:
        base = self.eval(st, e.base, store, mode, heap, span)
        if e.fieldname in self.projections \
                and e.fieldname not in self.fields:
            return self.norm(App(f"proj#{e.fieldname}", (base,)), st)
        return self._read_field(st, base, e, mode, heap, span)

    def _eval_is(self, st, e, store, mode, heap, span) -> SymVal:
        base = self.eval(st, e.base, store, mode, heap, span)
        return self.norm(App(f"is#{e.ctor}", (base,)), st)

    def _eval_ctor(self, st, e, store, mode, heap, span) -> SymVal:
        return Ctor(e.name, tuple(self.eval(st, a, store, mode, heap, span)
                                  for a in e.args))

    def _eval_fun(self, st, e, store, mode, heap, span) -> SymVal:
        args = tuple(self.eval(st, a, store, mode, heap, span)
                     for a in e.args)
        return self.norm(App(e.name, args), st)

    def _eval_seq(self, st, e, store, mode, heap, span) -> SymVal:
        return SeqV(tuple(self.eval(st, a, store, mode, heap, span)
                          for a in e.items))

    def _eval_len(self, st, e, store, mode, heap, span) -> SymVal:
        seq = self.eval(st, e.seq, store, mode, heap, span)
        return self.norm(App("len", (seq,)), st)

    def _eval_binop(self, st, e, store, mode, heap, span) -> SymVal:
        left = self.eval(st, e.left, store, mode, heap, span)
        right = self.eval(st, e.right, store, mode, heap, span)
        return self.norm(App(e.op, (left, right)), st)

    def _eval_unop(self, st, e, store, mode, heap, span) -> SymVal:
        inner = self.eval(st, e.operand, store, mode, heap, span)
        return self.norm(App("not" if e.op == "!" else "neg", (inner,)), st)

    def _eval_index(self, st, e, store, mode, heap, span) -> SymVal:
        return self.norm(App("index", (
            self.eval(st, e.seq, store, mode, heap, span),
            self.eval(st, e.index, store, mode, heap, span))), st)

    def _eval_drop(self, st, e, store, mode, heap, span) -> SymVal:
        return self.norm(App("drop", (
            self.eval(st, e.seq, store, mode, heap, span),
            self.eval(st, e.lo, store, mode, heap, span))), st)

    def _eval_take(self, st, e, store, mode, heap, span) -> SymVal:
        return self.norm(App("take", (
            self.eval(st, e.seq, store, mode, heap, span),
            self.eval(st, e.hi, store, mode, heap, span))), st)

    _EVAL = {V.IntLit: _eval_lit, V.BoolLit: _eval_lit, V.Var: _eval_var,
             V.FieldAcc: _eval_field, V.IsTest: _eval_is,
             V.CtorCall: _eval_ctor, V.FunApp: _eval_fun,
             V.SeqLit: _eval_seq, V.SeqLen: _eval_len, V.BinOp: _eval_binop,
             V.UnOp: _eval_unop, V.SeqIndex: _eval_index,
             V.SeqDrop: _eval_drop, V.SeqTake: _eval_take}

    def _read_field(self, st: SymState, base: SymVal, src: V.FieldAcc,
                    mode: _Mode, heap: dict, span) -> SymVal:
        """The field `src` reads from `base`, the value of `src.base`.
        The receiver is normalised once, for both the permission probe
        and the heap read."""
        key = (self.norm(base, st), src.fieldname)
        if mode is _Mode.EXEC:
            heap = st.heap
            if key not in heap:  # the read below adds the cell: repair
                self._err(Category.PERMISSION,
                          f"no permission to read {V.expr_str(src)}", span)
        elif mode is _Mode.PRODUCE and key in st.heap:
            heap = st.heap  # prefer the live heap to the unframed cache
        val = heap.get(key)
        if val is None:
            val = heap[key] = self.fresh(src.fieldname)
        return val

    # -- produce / consume -------------------------------------------------------

    def produce(self, st: SymState, a: V.VAssertion,
                store: dict) -> list[SymState]:
        scratch: dict = {}
        return self._produce(st, a, store, scratch)

    def _produce(self, st: SymState, a: V.VAssertion, store: dict,
                 scratch: dict) -> list[SymState]:
        try:
            handler = self._PRODUCE[type(a)]
        except KeyError:
            raise TypeError(f"cannot produce {type(a).__name__}") from None
        return handler(self, st, a, store, scratch)

    # One handler per assertion class, looked up by `_produce` in
    # `_PRODUCE`.  Each takes _produce's arguments: (st, a, store, scratch).

    def _produce_pure(self, st, a, store, scratch) -> list[SymState]:
        val = self.eval(st, a.expr, store, _Mode.PRODUCE, scratch, a.span)
        return [st] if self.assume(st, val) else []

    def _produce_acc(self, st, a, store, scratch) -> list[SymState]:
        base = self.eval(st, a.loc.base, store, _Mode.PRODUCE, scratch,
                         a.span)
        key = (self.norm(base, st), a.loc.fieldname)
        if key in st.heap:
            return []  # a second whole permission cannot exist
        st.heap[key] = self.fresh(key[1])
        return [st]

    def _produce_pred(self, st, a, store, scratch) -> list[SymState]:
        args = tuple(self.norm(
            self.eval(st, x, store, _Mode.PRODUCE, scratch, a.span), st)
            for x in a.args)
        st.preds[(a.name, args)] += 1
        return [st]

    def _produce_and(self, st, a, store, scratch) -> list[SymState]:
        # depth first: each state takes all remaining parts before the
        # next state starts, which fixes the order of fresh symbols
        out: list[SymState] = []
        todo = [(st, 0)]
        while todo:
            s, i = todo.pop()
            if i == len(a.parts):
                out.append(s)
            else:
                nxt = self._produce(s, a.parts[i], store, scratch)
                todo.extend((t, i + 1) for t in reversed(nxt))
        return out

    def _produce_cond(self, st, a, store, scratch) -> list[SymState]:
        cond = self.eval(st, a.cond, store, _Mode.PRODUCE, scratch, a.span)
        verdict = self.decide(st, cond)
        if verdict is True:
            return self._produce(st, a.then, store, scratch)
        if verdict is False:
            return self._produce(st, a.els, store, scratch)
        other = st.clone()
        out = []
        if self.assume(st, cond):
            out.extend(self._produce(st, a.then, store, scratch))
        if self.assume(other, App("not", (cond,))):
            out.extend(self._produce(other, a.els, store, scratch))
        return out

    def _produce_let(self, st, a, store, scratch) -> list[SymState]:
        inner = dict(store)
        inner[a.name] = self.eval(st, a.bound, store, _Mode.PRODUCE,
                                  scratch, a.span)
        return self._produce(st, a.body, inner, scratch)

    _PRODUCE = {V.Pure: _produce_pure, V.Acc: _produce_acc,
                V.PredApp: _produce_pred, V.AndA: _produce_and,
                V.CondA: _produce_cond, V.LetA: _produce_let}

    def consume(self, st: SymState, a: V.VAssertion, store: dict,
                ctx: _ConsumeCtx, span=None) -> bool:
        """Exhale `a` from `st`; heap reads see a snapshot taken now.
        Reports failures and repairs; returns False if anything failed."""
        snapshot = dict(st.heap)
        return self._consume(st, a, store, snapshot, ctx, span)

    def _consume(self, st: SymState, a: V.VAssertion, store: dict,
                 snapshot: dict, ctx: _ConsumeCtx, span) -> bool:
        try:
            handler = self._CONSUME[type(a)]
        except KeyError:
            raise TypeError(f"cannot consume {type(a).__name__}") from None
        return handler(self, st, a, store, snapshot, ctx, span)

    # One handler per assertion class, looked up by `_consume` in
    # `_CONSUME`.  Each takes _consume's arguments: (st, a, store, snapshot,
    # ctx, span), `span` being the enclosing one; each reports at `a.span`,
    # else at `span`.

    def _consume_pure(self, st, a, store, snapshot, ctx, span) -> bool:
        at = a.span or span
        val = self.eval(st, a.expr, store, _Mode.CONSUME, snapshot, at)
        verdict = self.decide(st, val)
        if verdict is None:
            sides = self._sides(st, val)
            verdict = (False if False in sides
                       else None if None in sides else True)
        if verdict is True:
            return True
        if verdict is False:
            self._err(ctx.pred_category,
                      f"{ctx.what}: condition {V.expr_str(a.expr)} "
                      f"is false", at)
            return False
        if self.strict:
            self._err(Category.PURE_OBLIGATION,
                      f"{ctx.what}: cannot establish "
                      f"{V.expr_str(a.expr)}", at)
            return False
        self.diags.append(obligation(
            f"{ctx.what}: {V.expr_str(a.expr)} is assumed, not proved",
            at))
        return True

    def _consume_acc(self, st, a, store, snapshot, ctx, span) -> bool:
        at = a.span or span
        base = self.eval(st, a.loc.base, store, _Mode.CONSUME, snapshot, at)
        key = (self.norm(base, st), a.loc.fieldname)
        if key not in st.heap:
            self._err(Category.PERMISSION,
                      f"{ctx.what}: no permission to give up "
                      f"{V.expr_str(a.loc)}", at)
            return False
        del st.heap[key]
        return True

    def _consume_pred(self, st, a, store, snapshot, ctx, span) -> bool:
        at = a.span or span
        args = tuple(self.eval(st, x, store, _Mode.CONSUME, snapshot, at)
                     for x in a.args)
        key = (a.name, tuple(self.norm(x, st) for x in args))
        if key not in st.preds:
            self._err(ctx.pred_category,
                      f"{ctx.what}: missing predicate instance "
                      f"{a.name}(" + ", ".join(map(sym_str, key[1]))
                      + ")", at)
            return False
        st.preds[key] -= 1
        if st.preds[key] == 0:
            del st.preds[key]
        return True

    def _consume_and(self, st, a, store, snapshot, ctx, span) -> bool:
        ok = True
        for part in a.parts:  # keep going after a failure: report all
            ok = self._consume(st, part, store, snapshot, ctx, span) and ok
        return ok

    def _consume_cond(self, st, a, store, snapshot, ctx, span) -> bool:
        at = a.span or span
        cond = self.eval(st, a.cond, store, _Mode.CONSUME, snapshot, at)
        verdict = self.decide(st, cond)
        if verdict is None:
            sides = self._sides(st, cond)
            if sides == {True, False} and self._splits > 1:
                raise _Unjoin(self._join_guard(st, self.norm(cond, st)))
            if None not in sides and len(sides) < 2:
                verdict = False not in sides
        if verdict is None:
            self._err(Category.UNDECIDABLE_BRANCH,
                      f"{ctx.what}: cannot decide "
                      f"{V.expr_str(a.cond)} to pick a branch", at)
            return False
        branch = a.then if verdict else a.els
        return self._consume(st, branch, store, snapshot, ctx, span)

    def _consume_let(self, st, a, store, snapshot, ctx, span) -> bool:
        at = a.span or span
        inner = dict(store)
        inner[a.name] = self.eval(st, a.bound, store, _Mode.CONSUME,
                                  snapshot, at)
        return self._consume(st, a.body, inner, snapshot, ctx, span)

    _CONSUME = {V.Pure: _consume_pure, V.Acc: _consume_acc,
                V.PredApp: _consume_pred, V.AndA: _consume_and,
                V.CondA: _consume_cond, V.LetA: _consume_let}

    # -- statements ------------------------------------------------------------------

    def exec_stmt(self, st: SymState, s: V.VStmt) -> list[SymState]:
        try:
            handler = self._EXEC[type(s)]
        except KeyError:
            raise TypeError(f"cannot execute {type(s).__name__}") from None
        return handler(self, st, s)

    # One handler per statement class, looked up by `exec_stmt` in `_EXEC`
    # (defined after `_call`).  Each takes (st, s).

    def _exec_var(self, st, s) -> list[SymState]:
        if s.init is None:
            st.store[s.name] = self.fresh(s.name)
        else:
            st.store[s.name] = self.eval(st, s.init, st.store, _Mode.EXEC,
                                         st.heap, s.span)
        return [st]

    def _exec_assign(self, st, s) -> list[SymState]:
        value = self.eval(st, s.value, st.store, _Mode.EXEC, st.heap, s.span)
        if isinstance(s.target, V.Var):
            st.store[s.target.name] = value
            return [st]
        assert isinstance(s.target, V.FieldAcc)
        base = self.eval(st, s.target.base, st.store, _Mode.EXEC, st.heap,
                         s.span)
        key = (self.norm(base, st), s.target.fieldname)
        if key not in st.heap:  # the write adds the cell: repair
            self._err(Category.PERMISSION,
                      f"no permission to write {V.expr_str(s.target)}",
                      s.span)
        st.heap[key] = value
        return [st]

    def _exec_new(self, st, s) -> list[SymState]:
        ref = self.fresh(s.target)
        st.store[s.target] = ref
        for fld in s.fields:
            st.heap[(ref, fld)] = self.fresh(fld)
        return [st]

    def _exec_if(self, st, s) -> list[SymState]:
        cond = self.eval(st, s.cond, st.store, _Mode.EXEC, st.heap, s.span)
        verdict = self.decide(st, cond)
        if verdict is True:
            return self._exec_block(st, s.then)
        if verdict is False:
            return self._exec_block(st, s.els)
        other = st.clone()
        mark = len(st.facts)
        then = (self._exec_block(st, s.then)
                if self.assume(st, cond) else [])
        els = (self._exec_block(other, s.els)
               if self.assume(other, App("not", (cond,))) else [])
        if len(then) == 1 and len(els) == 1:
            joined = self._join(cond, mark, then[0], els[0])
            if joined is not None:
                return [joined]
        return then + els

    def _exec_fold(self, st, s) -> list[SymState]:
        return self._split_run(st, lambda cur: self._fold(cur, s))

    def _exec_call(self, st, s) -> list[SymState]:
        return self._split_run(st, lambda cur: self._call(cur, s))

    def _join(self, cond: SymVal, mark: int, a: SymState,
              b: SymState) -> SymState | None:
        """Merge the two sides of an `if` on `cond` into `a`, or None.

        They merge when each holds the `mark` facts before the `if` plus
        its guard, and they differ only in the values of Int or Bool heap
        cells and locals; each such value becomes `ite(cond, a's, b's)`.
        The guards are dropped from the facts: `cond || !cond` holds."""
        if (len(a.facts) != mark + 1 or len(b.facts) != mark + 1
                or a.subst != b.subst or a.preds != b.preds
                or a.heap.keys() != b.heap.keys()
                or a.store.keys() != b.store.keys()):
            return None
        heap = self._join_values(cond, a, a.heap, b.heap,
                                 lambda k: k[1] in self.scalar_fields)
        store = None if heap is None else self._join_values(
            cond, a, a.store, b.store, lambda k: k in self.scalar_locals)
        if store is None:
            return None
        a.heap, a.store = heap, store
        # the then side assumed the guard, in normal form, last
        guard, _ = a.facts.popitem()
        a.joins = tuple(dict.fromkeys(a.joins + b.joins + (guard,)))
        return a

    def _join_values(self, cond: SymVal, st: SymState, x: dict, y: dict,
                     scalar) -> dict | None:
        out = {}
        for k, v in x.items():
            w = y[k]
            if v != w:
                if not scalar(k):
                    return None
                v = self.norm(App("ite", (cond, v, w)), st)
            out[k] = v
        return out

    def _split_run(self, st: SymState, run, budget: int = MAX_PATHS
                   ) -> list[SymState]:
        """`run(st)`, a step that consumes.  If a conditional assertion it
        consumes takes a different branch on the two sides of a join, the
        step instead runs on each side, as if that `if` had forked, down to
        at most `budget` sides."""
        if not st.joins:
            return run(st)
        saved, mark, outer = st.clone(), len(self.diags), self._splits
        self._splits = budget
        try:
            return run(st)
        except _Unjoin as e:
            del self.diags[mark:]
            out = []
            for side in (True, False):
                found = self._side(saved, e.guard, side)
                if found is not None:
                    out.extend(self._split_run(found[0], run, budget // 2))
            return out
        finally:
            self._splits = outer

    def _exec_block(self, st: SymState, stmts: list[V.VStmt]
                    ) -> list[SymState]:
        return self._step_all([st], stmts, self.exec_stmt)

    def _step_all(self, states: list[SymState], steps, step,
                  at=None) -> list[SymState]:
        """Apply `step(state, item)` to every state for each item in turn,
        capping the states after each item (reported at `at`, else at the
        item)."""
        for item in steps:
            nxt: list[SymState] = []
            for cur in states:
                nxt.extend(step(cur, item))
            states = self._capped(nxt, item if at is None else at)
        return states

    def _capped(self, states: list[SymState], at) -> list[SymState]:
        if len(states) <= MAX_PATHS:
            return states
        span = getattr(at, "span", None)
        msg = (f"more than {MAX_PATHS} symbolic paths; "
               f"dropping the excess, the verdict may be incomplete")
        if self.strict:
            self._err(Category.UNDECIDABLE_BRANCH, msg, span)
        else:
            self.diags.append(warning(Category.UNDECIDABLE_BRANCH, msg,
                                      span))
        return states[:MAX_PATHS]

    def _instance(self, st: SymState, s: V.FoldS | V.UnfoldS,
                  verb: str) -> tuple | None:
        """For the `verb` ("fold" or "unfold") statement `s`: the
        predicate's declaration, its parameters bound to the values of the
        arguments, and its instance over those parameters.  None, after
        reporting, for an unknown predicate or a wrong arity."""
        decl = self.predicates.get(s.pred.name)
        if decl is None:
            self._err(Category.FOLD_MISMATCH,
                      f"{verb} of unknown predicate '{s.pred.name}'", s.span)
            return None
        if len(s.pred.args) != len(decl.params):
            self._err(Category.FOLD_MISMATCH,
                      f"{s.pred.name} takes {len(decl.params)} arguments",
                      s.span)
            return None
        names = [n for n, _ in decl.params]
        binding = {n: self.eval(st, a, st.store, _Mode.EXEC, st.heap, s.span)
                   for n, a in zip(names, s.pred.args)}
        return decl, binding, V.PredApp(decl.name, list(map(V.Var, names)))

    def _fold(self, st: SymState, s: V.FoldS) -> list[SymState]:
        found = self._instance(st, s, "fold")
        if found is None:
            return [st]
        decl, binding, inst = found
        ctx = _ConsumeCtx(Category.FOLD_MISMATCH, _FoldName(s.pred))
        self.consume(st, decl.body, binding, ctx, s.span)
        return self.produce(st, inst, binding)

    def _unfold(self, st: SymState, s: V.UnfoldS) -> list[SymState]:
        found = self._instance(st, s, "unfold")
        if found is None:
            return [st]
        decl, binding, inst = found
        ctx = _ConsumeCtx(Category.FOLD_MISMATCH, "unfold")
        self.consume(st, inst, binding, ctx, s.span)
        return self.produce(st, decl.body, binding)

    def _call(self, st: SymState, s: V.CallS) -> list[SymState]:
        decl = self.methods.get(s.method)
        if decl is None:
            self._err(Category.CONTRACT_VIOLATION,
                      f"call to unknown method '{s.method}'", s.span)
            return [st]
        if len(s.args) != len(decl.params):
            self._err(Category.CONTRACT_VIOLATION,
                      f"{s.method} takes {len(decl.params)} arguments, "
                      f"got {len(s.args)}", s.span)
            return [st]
        if s.targets and len(s.targets) != len(decl.returns):
            self._err(Category.CONTRACT_VIOLATION,
                      f"{s.method} returns {len(decl.returns)} values, "
                      f"{len(s.targets)} targets given", s.span)
            return [st]
        vals = [self.eval(st, a, st.store, _Mode.EXEC, st.heap, s.span)
                for a in s.args]
        binding = dict(zip((n for n, _ in decl.params), vals))
        ctx = _ConsumeCtx(Category.CONTRACT_VIOLATION,
                          f"call to {s.method}: precondition")
        for pre in decl.pres:
            self.consume(st, pre, binding, ctx, s.span)
        ret_vals = [self.fresh(n) for n, _ in decl.returns]
        binding.update({n: v for (n, _), v
                        in zip(decl.returns, ret_vals)})
        for target, val in zip(s.targets, ret_vals):
            st.store[target] = val
        return self._step_all(
            [st], decl.posts,
            lambda cur, post: self.produce(cur, post, binding), at=s)

    _EXEC = {V.VarDeclS: _exec_var, V.AssignS: _exec_assign,
             V.NewS: _exec_new, V.IfS: _exec_if, V.FoldS: _exec_fold,
             V.UnfoldS: _unfold, V.CallS: _exec_call}

    # -- whole-method checking ----------------------------------------------------

    def _err(self, category: Category, message: str, span) -> None:
        self.diags.append(error(category, message, span))

    def check_method(self, m: V.MethodDecl) -> list[Diagnostic]:
        if m.body is None:
            return []
        self._ids = itertools.count()
        self._ites = False  # terms do not outlive the method
        self.diags = []
        self.scalar_locals = _scalar_locals(m)
        st = SymState()
        for name, _ in m.params:
            st.store[name] = self.fresh(name)
        for name, _ in m.returns:
            st.store[name] = self.fresh(name)
        states = self._step_all(
            [st], m.pres, lambda cur, pre: self.produce(cur, pre, cur.store),
            at=m)
        states = self._step_all(states, m.body, self.exec_stmt)
        leaks: list[Diagnostic] = []
        mspan = getattr(m, "span", None)
        ctx = _ConsumeCtx(Category.CONTRACT_VIOLATION,
                          f"postcondition of {m.name}")

        def consume_posts(cur: SymState) -> list[SymState]:
            for post in m.posts:
                self.consume(cur, post, cur.store, ctx, mspan)
            return [cur]

        states = [s for cur in states
                  for s in self._split_run(cur, consume_posts)]
        for cur in states:
            for rec, fld in sorted(cur.heap,
                                   key=lambda p: (p[1], _key(p[0]))):
                leaks.append(warning(
                    Category.PERMISSION,
                    f"{m.name} leaks permission to "
                    f"{sym_str(rec)}.{fld}", mspan))
            for (name, args), count in sorted(
                    cur.preds.items(),
                    key=lambda kv: (kv[0][0], tuple(map(_key, kv[0][1])))):
                leaks.append(warning(
                    Category.PERMISSION,
                    f"{m.name} leaks {count} instance(s) of "
                    f"{name}(" + ", ".join(sym_str(a) for a in args)
                    + ")", mspan))
        had_errors = any(d.severity is Severity.ERROR for d in self.diags)
        if not had_errors:
            self.diags.extend(leaks)
        return _dedupe(self.diags)


def _scalar_locals(m: V.MethodDecl) -> set[str]:
    """The parameters, returns and locals of `m` declared Int or Bool, and
    never declared with another type."""
    types: dict[str, set] = {}
    for name, typ in itertools.chain(m.params, m.returns):
        types.setdefault(name, set()).add(typ.name)
    todo = list(m.body or ())
    while todo:
        s = todo.pop()
        if isinstance(s, V.VarDeclS):
            types.setdefault(s.name, set()).add(s.typ.name)
        elif isinstance(s, V.IfS):
            todo.extend(s.then)
            todo.extend(s.els)
    return {n for n, ts in types.items()
            if len(ts) == 1 and ts <= _SCALAR}


def _flat(args: tuple, op: str):
    for a in args:
        if isinstance(a, App) and a.name == op:
            yield from _flat(a.args, op)
        else:
            yield a


def _occurs(s: Sym, v: SymVal) -> bool:
    """Whether `s` occurs in `v`; each node of a shared term is visited
    once, since a chain of joins shares its subterms."""
    seen = set()
    todo = [v]
    while todo:
        v = todo.pop()
        if isinstance(v, Sym):
            if v.id == s.id:
                return True
        elif not isinstance(v, Lit) and v not in seen:
            seen.add(v)
            todo.extend(v.elems if isinstance(v, SeqV) else v.args)
    return False


def _resolve(v: SymVal, guard: SymVal, side: bool, memo: dict) -> SymVal:
    """`v` with each `ite(guard, x, y)` replaced by x if `side`, else y;
    `memo` maps each node seen to its result, so a shared subterm is
    rebuilt once and an untouched one is kept."""
    if isinstance(v, (Sym, Lit)):
        return v
    r = memo.get(v)
    if r is None:
        if isinstance(v, App) and v.name == "ite" and v.args[0] == guard:
            r = _resolve(v.args[1] if side else v.args[2], guard, side, memo)
        else:
            kids = v.elems if isinstance(v, SeqV) else v.args
            new = tuple(_resolve(a, guard, side, memo) for a in kids)
            r = SeqV(new) if isinstance(v, SeqV) else type(v)(v.name, new)
        memo[v] = r
    return r


def _dedupe(diags: list[Diagnostic]) -> list[Diagnostic]:
    seen = set()
    out = []
    for d in diags:
        key = (d.severity, d.category, d.message,
               (d.span.start, d.span.end) if d.span else None)
        if key in seen:
            continue
        seen.add(key)
        out.append(d)
    return out


def check_program(program: V.ViperProgram,
                  strict: bool = False) -> list[Diagnostic]:
    checker = Checker(program, strict=strict)
    out: list[Diagnostic] = []
    for m in program.methods().values():
        out.extend(checker.check_method(m))
    return out
