"""Symbolic permission accounting for translated programs, without a solver.

The checker walks each method body over a set of symbolic states.  A
state is a heap of held cells, the folded predicate instances (a plain
dict from each instance to its count, never 0), an ordered table of
assumed boolean facts, the local store, and an equality substitution
used to propagate facts like `q.length == 0` into later queries.  As in
Viper's heap chunks, a cell `(receiver, field) -> value` is both the
value and the whole permission to it: a location is held exactly when it
is a key of the heap.

Every field read follows one rule: it takes the held cell's value, and
for a cell not held, the value kept in the current step's cache, which the
first such read makes a fresh symbol.  `produce` and `consume` each start
from an empty cache.  `consume` moves each cell it gives up into its cache,
so its reads see the heap as it was before the exhale, as in Viper.  A
statement has no cache: reading a cell it does not hold is a permission
error, and the read adds the cell.

A three-valued `decide` settles guards: literal after normalization,
assumed in the fact table, or unknown.  Producing a conditional
assertion with an unknown guard forks the state; consuming one reports an
undecidable branch instead, because exhaling must pick a side.  Predicate
instances never unroll on their own: `fold P(a)` consumes the body and
produces the instance, `unfold P(a)` consumes the instance and produces
the body, so an instance is added only by `produce` and removed only by
`consume`.

An `if` with an unknown guard `c` runs both sides, then joins them into
one state when each side ends in one state and the two agree apart from
`c` (Kuznetsov et al., "Efficient State Merging in Symbolic Execution"):
their facts agree apart from `c` and its negation, and their
substitutions, instances and heap and store keys are equal, so they
differ only in the values of Int or Bool fields and locals, a local's
type being recorded as its declaration runs.  Each differing value
becomes `ite(c, then's, else's)` and `c` leaves the facts, since
`c || !c` holds.  A joined Ref would match no held cell, so Ref values
are never joined.  Otherwise both states go on, and past MAX_PATHS
states the excess is dropped with a warning (an error under `strict`).
A chain of K joins costs time linear in K, not 2^K paths.

The state keeps the guards of its joins, normal as its facts are.
A join dropped its guard from the facts, so a consumed condition, pure
or the guard of a conditional assertion, can be undecided in the joined
state and decided on each side.  One mechanism reads it there: when such
a condition mentions a join's guard, the consuming step (a fold, a call,
the postcondition) stops and runs again on each feasible side, the
state normalised under that guard taken as true or false and the guard
or its negation assumed, as on the two paths the join replaced.  Each
side may split again, down to MAX_PATHS sides, and the two sides join
again on that guard by the same rule, unless taking the guard as true
or false rewrote a fact that read a joined value.  A condition that
mentions no guard, or that is undecided past the last split, is
reported as undecided.

Normalization evaluates the prelude's sequence helpers (`drop_last`,
`take_last`; a program's own definition of either is left uninterpreted)
and all sequence/arithmetic/constructor operators on literal operands,
so programs over concrete sequences are fully decidable.  An operator
applied to an `ite` whose arms are literals is lifted over it, so that
`ite(c, 1, 2) > 0` folds to true; `ite(c, true, false)` is `c`.

A term is a symbol, a literal (`Lit`) or a compound term `name(args)`,
one shape (`_Node`) in three classes: `App`, an operator or function
applied; `Ctor`, a constructor applied; `SeqV`, a literal sequence, its
name "".  Terms are hash-consed (Filliâtre and Conchon, "Type-Safe
Modular Hash-Consing"): literals and compound terms are built through one
table, `_TERMS`, keyed by class and fields, so equal terms are one object
that hashes and compares by identity, in C.  A symbol is an `int`, its
id, so it too hashes and compares in C.  Every checker draws its symbol
ids from one counter, `_IDS`, so no two symbols of a process share an id:
an equal key means the same children, and the term found under it is the
term asked for, even one that outlived its method.  A check owns its
terms, as a region owns what is allocated in it (Tofte and Talpin,
"Region-Based Memory Management"): while `check_program` runs, `_TERMS`
is a plain dict seeded with `TRUE` and `FALSE`, so a lookup is one probe
and a term lives, with its cached fields, until the check ends; the
table before it comes back when the check returns or raises.  Outside a
check, `_TERMS` is a `weakref.WeakValueDictionary`, so a `Checker`
driven directly keeps no term alive.  The table and the counter take no
lock: checkers run in one thread.

A value that K joins built is a term of K levels that shares its
subterms; walked as a tree it has 2^K nodes.  So every walk over terms
visits each node once: the arguments of `==`, `&&` and `||` are sorted by
a structural key cached on each compound term (`_key`), not by `repr`;
the set of symbols a term mentions is cached on each compound term too
(`_syms`), so the occurs check is one probe of it; the one search for a
subterm, `_first`, which finds a join's guard, remembers the nodes it
saw; and normalising an unchanged term returns the term itself, as
interning must, so the sharing survives.  Diagnostics print an ite
nested in two others as "...".

A statement costs a few calls per node of its expressions.  Each walk
keeps a handler per node class in one table (`_EVAL`, `_PRODUCE`,
`_CONSUME`, `_EXEC`), and a handler calls its children's straight from
it: one Python frame per node.  `eval`, `produce`, `consume` and
`exec_stmt` are the entries from outside; a variable receiver `r.f` is
read in place.  `_simplify` finds the rule for an operator's name in one
probe of one table, `rules`, built once per checker: `_RULES` holds a
rule for each arithmetic, boolean and sequence operator, and the checker
adds one for each constructor test `is#C` and projection `proj#p` that
the program's ADTs declare.  A function without a rule stays
uninterpreted (`_lifted`).  An operator is lifted over an `ite` only in
a method that has built one.

Each term is normalised once per substitution: `norm` first probes the
state's `memo`, for every kind of term, so a term already normalised costs
one dict probe.  The hot readers (`decide`, and `eval` reading a local or
a cached cell under `produce` and `consume`) make that probe themselves
and call `norm` only on a miss.  `norm` memoises a symbol too (an
unbound one to itself), and a normal form to itself; clones share the
memo, and a binding starts a fresh one, so it lives only as long as the
states that use it.
Every heap key, instance argument, fact, join guard and stored value of
a state is in normal form under the state's own substitution, as in
Smallfoot's symbolic heaps.  `Checker._bind` alone grows the
substitution, and it restores that invariant for only the facts, guards,
values, keys and instance arguments that mention the bound symbol, as
congruence closure revisits only the terms that use a merged one (Downey,
Sethi and Tarjan, "Variations on the Common Subexpression Problem");
`_bind` says why a term without that symbol stays normal.  It memoises
each such term as its own normal form in the fresh memo.

One rule follows: every value `eval` returns is normal in the state it
reads.  Its leaves are literals, held cells' values and the state's
locals, and under `produce` and `consume` the values of the step's binding
dict and cache, which a conjunct's `_bind` does not update, so `eval`
normalises them as it reads them.  Each operator is simplified once, by
`_simplify` over normal operands, so the term interned is already its
normal form, and `_op` memoises it as its own.  No caller normalises what
`eval` returns: a field read probes the heap with its receiver as it is,
keys and instance arguments are stored as evaluated, and `decide` finds a
fact without normalising the table again.  A value held across a step
that binds goes stale, so a join normalises the guard that its fork
evaluated.  `decide` and `assume` normalise what they are given: terms
reach them from outside `eval`, and `assume` splits an `&&` whose later
parts go stale once an earlier part binds a symbol.

On a failed access the checker reports once and then repairs the state
(adds the missing cell or carries on past the missing instance) so one
mistake does not cascade into a wall of noise.
"""

from __future__ import annotations

import itertools
import weakref

from . import viper_ast as V
from .diagnostics import (Category, Diagnostic, Handlers, Record, Severity,
                          error, obligation, warning)
from .translate import prelude_decls

MAX_PATHS = 32
_SCALAR = frozenset({"Int", "Bool"})  # types whose values a join merges
# the helpers that `_SEQ` folds, as Viper reads them
_PRELUDE = {f.name: V.decl_lines(f) for f in prelude_decls()}
_FOLD = {op.viper: op.fold for op in V.BINARY if op.fold is not None}
# what each sequence operator gives on the elements `xs` of a literal
# sequence and, for a binary one, an int literal `k`; None if undefined
_SEQ = {"len": lambda xs: Lit(len(xs)),
        "index": lambda xs, k: xs[k.value] if 0 <= k.value < len(xs) else None,
        "drop": lambda xs, k: SeqV("", xs[max(k.value, 0):]),
        "take": lambda xs, k: SeqV("", xs[:max(k.value, 0)]),
        "drop_last": lambda xs: SeqV("", xs[:-1]) if xs else None,
        "take_last": lambda xs: SeqV("", xs[-1:]) if xs else None}

# -- symbolic values -----------------------------------------------------------


class SymVal:
    __slots__ = ()


class Sym(int, SymVal):
    """A symbol, equal to its id as an `int`, so it hashes and compares in
    C, without a Python frame, and its hash does not depend on the hash
    seed.  `hint` names it in diagnostics and takes no part in equality."""

    def __new__(cls, id: int, hint: str = ""):
        s = super().__new__(cls, id)
        s.hint = hint
        return s

    def __repr__(self) -> str:
        return f"Sym(id={int(self)})"


_TERMS = weakref.WeakValueDictionary()  # {(class, fields...): term}
_IDS = itertools.count()  # every symbol's id, unique in the process


class Lit(SymVal):
    """An int or bool literal, hash-consed in `_TERMS`: the check's own
    table, or the weak one outside a check.  1 and True are different
    literals: equal terms must render alike."""
    __slots__ = ("value", "__weakref__")

    def __new__(cls, value):
        key = (cls, value, type(value))
        t = _TERMS.get(key)
        if t is None:
            t = _TERMS[key] = object.__new__(cls)
            t.value = value
        return t

    def __repr__(self) -> str:
        return f"Lit({self.value!r})"


class _Node(SymVal):
    """A compound term `name(args)`, hash-consed in `_TERMS`: the check's
    own table, or the weak one outside a check.  `sortkey` caches `_key`,
    whose first element is the class's `rank`, and `syms` caches
    `_syms`."""
    __slots__ = ("name", "args", "sortkey", "syms", "__weakref__")

    def __new__(cls, name: str, args: tuple = ()):
        key = (cls, name, args)
        t = _TERMS.get(key)
        if t is None:
            t = _TERMS[key] = object.__new__(cls)
            t.name, t.args, t.sortkey, t.syms = name, args, None, None
        return t

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, {self.args!r})"


class Ctor(_Node):
    """A constructor of an ADT applied to its payload."""
    __slots__ = ()
    rank = 1


class App(_Node):
    """An operator or function applied to its arguments."""
    __slots__ = ()
    rank = 0


class SeqV(_Node):
    """A literal sequence, `SeqV("", elements)`."""
    __slots__ = ()
    rank = 3


TRUE = Lit(True)
FALSE = Lit(False)
_REFLEXIVE = {"<": FALSE, ">": FALSE, "<=": TRUE, ">=": TRUE}  # t op t


def _key(v: SymVal) -> tuple:
    """A structural sort key, total on terms and cached on compound ones.

    It orders the arguments of commutative operators.  Unlike `repr`, it
    costs one step per distinct node of a shared term, and it uses no
    `hash()`, so the order does not depend on the hash seed.  The ranks
    follow the class names, as the order by `repr` did."""
    if isinstance(v, Sym):
        return (4, int(v))
    if isinstance(v, Lit):
        return (2, type(v.value).__name__, v.value)
    k = v.sortkey
    if k is None:
        k = v.sortkey = (v.rank, v.name, tuple(map(_key, v.args)))
    return k


_ITE_DEPTH = 2  # sym_str prints an ite inside this many ites as "..."


def sym_str(v: SymVal, ites: int = 0) -> str:
    """`v` for a diagnostic; `ites` counts the ites around it.

    A value that K joins built nests K ites that share their arms, so
    printed in full it is 2^K long: past `_ITE_DEPTH` an ite is "..."."""
    if isinstance(v, Sym):
        return v.hint if v.hint else f"_{int(v)}"
    if isinstance(v, Lit):
        if isinstance(v.value, bool):
            return "true" if v.value else "false"
        return str(v.value)
    if isinstance(v, SeqV):
        if not v.args:
            return "Seq[Int]()"
        return "Seq(" + ", ".join(sym_str(a, ites) for a in v.args) + ")"
    if isinstance(v, App) and v.name == "ite":
        if ites >= _ITE_DEPTH:
            return "..."
        ites += 1
    if isinstance(v, App) and _infix(v):
        prec = V.LEVELS[v.name][0]
        return f" {v.name} ".join(
            f"({sym_str(a, ites)})" if _infix(a) and V.LEVELS[a.name][0] <= prec
            else sym_str(a, ites) for a in v.args)
    return f"{v.name}(" + ", ".join(sym_str(a, ites) for a in v.args) + ")"


def _infix(v: SymVal) -> bool:
    return isinstance(v, App) and v.name in V.LEVELS and len(v.args) > 1


# -- symbolic state --------------------------------------------------------------


class SymState(Record, uncompared=("memo",), heap={}, preds={}, facts={},
               store={}, subst={}, memo={}, joins={}):
    __slots__ = (
        # the held cells: a key is a whole permission, its value the field's
        "heap",  # {(recv, field): SymVal}
        "preds",  # {(name, args): n > 0}
        # the assumed facts, in normal form; FALSE if the state is infeasible
        "facts",  # {bool SymVal: None}
        "store",  # {var: SymVal}
        "subst",  # {Sym: SymVal}
        # {term: normal form} under subst, replaced as subst grows
        "memo",
        # the guards of the joins whose ites values hold, in normal form;
        # replaced, never changed in place, so clones share it
        "joins",  # {bool SymVal: None}
    )

    def clone(self) -> "SymState":
        return SymState(dict(self.heap), dict(self.preds),
                        dict(self.facts), dict(self.store), dict(self.subst),
                        self.memo, self.joins)


class _Unjoin(Exception):
    """A condition a consume reads is undecided but mentions `args[0]`, the
    guard of a join; `Checker._split_run` catches it and splits the state."""


class _ConsumeCtx(Record):
    """What a failed consume should be reported as."""
    __slots__ = ("pred_category",
                 # printed by str(): "postcondition of m", or a _FoldName
                 "what")


class _FoldName(Record):
    """`fold P(args)`, rendered only when a diagnostic prints it: most
    folds never fail."""
    __slots__ = ("pred",)

    def __str__(self) -> str:
        call = V.FunApp(self.pred.name, self.pred.args)
        return f"fold {V.expr_str(call)}"


# -- checker ------------------------------------------------------------------------


class Checker:
    def __init__(self, program: V.ViperProgram, strict: bool = False):
        self.strict = strict
        self.methods = program.methods()
        # each predicate, its parameter names and its instance over them
        self.instances = {
            name: (d, [n for n, _ in d.params],
                   V.PredApp(name, [V.Var(n) for n, _ in d.params]))
            for name, d in program.predicates().items()}
        fields = program.fields()
        self.fields = set(fields)
        # joins may merge values of these fields and locals (see _join)
        self.scalar_fields = {n for n, d in fields.items()
                              if d.typ.name in _SCALAR}
        # each local's declared type name, None if declared at two types
        self.local_types: dict[str, str | None] = {}
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
        self.rules = {**self._RULES,
                      **{f"is#{c}": Checker._s_is for c in self.ctor_params},
                      **{f"proj#{p}": Checker._s_proj
                         for p in self.projections}}
        for d in program.decls:  # a program's own helper is not folded
            if d.name in _PRELUDE and V.decl_lines(d) != _PRELUDE[d.name]:
                self.rules.pop(d.name, None)
        self.diags: list[Diagnostic] = []
        self._splits = 0  # sides a consume may still split into (_Unjoin)
        self._ites = False  # whether _simplify has built an ite (_lifted)

    def fresh(self, hint: str) -> Sym:
        return Sym(next(_IDS), hint)

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
        elif cls is Ctor or cls is SeqV:
            n = cls(v.name, tuple([self.norm(a, st) for a in v.args]))
        else:
            raise TypeError(cls.__name__)
        memo[v] = n
        if n is not v:
            memo[n] = n  # a normal form is its own
        return n

    def _simplify(self, name: str, args: tuple) -> SymVal:
        """`name(args)` over normal `args`, in normal form: the rule for
        `name` in `rules`, else `_lifted`, for a function without one."""
        return self.rules.get(name, Checker._lifted)(self, name, args)

    # One rule per operator, looked up by `_simplify` in `rules`: `_RULES`,
    # and a constructor test or projection rule for each name the ADTs
    # declare.  Each takes _simplify's arguments: (name, args).

    def _s_fold(self, name, args) -> SymVal:
        """Fold two int literals by `_FOLD`; a None fold keeps the term.  A
        term compared with itself folds by `_REFLEXIVE`."""
        a, b = args
        if not (isinstance(a, Lit) and isinstance(a.value, int)
                and isinstance(b, Lit) and isinstance(b.value, int)):
            if a == b and name in _REFLEXIVE:
                return _REFLEXIVE[name]
            return self._lifted(name, args)
        value = _FOLD[name](a.value, b.value)
        return App(name, args) if value is None else Lit(value)

    def _s_eq(self, name, args) -> SymVal:
        return self._norm_eq(args[0], args[1])

    def _s_ne(self, name, args) -> SymVal:
        return self._s_not("not", (self._norm_eq(args[0], args[1]),))

    def _s_not(self, name, args) -> SymVal:
        (a,) = args
        if isinstance(a, Lit):
            return Lit(not a.value)
        if isinstance(a, App) and a.name == "not":
            return a.args[0]
        return App("not", args)

    def _s_andor(self, name, args) -> SymVal:
        unit, zero = (TRUE, FALSE) if name == "&&" else (FALSE, TRUE)
        parts = []
        for a in _flat(args, name):
            if a is zero:
                return zero
            if a is not unit and a not in parts:
                parts.append(a)
        if not parts:
            return unit
        if len(parts) == 1:
            return parts[0]
        return App(name, tuple(sorted(parts, key=_key)))

    def _s_ite(self, name, args) -> SymVal:
        cond, then, els = args
        if isinstance(cond, Lit):
            return then if cond.value else els
        if then == els:
            return then
        if then == TRUE and els == FALSE:
            return cond
        if then == FALSE and els == TRUE:
            return self._s_not("not", (cond,))
        self._ites = True
        return App(name, args)

    def _s_neg(self, name, args) -> SymVal:
        a = args[0]
        if isinstance(a, Lit) and isinstance(a.value, int):
            return Lit(-a.value)
        return self._lifted(name, args)

    def _s_concat(self, name, args) -> SymVal:
        parts: list[SymVal] = []
        for a in _flat(args, "++"):
            if isinstance(a, SeqV):
                if not a.args:
                    continue
                if parts and isinstance(parts[-1], SeqV):
                    parts[-1] = SeqV("", parts[-1].args + a.args)
                    continue
            parts.append(a)
        if not parts:
            return SeqV("", ())
        if len(parts) == 1:
            return parts[0]
        return App("++", tuple(parts))

    def _s_seq(self, name, args) -> SymVal:
        """A sequence operator by `_SEQ`, on a literal sequence and, for a
        binary one, an int literal; else, or where undefined, `_lifted`."""
        seq, rest = args[0], args[1:]
        if isinstance(seq, SeqV) and (not rest or isinstance(rest[0], Lit)
                                      and isinstance(rest[0].value, int)):
            v = _SEQ[name](seq.args, *rest)
            if v is not None:
                return v
        return self._lifted(name, args)

    def _s_is(self, name, args) -> SymVal:
        """`is#C`: whether a constructor term is a `C`."""
        if isinstance(args[0], Ctor):
            return Lit(args[0].name == name[3:])
        return self._lifted(name, args)

    def _s_proj(self, name, args) -> SymVal:
        """`proj#p`: the payload `p` of a constructor term that has one."""
        target = args[0]
        if isinstance(target, Ctor) and target.args:
            params = self.ctor_params.get(target.name, [])
            if name[5:] in params:
                return target.args[params.index(name[5:])]
        return self._lifted(name, args)

    _RULES = {**dict.fromkeys(_FOLD, _s_fold), "==": _s_eq, "!=": _s_ne,
              "not": _s_not, "&&": _s_andor, "||": _s_andor, "ite": _s_ite,
              "neg": _s_neg, "++": _s_concat, **dict.fromkeys(_SEQ, _s_seq)}

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

    def _norm_eq(self, a: SymVal, b: SymVal) -> SymVal:
        if a == b:
            return TRUE
        if isinstance(a, Lit) and isinstance(b, Lit):
            return Lit(a.value == b.value)
        if type(a) is type(b) and type(a) in (Ctor, SeqV):
            if a.name != b.name or len(a.args) != len(b.args):
                return FALSE
            eqs = tuple([self._norm_eq(x, y) for x, y in zip(a.args, b.args)])
            return self._s_andor("&&", eqs)
        if isinstance(a, SeqV) != isinstance(b, SeqV):
            # a literal sequence never equals a strictly longer concat
            other = b if isinstance(a, SeqV) else a
            lit = a if isinstance(a, SeqV) else b
            if isinstance(other, App) and other.name == "++":
                known = sum(len(p.args) for p in other.args
                            if isinstance(p, SeqV))
                if known > len(lit.args):
                    return FALSE
        return self._lifted("==", tuple(sorted((a, b), key=_key)))

    # -- deciding and assuming ------------------------------------------------

    def decide(self, st: SymState, v: SymVal) -> bool | None:
        n = st.memo.get(v)
        if n is None:
            n = self.norm(v, st)
        if isinstance(n, Lit):
            return bool(n.value)
        if n in st.facts:
            return True
        neg = self._simplify("not", (n,))
        if neg in st.facts:
            return False
        return None

    def _unjoin(self, st: SymState, v: SymVal) -> None:
        """Raise `_Unjoin` on the first guard of a join of `st` in normal
        `v`, in pre-order (as the condition of an ite, or itself, as a lift
        over an ite leaves it), if `_split_run` may still split `st`."""
        if st.joins and self._splits > 1:
            guard = _first(v, st.joins)
            if guard is not None:
                raise _Unjoin(guard)

    def _side(self, st: SymState, guard: SymVal, side: bool
              ) -> SymState | None:
        """A copy of `st` normalised with the guard of a join as the literal
        `side`, which picks one arm of each `ite(guard, x, y)`, and with the
        guard or its negation as a fact; None if infeasible.  The fact
        refines nothing: a guard that bound a symbol or split into
        conjuncts would have stopped the join."""
        s = st.clone()
        s.memo = {guard: Lit(side)}
        self._renormalise(s)
        s.memo = st.memo  # the same substitution: its normal forms hold
        fact = guard if side else self._simplify("not", (guard,))
        if FALSE in s.facts or self._simplify("not", (fact,)) in s.facts:
            return None
        s.facts[fact] = None
        return s

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
                if isinstance(lhs, Sym) and not _mentions(rhs, lhs):
                    self._bind(st, lhs, rhs)
                    return
            return
        # `x.isC` binds x to C over fresh payload symbols, and `!x.isC`
        # to the other constructor of an ADT that has two
        test = n.args[0] if n.name == "not" else n
        if not (isinstance(test, App) and test.name.startswith("is#")
                and isinstance(test.args[0], Sym)):
            return
        ctor = test.name[3:]
        if test is not n:
            others = [c for c in self.siblings.get(ctor, []) if c != ctor]
            ctor = others[0] if len(others) == 1 else None
        params = self.ctor_params.get(ctor)
        if params is not None:
            payload = tuple(self.fresh(p) for p in params)
            self._bind(st, test.args[0], Ctor(ctor, payload))

    def _bind(self, st: SymState, s: Sym, v: SymVal) -> None:
        """Substitute the normal form `v` for `s` from now on, and bring
        the state back to normal form under the grown substitution.

        Only a term that mentions `s` can change.  `norm` reads the
        substitution, `ctor_params` and `_ites`, never the facts; the
        symbols of a normal term are unbound, and every ite in it was built
        after `_ites` turned true, so a term without `s` is still normal.
        So the binding renormalises only the terms that mention `s`, found
        by a probe of their cached symbol sets, and memoises each other one
        as its own normal form."""
        st.subst[s] = v
        st.memo = {}
        self._renormalise(st, s)

    def _renormalise(self, st: SymState, s: Sym | None = None) -> None:
        """Normalise the facts, join guards, stored values, heap keys and
        instance arguments of `st` under its memo, in new dicts, never
        changed in place: a produce may be reading the old store, and
        clones share the guards.  Given `s`, only the terms that mention it
        are normalised, and each other one is memoised as its own normal
        form.  The state becomes infeasible, as `assume` makes it, when two
        cells fall on one key or a rewritten fact is another's negation."""
        memo, old = st.memo, st.facts

        def norm(t: SymVal) -> SymVal:
            if s is None or _mentions(t, s):
                return self.norm(t, st)
            memo[t] = t
            return t

        st.facts = dict.fromkeys([norm(f) for f in old])
        for f in st.facts:
            if f not in old and self._simplify("not", (f,)) in st.facts:
                st.facts = {**st.facts, FALSE: None}
                break
        if st.joins:
            st.joins = dict.fromkeys([norm(g) for g in st.joins])
        st.store = {k: norm(x) for k, x in st.store.items()}
        heap = {(norm(r), f): norm(val) for (r, f), val in st.heap.items()}
        if len(heap) < len(st.heap):
            st.facts[FALSE] = None
        st.heap = heap
        preds: dict = {}
        for (name, args), count in st.preds.items():
            key = (name, tuple([norm(a) for a in args]))
            preds[key] = preds.get(key, 0) + count
        st.preds = preds

    # -- expression evaluation ---------------------------------------------------

    def eval(self, st: SymState, e: V.VExpr, store: dict,
             cache: dict | None, span=None) -> SymVal:
        """The value of `e`, in normal form under `st`'s substitution;
        `cache` is the step's cache for the fields it reads without holding
        them, None in a statement (`_eval_field`).  A statement's `store`
        is `st.store`, which `_bind` keeps normal; under `produce` and
        `consume` a conjunct's binding leaves `store` and `cache` stale, so
        a value read from them is normalised."""
        return self._EVAL[type(e)](self, st, e, store, cache, span)

    # One handler per expression class, in `_EVAL`.  Each takes eval's
    # arguments: (st, e, store, cache, span).

    def _eval_lit(self, st, e, store, cache, span) -> SymVal:
        return Lit(e.value)

    def _eval_var(self, st, e, store, cache, span) -> SymVal:
        if e.name not in store:
            self._err(Category.TRANSLATION,
                      f"use of undeclared variable '{e.name}'", span)
            store[e.name] = self.fresh(e.name)
        v = store[e.name]
        if cache is None:
            return v
        n = st.memo.get(v)
        return self.norm(v, st) if n is None else n

    def _eval_field(self, st, e, store, cache, span) -> SymVal:
        """The held cell's value, else the value kept for the cell in
        `cache`, which the first such read makes a fresh symbol.  A
        statement has no cache: there reading a cell it does not hold is a
        permission error, and the read adds the cell (a repair).  The
        receiver is normal, so it is the key as it is, and so is a held
        cell's value; a value kept in `cache` is normalised, since a
        binding made after the step kept it may have left it stale."""
        base = e.base
        if type(base) is V.Var and base.name in store:  # `_eval_var`
            base = store[base.name]
            if cache is not None:
                n = st.memo.get(base)
                base = self.norm(base, st) if n is None else n
        else:
            base = self._EVAL[type(base)](self, st, base, store, cache, span)
        name = e.fieldname
        if name in self.projections and name not in self.fields:
            return self._op(st, f"proj#{name}", (base,))
        key = (base, name)
        val = st.heap.get(key)
        if val is None:
            if cache is None:
                self._err(Category.PERMISSION,
                          f"no permission to read {V.expr_str(e)}", span)
                cache = st.heap
            val = cache.get(key)
            if val is None:
                val = cache[key] = self.fresh(name)
            else:
                n = st.memo.get(val)
                val = self.norm(val, st) if n is None else n
        return val

    def _eval_is(self, st, e, store, cache, span) -> SymVal:
        base = self._EVAL[type(e.base)](self, st, e.base, store, cache, span)
        return self._op(st, f"is#{e.ctor}", (base,))

    def _eval_ctor(self, st, e, store, cache, span) -> SymVal:
        ev = self._EVAL
        return Ctor(e.name, tuple([ev[type(a)](self, st, a, store, cache, span)
                                   for a in e.args]))

    def _eval_fun(self, st, e, store, cache, span) -> SymVal:
        ev = self._EVAL
        return self._op(st, e.name, tuple([
            ev[type(a)](self, st, a, store, cache, span) for a in e.args]))

    def _eval_seq(self, st, e, store, cache, span) -> SymVal:
        ev = self._EVAL
        return SeqV("", tuple([ev[type(a)](self, st, a, store, cache, span)
                               for a in e.items]))

    def _eval_len(self, st, e, store, cache, span) -> SymVal:
        seq = self._EVAL[type(e.seq)](self, st, e.seq, store, cache, span)
        return self._op(st, "len", (seq,))

    def _eval_binop(self, st, e, store, cache, span) -> SymVal:
        ev, left, right = self._EVAL, e.left, e.right
        return self._op(st, e.op, (
            ev[type(left)](self, st, left, store, cache, span),
            ev[type(right)](self, st, right, store, cache, span)))

    def _eval_unop(self, st, e, store, cache, span) -> SymVal:
        inner = self._EVAL[type(e.operand)](self, st, e.operand, store, cache,
                                            span)
        return self._op(st, "not" if e.op == "!" else "neg", (inner,))

    def _eval_index(self, st, e, store, cache, span) -> SymVal:
        ev, seq, index = self._EVAL, e.seq, e.index
        return self._op(st, "index", (
            ev[type(seq)](self, st, seq, store, cache, span),
            ev[type(index)](self, st, index, store, cache, span)))

    def _eval_drop(self, st, e, store, cache, span) -> SymVal:
        ev, seq, lo = self._EVAL, e.seq, e.lo
        return self._op(st, "drop", (
            ev[type(seq)](self, st, seq, store, cache, span),
            ev[type(lo)](self, st, lo, store, cache, span)))

    def _eval_take(self, st, e, store, cache, span) -> SymVal:
        ev, seq, hi = self._EVAL, e.seq, e.hi
        return self._op(st, "take", (
            ev[type(seq)](self, st, seq, store, cache, span),
            ev[type(hi)](self, st, hi, store, cache, span)))

    def _op(self, st, name: str, args: tuple) -> SymVal:
        """`name(args)` simplified once.  The operands are normal, as every
        value `eval` returns, so the result is, and it is memoised as its
        own normal form."""
        n = self._simplify(name, args)
        st.memo[n] = n
        return n

    _EVAL = Handlers({
        V.IntLit: _eval_lit, V.BoolLit: _eval_lit, V.Var: _eval_var,
        V.FieldAcc: _eval_field, V.IsTest: _eval_is, V.CtorCall: _eval_ctor,
        V.FunApp: _eval_fun, V.SeqLit: _eval_seq, V.SeqLen: _eval_len,
        V.BinOp: _eval_binop, V.UnOp: _eval_unop, V.SeqIndex: _eval_index,
        V.SeqDrop: _eval_drop, V.SeqTake: _eval_take},
        unknown="cannot evaluate")

    # -- produce / consume -------------------------------------------------------

    def produce(self, st: SymState, a: V.VAssertion,
                store: dict) -> list[SymState]:
        return self._PRODUCE[type(a)](self, st, a, store, {})

    # One handler per assertion class, in `_PRODUCE`.  Each takes (st, a,
    # store, cache), `cache` being the produce's (`_eval_field`).

    def _produce_pure(self, st, a, store, cache) -> list[SymState]:
        e = a.expr
        val = self._EVAL[type(e)](self, st, e, store, cache, a.span)
        return [st] if self.assume(st, val) else []

    def _produce_acc(self, st, a, store, cache) -> list[SymState]:
        base = a.loc.base
        key = (self._EVAL[type(base)](self, st, base, store, cache, a.span),
               a.loc.fieldname)
        if key in st.heap:
            return []  # a second whole permission cannot exist
        st.heap[key] = self.fresh(key[1])
        return [st]

    def _produce_pred(self, st, a, store, cache) -> list[SymState]:
        ev = self._EVAL
        key = (a.name, tuple([ev[type(x)](self, st, x, store, cache, a.span)
                              for x in a.args]))
        st.preds[key] = st.preds.get(key, 0) + 1
        return [st]

    def _produce_and(self, st, a, store, cache) -> list[SymState]:
        states, table = [st], self._PRODUCE
        for part in a.parts:
            if len(states) == 1:  # the common case: no list of its own
                states = table[type(part)](self, states[0], part, store, cache)
            else:
                nxt: list[SymState] = []
                for cur in states:
                    nxt += table[type(part)](self, cur, part, store, cache)
                states = nxt
        return states

    def _produce_cond(self, st, a, store, cache) -> list[SymState]:
        table, then, els = self._PRODUCE, a.then, a.els
        cond = self._EVAL[type(a.cond)](self, st, a.cond, store, cache, a.span)
        verdict = self.decide(st, cond)
        if verdict is True:
            return table[type(then)](self, st, then, store, cache)
        if verdict is False:
            return table[type(els)](self, st, els, store, cache)
        other = st.clone()
        out = []
        if self.assume(st, cond):
            out.extend(table[type(then)](self, st, then, store, cache))
        if self.assume(other, self._op(other, "not", (cond,))):
            out.extend(table[type(els)](self, other, els, store, cache))
        return out

    def _produce_let(self, st, a, store, cache) -> list[SymState]:
        inner = dict(store)
        inner[a.name] = self._EVAL[type(a.bound)](self, st, a.bound, store,
                                                  cache, a.span)
        return self._PRODUCE[type(a.body)](self, st, a.body, inner, cache)

    _PRODUCE = Handlers({
        V.Pure: _produce_pure, V.Acc: _produce_acc, V.PredApp: _produce_pred,
        V.AndA: _produce_and, V.CondA: _produce_cond, V.LetA: _produce_let},
        unknown="cannot produce")

    def consume(self, st: SymState, a: V.VAssertion, store: dict,
                ctx: _ConsumeCtx, span=None) -> bool:
        """Exhale `a` from `st`.  Its heap reads see the state before the
        exhale, as in Viper: a read takes the held cell, else the cell kept
        in the consume's cache, where `_consume_acc` moves each cell it
        gives up.  Reports failures and repairs; returns False if anything
        failed."""
        return self._CONSUME[type(a)](self, st, a, store, {}, ctx, span)

    # One handler per assertion class, in `_CONSUME`.  Each takes (st, a,
    # store, cache, ctx, span), `span` being the enclosing one; each
    # reports at `a.span`, else at `span`.

    def _consume_pure(self, st, a, store, cache, ctx, span) -> bool:
        at = span if a.span is None else a.span
        val = self._EVAL[type(a.expr)](self, st, a.expr, store, cache, at)
        verdict = self.decide(st, val)
        if verdict is True:
            return True
        if verdict is False:
            self._err(ctx.pred_category,
                      f"{ctx.what}: condition {V.expr_str(a.expr)} "
                      f"is false", at)
            return False
        self._unjoin(st, val)
        if self.strict:
            self._err(Category.PURE_OBLIGATION,
                      f"{ctx.what}: cannot establish "
                      f"{V.expr_str(a.expr)}", at)
            return False
        self.diags.append(obligation(
            f"{ctx.what}: {V.expr_str(a.expr)} is assumed, not proved",
            at))
        return True

    def _consume_acc(self, st, a, store, cache, ctx, span) -> bool:
        at = span if a.span is None else a.span
        base = a.loc.base
        key = (self._EVAL[type(base)](self, st, base, store, cache, at),
               a.loc.fieldname)
        if key not in st.heap:
            self._err(Category.PERMISSION,
                      f"{ctx.what}: no permission to give up "
                      f"{V.expr_str(a.loc)}", at)
            return False
        cache[key] = st.heap.pop(key)  # later reads still see its value
        return True

    def _consume_pred(self, st, a, store, cache, ctx, span) -> bool:
        at, ev = span if a.span is None else a.span, self._EVAL
        key = (a.name, tuple([ev[type(x)](self, st, x, store, cache, at)
                              for x in a.args]))
        count = st.preds.get(key)
        if count is None:
            self._err(ctx.pred_category,
                      f"{ctx.what}: missing predicate instance "
                      f"{a.name}(" + ", ".join(map(sym_str, key[1]))
                      + ")", at)
            return False
        if count == 1:
            del st.preds[key]
        else:
            st.preds[key] = count - 1
        return True

    def _consume_and(self, st, a, store, cache, ctx, span) -> bool:
        ok, table = True, self._CONSUME
        for part in a.parts:  # keep going after a failure: report all
            ok = table[type(part)](self, st, part, store, cache, ctx,
                                   span) and ok
        return ok

    def _consume_cond(self, st, a, store, cache, ctx, span) -> bool:
        at = span if a.span is None else a.span
        cond = self._EVAL[type(a.cond)](self, st, a.cond, store, cache, at)
        verdict = self.decide(st, cond)
        if verdict is None:
            self._unjoin(st, cond)
            self._err(Category.UNDECIDABLE_BRANCH,
                      f"{ctx.what}: cannot decide "
                      f"{V.expr_str(a.cond)} to pick a branch", at)
            return False
        branch = a.then if verdict else a.els
        return self._CONSUME[type(branch)](self, st, branch, store, cache,
                                           ctx, span)

    def _consume_let(self, st, a, store, cache, ctx, span) -> bool:
        at = span if a.span is None else a.span
        inner = dict(store)
        inner[a.name] = self._EVAL[type(a.bound)](self, st, a.bound, store,
                                                  cache, at)
        return self._CONSUME[type(a.body)](self, st, a.body, inner, cache,
                                           ctx, span)

    _CONSUME = Handlers({
        V.Pure: _consume_pure, V.Acc: _consume_acc, V.PredApp: _consume_pred,
        V.AndA: _consume_and, V.CondA: _consume_cond, V.LetA: _consume_let},
        unknown="cannot consume")

    # -- statements ------------------------------------------------------------------

    def exec_stmt(self, st: SymState, s: V.VStmt) -> list[SymState]:
        return self._EXEC[type(s)](self, st, s)

    # One handler per statement class, in `_EXEC` (defined after
    # `_call`).  Each takes (st, s).

    def _exec_var(self, st, s) -> list[SymState]:
        self._declare(s.name, s.typ)
        e = s.init
        st.store[s.name] = (self.fresh(s.name) if e is None else
                            self._EVAL[type(e)](self, st, e, st.store, None,
                                                s.span))
        return [st]

    def _exec_assign(self, st, s) -> list[SymState]:
        store, target, e = st.store, s.target, s.value
        value = self._EVAL[type(e)](self, st, e, store, None, s.span)
        if type(target) is V.Var:
            store[target.name] = value
            return [st]
        base = target.base
        if type(base) is V.Var and base.name in store:  # `_eval_var`
            base = store[base.name]
        else:
            base = self._EVAL[type(base)](self, st, base, store, None, s.span)
        key = (base, target.fieldname)
        if key not in st.heap:  # the write adds the cell: repair
            self._err(Category.PERMISSION,
                      f"no permission to write {V.expr_str(target)}", s.span)
        st.heap[key] = value
        return [st]

    def _exec_new(self, st, s) -> list[SymState]:
        ref = self.fresh(s.target)
        st.store[s.target] = ref
        for fld in s.fields:
            st.heap[(ref, fld)] = self.fresh(fld)
        return [st]

    def _exec_if(self, st, s) -> list[SymState]:
        cond = self._EVAL[type(s.cond)](self, st, s.cond, st.store, None,
                                        s.span)
        verdict = self.decide(st, cond)
        if verdict is True:
            return self._step_all([st], s.then, self.exec_stmt)
        if verdict is False:
            return self._step_all([st], s.els, self.exec_stmt)
        other = st.clone()
        then = (self._step_all([st], s.then, self.exec_stmt)
                if self.assume(st, cond) else [])
        els = (self._step_all([other], s.els, self.exec_stmt)
               if self.assume(other, self._op(other, "not", (cond,))) else [])
        return self._rejoin(cond, then, els)

    def _exec_fold(self, st, s) -> list[SymState]:
        return self._split_run(st, lambda cur: self._ghost(cur, s))

    def _exec_call(self, st, s) -> list[SymState]:
        return self._split_run(st, lambda cur: self._call(cur, s))

    def _rejoin(self, guard: SymVal, then: list[SymState],
                els: list[SymState]) -> list[SymState]:
        """The states of the two sides of a fork on `guard`: the one that
        `_join` makes of them if each side ends in one, else all."""
        if len(then) == 1 and len(els) == 1:
            joined = self._join(guard, then[0], els[0])
            if joined is not None:
                return [joined]
        return then + els

    def _join(self, guard: SymVal, a: SymState, b: SymState
              ) -> SymState | None:
        """Merge `a` and `b`, the sides of a fork on `guard` (an `if` or a
        split), into `a`, or None.

        They merge when their facts agree apart from the guard and its
        negation, and they differ only in the values of Int or Bool heap
        cells and locals (by the declarations run so far, `local_types`);
        each such value becomes `ite(guard, a's, b's)`.  A guard `not(g)`
        is kept as `g`, with the arms swapped, so that a later condition on
        `g` finds it.  The guard leaves the facts and joins the guards of
        both sides."""
        if guard not in a.facts:  # the fork's, stale after a binding in both
            n = a.memo.get(guard)
            guard = self.norm(guard, a) if n is None else n
        negated = isinstance(guard, App) and guard.name == "not"
        neg = guard.args[0] if negated else App("not", (guard,))  # `_s_not`
        if (guard not in a.facts or a.subst != b.subst or a.preds != b.preds
                or a.heap.keys() != b.heap.keys()
                or a.store.keys() != b.store.keys()
                or a.facts.keys() ^ b.facts.keys() != {guard, neg}):
            return None
        cond = neg if negated else guard
        heap = self._join_values(cond, negated, a, a.heap, b.heap,
                                 lambda k: k[1] in self.scalar_fields)
        store = None if heap is None else self._join_values(
            cond, negated, a, a.store, b.store,
            lambda k: self.local_types.get(k) in _SCALAR)
        if store is None:
            return None
        a.heap, a.store = heap, store
        del a.facts[guard]
        a.joins = {**a.joins, **b.joins, cond: None}
        return a

    def _join_values(self, guard: SymVal, negated: bool, st: SymState,
                     x: dict, y: dict, scalar) -> dict | None:
        out = {}
        for k, v in x.items():
            w = y[k]
            if v != w:
                if not scalar(k):
                    return None
                v = self._op(st, "ite", (guard, w, v) if negated
                             else (guard, v, w))
            out[k] = v
        return out

    def _split_run(self, st: SymState, run, budget: int = MAX_PATHS
                   ) -> list[SymState]:
        """`run(st)`, a step that consumes.  If a condition it consumes is
        undecided in `st` and mentions the guard of a join, the step instead
        runs on each feasible side of that join, as if the `if` had forked,
        down to at most `budget` sides, and the two sides' states are joined
        again (`_rejoin`) on that guard."""
        if not st.joins:
            return run(st)
        saved, mark, outer = st.clone(), len(self.diags), self._splits
        self._splits = budget
        try:
            return run(st)
        except _Unjoin as e:
            del self.diags[mark:]
            sides = []
            for side in (True, False):
                s = self._side(saved, e.args[0], side)
                sides.append([] if s is None
                             else self._split_run(s, run, budget // 2))
            return self._rejoin(e.args[0], *sides)
        finally:
            self._splits = outer

    def _step_all(self, states: list[SymState], steps, step,
                  at=None) -> list[SymState]:
        """Apply `step(state, item)` to every state for each item in turn,
        capping the states after each item (reported at `at`, else at the
        item)."""
        for item in steps:
            if len(states) == 1:  # the common case: no list of its own
                states = step(states[0], item)
            else:
                nxt: list[SymState] = []
                for cur in states:
                    nxt += step(cur, item)
                states = nxt
            if len(states) > MAX_PATHS:
                states = self._capped(states, item if at is None else at)
        return states

    def _capped(self, states: list[SymState], at) -> list[SymState]:
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
        arguments, and its instance over those parameters, built once per
        checker.  None, after reporting, for an unknown predicate or a
        wrong arity."""
        found = self.instances.get(s.pred.name)
        if found is None:
            self._err(Category.FOLD_MISMATCH,
                      f"{verb} of unknown predicate '{s.pred.name}'", s.span)
            return None
        decl, names, inst = found
        if len(s.pred.args) != len(names):
            self._err(Category.FOLD_MISMATCH,
                      f"{s.pred.name} takes {len(names)} arguments", s.span)
            return None
        ev = self._EVAL
        binding = {n: ev[type(a)](self, st, a, st.store, None, s.span)
                   for n, a in zip(names, s.pred.args)}
        return decl, binding, inst

    def _ghost(self, st: SymState, s: V.FoldS | V.UnfoldS
               ) -> list[SymState]:
        """`fold` trades a predicate's body for its instance, `unfold` the
        instance for the body."""
        fold = type(s) is V.FoldS
        found = self._instance(st, s, "fold" if fold else "unfold")
        if found is None:
            return [st]
        decl, binding, inst = found
        ctx = _ConsumeCtx(Category.FOLD_MISMATCH,
                          _FoldName(s.pred) if fold else "unfold")
        self.consume(st, decl.body if fold else inst, binding, ctx, s.span)
        return self.produce(st, inst if fold else decl.body, binding)

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
        ev = self._EVAL
        vals = [ev[type(a)](self, st, a, st.store, None, s.span)
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

    _EXEC = Handlers({
        V.VarDeclS: _exec_var, V.AssignS: _exec_assign, V.NewS: _exec_new,
        V.IfS: _exec_if, V.FoldS: _exec_fold, V.UnfoldS: _ghost,
        V.CallS: _exec_call}, unknown="cannot execute")

    # -- whole-method checking ----------------------------------------------------

    def _declare(self, name: str, typ: V.VType) -> None:
        if self.local_types.setdefault(name, typ.name) != typ.name:
            self.local_types[name] = None

    def _err(self, category: Category, message: str, span) -> None:
        self.diags.append(error(category, message, span))

    def check_method(self, m: V.MethodDecl) -> list[Diagnostic]:
        if m.body is None:
            return []
        self._ites = False  # terms do not outlive the method
        self.diags = []
        self.local_types = {}
        st = SymState()
        for name, typ in itertools.chain(m.params, m.returns):
            self._declare(name, typ)
            st.store[name] = self.fresh(name)
        states = self._step_all(
            [st], m.pres, lambda cur, pre: self.produce(cur, pre, cur.store),
            at=m)
        states = self._step_all(states, m.body, self.exec_stmt)
        leaks: list[Diagnostic] = []
        ctx = _ConsumeCtx(Category.CONTRACT_VIOLATION,
                          f"postcondition of {m.name}")

        def consume_posts(cur: SymState) -> list[SymState]:
            for post in m.posts:
                self.consume(cur, post, cur.store, ctx, m.span)
            return [cur]

        states = [s for cur in states
                  for s in self._split_run(cur, consume_posts)]
        for cur in states:
            for rec, fld in sorted(cur.heap,
                                   key=lambda p: (p[1], _key(p[0]))):
                leaks.append(warning(
                    Category.PERMISSION,
                    f"{m.name} leaks permission to "
                    f"{sym_str(rec)}.{fld}", m.span))
            for (name, args), count in sorted(
                    cur.preds.items(),
                    key=lambda kv: (kv[0][0], tuple(map(_key, kv[0][1])))):
                leaks.append(warning(
                    Category.PERMISSION,
                    f"{m.name} leaks {count} instance(s) of "
                    f"{name}(" + ", ".join(sym_str(a) for a in args)
                    + ")", m.span))
        had_errors = any(d.severity is Severity.ERROR for d in self.diags)
        if not had_errors:
            self.diags.extend(leaks)
        return list(dict.fromkeys(self.diags))


def _flat(args: tuple, op: str):
    for a in args:
        if isinstance(a, App) and a.name == op:
            yield from _flat(a.args, op)
        else:
            yield a


def _first(v: SymVal, targets) -> SymVal | None:
    """The first term of `v` in `targets`, a tuple or a set, in pre-order,
    or None; never a literal.  Each node of a shared term is visited once,
    since a chain of joins shares its subterms."""
    seen = set()
    todo = [v]
    while todo:
        t = todo.pop()
        if t in targets and not isinstance(t, Lit):
            return t
        if isinstance(t, _Node) and t not in seen:
            seen.add(t)
            todo.extend(t.args[::-1])
    return None


_NO_SYMS: frozenset = frozenset()


def _mentions(v: SymVal, s: Sym) -> bool:
    """Whether the term `v` mentions the symbol `s`: the occurs check, one
    probe of a compound term's cached symbol set."""
    if isinstance(v, _Node):
        syms = v.syms
        return s in (_syms(v) if syms is None else syms)
    return v == s  # a literal mentions nothing, a symbol itself


def _syms(v: _Node) -> frozenset:
    """The symbols `v` mentions, computed once per node of it and cached as
    its `syms`, the children's before their parent's, on a stack of its
    own as `_first` keeps.  Nodes that mention the same symbols as one of
    their children share its set."""
    todo = [v]
    while todo:
        t = todo[-1]
        if t.syms is not None:
            todo.pop()
            continue
        kids = [a for a in t.args if isinstance(a, _Node) and a.syms is None]
        if kids:
            todo += kids
            continue
        todo.pop()
        found = _NO_SYMS
        for a in t.args:
            more = (a.syms if isinstance(a, _Node)
                    else frozenset((a,)) if isinstance(a, Sym) else _NO_SYMS)
            if not more <= found:
                found = (found | more) if found else more
        t.syms = found
    return v.syms


def check_program(program: V.ViperProgram,
                  strict: bool = False) -> list[Diagnostic]:
    global _TERMS
    outer = _TERMS
    _TERMS = {(Lit, True, bool): TRUE, (Lit, False, bool): FALSE}
    try:
        checker = Checker(program, strict=strict)
        out: list[Diagnostic] = []
        for m in checker.methods.values():
            out.extend(checker.check_method(m))
        return out
    finally:
        _TERMS = outer
