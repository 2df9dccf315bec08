"""Print the work counts that the tier-1 tests pin.

    python tests/work_counts.py [SRC]

It imports `gospel2viper` from SRC, by default the `src/` beside this
file, and prints:

- on `wide_module()`, the benchmark's `wide` shape: the parser's Python
  calls per token, the translator's and the printer's Python and C calls
  per Viper node, and the checker's per method-body statement;
- on the corpus, the checker's `norm` and `decide` calls in all;
- for each binary operator that chains, each stage's Python frames per
  chain element: how much deeper its deepest frame is on a chain of 100
  elements than on one of 50, per element.

A count of calls, unlike a time, repeats exactly on any host, so a change
that claims a speed-up can quote the counts at its base and at its head:
`python tests/work_counts.py BASE/src` runs this file's inputs and
counting on the base's code.  The tests import `wide_module`, `calls`,
`calls_per_token`, `viper_nodes` and `frames_per_element` from here, so
the pinned counts are the printed ones.  It needs only the standard
library, and pytest does not collect it.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "corpus"


def wide_module(n_fields=64, n_methods=2):
    """The benchmark's `wide` shape: a record behind one predicate and
    methods that rewrite every field from one to three others."""
    fields = [f"f{j}" for j in range(n_fields)]
    methods = [f"rewrite_{i}" for i in range(n_methods)]
    lines = ["type t = { " + "; ".join(f"mutable {x} : int" for x in fields)
             + " }",
             "(*@ predicate p (r: t) = r ~> {" + "; ".join(fields) + "} *)"]
    for m in methods:
        lines += [f"let {m} (r: t) =", "  (*@ unfold p r *)"]
        for j, x in enumerate(fields):
            srcs = [fields[(j + 7 * d + 1) % n_fields]
                    for d in range(1 + j % 3)]
            lines.append(f"  r.{x} <- " + " + ".join(f"r.{s}" for s in srcs)
                         + ";")
        lines += ["  (*@ fold p r *)", f"(*@ {m} r requires p r ensures p r *)"]
    lines.append("let caller (r: t) =")
    lines += [f"  {m} r;" for m in methods]
    lines += ["  ()", "(*@ caller r requires p r ensures p r *)"]
    return "\n".join(lines) + "\n"


def calls(fn, *args, events=("call", "c_call")):
    """fn(*args) and the number of profiler `events` it made: by default
    its Python and C calls."""
    n = 0

    def count(frame, event, arg):
        nonlocal n
        n += event in events

    sys.setprofile(count)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, n


def depth(fn, *args):
    """fn(*args) and the depth of the deepest Python frame it reached,
    its own frame being 1."""
    level = deepest = 0

    def count(frame, event, arg):
        nonlocal level, deepest
        if event == "call":
            level += 1
            deepest = max(deepest, level)
        elif event == "return":
            level -= 1

    sys.setprofile(count)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, deepest


def calls_per_token(source):
    """Python-level calls made by parse_module, per source token, and the
    number of tokens."""
    from gospel2viper.lexer import lex
    from gospel2viper.parser import parse_module

    tokens, diags = lex(source)
    assert not diags
    (module, diags), n = calls(parse_module, tokens, events=("call",))
    assert module is not None, [d.message for d in diags]
    return n / len(tokens), len(tokens)


def viper_nodes(program):
    """Viper nodes: every record but a type.  A span is an `int`, so it
    is not counted."""
    from gospel2viper.diagnostics import Record
    from gospel2viper.viper_ast import VType

    count, todo = 0, [program]
    while todo:
        x = todo.pop()
        if isinstance(x, (list, tuple)):
            todo.extend(x)
        elif isinstance(x, Record) and not isinstance(x, VType):
            count += 1
            todo.extend(getattr(x, f) for f in type(x).__slots__)
    return count


def corpus_work() -> tuple:
    """The checker's `norm` and `decide` calls on the corpus files."""
    from gospel2viper.permcheck import Checker, check_program
    from gospel2viper.translate import translate_source

    counts = {"norm": 0, "decide": 0}
    norm, decide = Checker.norm, Checker.decide

    def counted_norm(self, v, st):
        counts["norm"] += 1
        return norm(self, v, st)

    def counted_decide(self, st, v):
        counts["decide"] += 1
        return decide(self, st, v)

    Checker.norm, Checker.decide = counted_norm, counted_decide
    try:
        for path in sorted(CORPUS.glob("*.ml")):
            program, _ = translate_source(path.read_text(encoding="utf-8"))
            if program is not None:
                check_program(program)
    finally:
        Checker.norm, Checker.decide = norm, decide
    return counts["norm"], counts["decide"]


STAGES = ("parse", "translate", "check", "pretty", "reparse")


def chain_source(op, n):
    """A module holding a chain of `n` operands of `op`, a row of
    `viper_ast.BINARY`: for `++`, the body of a logical function over a
    sequence, else a method's update of an int field, for an operator that
    folds ints, or of a bool field."""
    ops = f" {op.surface} "
    if op.surface == "++":
        return ("(*@ function f (s: int sequence) : int sequence = "
                + ops.join(["s"] * n) + " *)\n")
    x = "c.v" if op.fold else "c.b"
    return ("type t = { mutable v : int; mutable b : bool }\n"
            f"let f (c: t) =\n  {x} <- " + ops.join([x] * n) + "\n"
            "(*@ f c requires c ~> {v; b} ensures c ~> {v; b} *)\n")


def chain_depths(op, n):
    """{stage: its deepest Python frame} on `chain_source(op, n)`."""
    from gospel2viper.parser import parse_source
    from gospel2viper.permcheck import check_program
    from gospel2viper.translate import translate
    from gospel2viper.viper_ast import pretty
    from gospel2viper.viper_parser import reparse

    (module, diags), parsing = depth(parse_source, chain_source(op, n))
    assert module is not None and not diags, [d.message for d in diags]
    (program, diags), translating = depth(translate, module)
    assert program is not None and not diags, [d.message for d in diags]
    _, checking = depth(check_program, program)
    text, printing = depth(pretty, program)
    _, reparsing = depth(reparse, text)
    return dict(zip(STAGES, (parsing, translating, checking, printing,
                             reparsing)))


def frames_per_element(op, n=50):
    """{stage: Python frames per chain element of `op`}: how much deeper
    the stage goes on 2n elements than on n, over n."""
    short, long = chain_depths(op, n), chain_depths(op, 2 * n)
    return {stage: (long[stage] - short[stage]) / n for stage in STAGES}


def main(src: str) -> int:
    sys.path.insert(0, src)
    from gospel2viper.parser import parse_source
    from gospel2viper.permcheck import check_program
    from gospel2viper.translate import translate
    from gospel2viper.viper_ast import pretty

    print(f"gospel2viper from {src}, Python {sys.version.split()[0]}")
    source = wide_module()
    per_token, tokens = calls_per_token(source)
    print(f"parser: {per_token:.3f} calls per token ({tokens} tokens)")
    module, diags = parse_source(source)
    (program, diags), translating = calls(translate, module)
    assert program is not None and not diags, [d.message for d in diags]
    n = viper_nodes(program)
    _, printing = calls(pretty, program)
    print(f"translator: {translating / n:.3f} calls per node "
          f"({translating} calls, {n} nodes)")
    print(f"printer: {printing / n:.3f} calls per node "
          f"({printing} calls, {n} nodes)")
    stmts = sum(len(m.body or ()) for m in program.methods().values())
    _, checking = calls(check_program, program)
    print(f"checker: {checking / stmts:.2f} calls per statement "
          f"({checking} calls, {stmts} statements)")
    norms, decides = corpus_work()
    print(f"checker on the corpus: {norms} norm calls, "
          f"{decides} decide calls")
    try:
        from gospel2viper.viper_ast import BINARY
    except ImportError:
        print("frames per chain element: no operator table in this source")
        return 0
    print("frames per chain element, 50 to 100 elements:")
    for op in BINARY:
        if op.group != "none":
            frames = frames_per_element(op)
            print(f"  {op.surface:>2}: " + ", ".join(
                f"{stage} {frames[stage]:g}" for stage in STAGES))
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1] if len(sys.argv) == 2 else str(ROOT / "src")))
