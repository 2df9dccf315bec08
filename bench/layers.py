"""Per-layer spans and counts, taken by wrapping the pipeline's module
attributes from outside.  Nothing under src/ knows it is being traced.

Two separate instruments, so that neither distorts the other:

- `Tracer` records spans (name, start, end, parent, request) around each
  layer boundary.  Spans stay in memory until the run ends.
- `WorkCounter` counts work at the same boundaries, plus every call to
  `Checker.norm` and `Checker.decide`.  Wrapping those two costs more
  than the work they do, so counts are taken in a pass of their own.

The checker keeps held permissions in a set and scans it in iteration
order, so the number of `norm` calls depends on the string hash seed.
The counting pass therefore runs in a child process with a fixed
PYTHONHASHSEED (see `count_requests`), which makes every count repeat
exactly on the same inputs.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from gospel2viper import cli, parser, permcheck, viper_ast, viper_parser
from gospel2viper.diagnostics import Diagnostic, Severity
from workloads import CAP_WARNING

translate_mod = sys.modules["gospel2viper.translate"]


@contextlib.contextmanager
def patched(replacements):
    """Set each (owner, attribute, value) and restore it on exit."""
    saved = [(owner, attr, getattr(owner, attr))
             for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, request)
        self._stack: list[int] = []
        self.request = 0
        self.lexed_bytes = 0

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request)
        return traced

    def installed(self):
        """Wrap the layer boundaries that one `cli.run` request crosses,
        and the reparser the output check calls."""
        lex = parser.lex
        source_lex = self.wrap("lexer.source", lex)
        annot_lex = self.wrap("lexer.annot", lex)

        def traced_lex(source, base=0, spec_mode=False):
            self.lexed_bytes += len(source.encode())
            return (annot_lex if spec_mode else source_lex)(
                source, base, spec_mode)

        render = Diagnostic.render
        return patched([
            (cli, "run", self.wrap("cli.run", cli.run)),
            (parser, "lex", traced_lex),
            (parser, "parse_module",
             self.wrap("parser.parse_module", parser.parse_module)),
            (translate_mod, "translate",
             self.wrap("translate.translate", translate_mod.translate)),
            (cli, "translate_source",
             self.wrap("cli.translate_source", cli.translate_source)),
            (cli, "check_program",
             self.wrap("permcheck.check_program", cli.check_program)),
            (cli, "pretty", self.wrap("viper_ast.pretty", cli.pretty)),
            (cli, "LineIndex",
             self.wrap("diagnostics.LineIndex", cli.LineIndex)),
            (Diagnostic, "render", self.wrap("diagnostics.render", render)),
            (viper_parser, "lex_viper",
             self.wrap("viper_ast.lex_viper", viper_parser.lex_viper)),
            (viper_parser, "reparse",
             self.wrap("viper_parser.reparse", viper_parser.reparse)),
        ])

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span less the time its children
        cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = collections.defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def total_times(self) -> dict[str, float]:
        out: dict[str, float] = collections.defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines, times in microseconds from the
        first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, request in self.spans:
                f.write(json.dumps({
                    "name": name, "start_us": round((start - t0) * 1e6, 1),
                    "end_us": round((end - t0) * 1e6, 1), "parent": parent,
                    "request": request}) + "\n")


def ir_nodes(program) -> int:
    """Number of Viper AST nodes, types excluded."""
    count, todo = 0, [program]
    while todo:
        x = todo.pop()
        if isinstance(x, (list, tuple)):
            todo.extend(x)
        elif (dataclasses.is_dataclass(x)
              and not isinstance(x, viper_ast.VType)):
            count += 1
            todo.extend(getattr(x, f.name) for f in dataclasses.fields(x))
    return count


class WorkCounter:
    def __init__(self):
        self.counts = collections.Counter()

    def installed(self):
        c = self.counts
        lex, translate = parser.lex, translate_mod.translate
        check_program, pretty = cli.check_program, cli.pretty
        norm, decide = permcheck.Checker.norm, permcheck.Checker.decide

        def counted_lex(source, base=0, spec_mode=False):
            toks, diags = lex(source, base, spec_mode)
            c["lexer.tokens"] += len(toks)
            c["parser.annotations"] += spec_mode
            return toks, diags

        def counted_translate(*args, **kwargs):
            program, diags = translate(*args, **kwargs)
            if program is not None:
                c["translate.viper_nodes"] += ir_nodes(program)
            return program, diags

        def counted_check(program, *args, **kwargs):
            diags = check_program(program, *args, **kwargs)
            c["permcheck.methods"] += sum(
                m.body is not None for m in program.methods().values())
            for d in diags:
                if d.severity is Severity.ERROR:
                    c["permcheck.errors"] += 1
                elif d.severity is Severity.OBLIGATION:
                    c["permcheck.obligations"] += 1
                c["permcheck.cap_hits"] += bool(CAP_WARNING.search(d.message))
            return diags

        def counted_pretty(program):
            text = pretty(program)
            c["viper_ast.vpr_bytes"] += len(text.encode())
            return text

        def counted_norm(checker, v, st):
            c["permcheck.norm_calls"] += 1
            return norm(checker, v, st)

        def counted_decide(checker, st, v):
            c["permcheck.decide_calls"] += 1
            return decide(checker, st, v)

        return patched([
            (parser, "lex", counted_lex),
            (translate_mod, "translate", counted_translate),
            (cli, "check_program", counted_check),
            (cli, "pretty", counted_pretty),
            (permcheck.Checker, "norm", counted_norm),
            (permcheck.Checker, "decide", counted_decide),
        ])


def count_requests(requests: list[list[str]], outdir: str) -> dict:
    """Counts for one `cli.run(..., check=True)` per request, taken in a
    child process with PYTHONHASHSEED=0."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=src)
    proc = subprocess.run([sys.executable, __file__, outdir],
                          input=json.dumps(requests), env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _count_main() -> None:
    outdir = sys.argv[1]
    counter = WorkCounter()
    with counter.installed():
        for paths in json.load(sys.stdin):
            cli.run(cli.RunConfig(paths, output=outdir, check=True,
                                  stdout=io.StringIO(), stderr=io.StringIO()))
    json.dump(dict(counter.counts), sys.stdout)


if __name__ == "__main__":
    _count_main()
