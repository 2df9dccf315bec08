"""Seeded input generators for the benchmark workloads.

Every workload is a list of requests; a request is a list of input files
(name, source text) that one `cli.run` call translates and checks.  The
generated families do not draw their size parameters at random: each pool
spreads K or F evenly over its range, and the seed draws the names,
constants and operands.  So every seed gives a pool of the same shape, and
a per-request median measures the code, not which sizes a seed drew.

Each file carries its known answer: the error-severity diagnostics that
`--check` must report, as (category, substring of the message) pairs.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

CORPUS = Path("tests") / "corpus"

# The checker's warning when it drops paths; such a verdict is incomplete.
CAP_WARNING = re.compile(r"more than \d+ symbolic paths")

# Hand-written answers from tests/corpus/README.md.  queue.ml is the paper's
# own verified example, so its known answer is a clean check even though the
# checker reports false alarms on it today.
PAPER_FILES = {
    "queue.ml": [],
    "checker_queue.ml": [],
    "foo_fixed.ml": [],
    "foo_missing_unfold.ml": [("permission", "c.v")],
    "empty.ml": [],
}


@dataclass(frozen=True)
class Input:
    name: str
    source: str
    expect: tuple = ()  # (category, message substring) per expected error
    golden: str | None = None  # expected Viper text, compared token-wise


def _spread(lo: int, hi: int, n: int) -> list[int]:
    """n values spread evenly over [lo, hi], ascending."""
    return [lo + round((hi - lo) * i / (n - 1)) for i in range(n)]


def _tag(rng: random.Random) -> str:
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789")
                   for _ in range(4))


def paper(rng: random.Random, root: Path) -> list[list[Input]]:
    """The five corpus files in every request, in eight seeded orders."""
    golden = (root / CORPUS / "queue.vpr").read_text(encoding="utf-8")
    files = [Input(name, (root / CORPUS / name).read_text(encoding="utf-8"),
                   tuple(expect), golden if name == "queue.ml" else None)
             for name, expect in PAPER_FILES.items()]
    requests = []
    for _ in range(8):
        order = files[:]
        rng.shuffle(order)
        requests.append(order)
    return requests


_QUEUE_FUNCTIONS = re.compile(r"\b(create|add_empty)\b")


def module(rng: random.Random, root: Path) -> list[list[Input]]:
    """N in [10, 50] renamed copies of checker_queue.ml's two functions
    under its types and predicates: 7-35 KB of source that checks clean,
    with many short methods and no path cap."""
    source = (root / CORPUS / "checker_queue.ml").read_text(encoding="utf-8")
    head, let, functions = source.partition("let create ")
    functions = let + functions
    requests = []
    for i, n in enumerate(_spread(10, 50, 9)):
        parts = [head]
        for _ in range(n):
            tag = _tag(rng)
            parts.append(_QUEUE_FUNCTIONS.sub(
                lambda m: f"{m.group(1)}_{tag}", functions))
        requests.append([Input(f"module{i:02d}.ml", "\n".join(parts))])
    return requests


def branchy(rng: random.Random, root: Path) -> list[list[Input]]:
    """1-3 methods of K in [3, 9] sequential guarded increments.

    A method forks 2^K paths, so K >= 6 reaches the checker's 32-path cap.
    The pool holds one file for each largest K and method count, so 12 of
    its 21 files are capped for every seed.  The guards' bounds are
    distinct multiples of 10: the checker decides a guard only when the
    same one is already on the path, and `r.f0 + c > b` (c < 10 guards
    taken before it) never repeats, so every path is explored and neither
    the cap nor the work depends on the bounds the seed draws."""
    requests = []
    shapes = [(top, count) for top in range(3, 10) for count in (1, 2, 3)]
    for i, (top, count) in enumerate(shapes):
        ks = [top] + [max(3, top - 2 * j - 1) for j in range(count - 1)]
        rng.shuffle(ks)
        lines = ["type t = { mutable f0 : int }", "",
                 "(*@ predicate p (r: t) = r ~> {f0} *)", ""]
        for k in ks:
            name = f"bump_{_tag(rng)}"
            lines.append(f"let {name} (r: t) =")
            lines.append("  (*@ unfold p r *)")
            for bound in rng.sample(range(-50, 60, 10), k):
                lines.append(f"  if r.f0 > {bound} then r.f0 <- r.f0 + 1;")
            lines.append("  (*@ fold p r *)")
            lines.append(f"(*@ {name} r requires p r ensures p r *)")
            lines.append("")
        requests.append([Input(f"branchy{i:02d}.ml", "\n".join(lines))])
    return requests


def wide(rng: random.Random, root: Path) -> list[list[Input]]:
    """A record of F in [32, 256] fields behind one predicate, M in [2, 6]
    methods that rewrite every field from 1-3 others, and one caller."""
    requests = []
    for i, f in enumerate(_spread(32, 256, 15)):
        m = 2 + i % 5
        fields = [f"f{j}" for j in range(f)]
        decl = "; ".join(f"mutable {x} : int" for x in fields)
        lines = [f"type t = {{ {decl} }}", "",
                 f"(*@ predicate p (r: t) = r ~> {{{'; '.join(fields)}}} *)",
                 ""]
        names = [f"rewrite_{_tag(rng)}" for _ in range(m)]
        for name in names:
            lines.append(f"let {name} (r: t) =")
            lines.append("  (*@ unfold p r *)")
            for x in fields:
                srcs = rng.sample(fields, rng.randint(1, 3))
                rhs = " + ".join(f"r.{s}" for s in srcs)
                lines.append(f"  r.{x} <- {rhs};")
            lines.append("  (*@ fold p r *)")
            lines.append(f"(*@ {name} r requires p r ensures p r *)")
            lines.append("")
        lines.append("let caller (r: t) =")
        lines.extend(f"  {name} r;" for name in names)
        lines.append("  ()")
        lines.append("(*@ caller r requires p r ensures p r *)")
        requests.append([Input(f"wide{i:02d}.ml", "\n".join(lines) + "\n")])
    return requests


WORKLOADS = {"paper": paper, "module": module, "branchy": branchy,
             "wide": wide}
