"""A fixed pure-Python kernel that measures how fast the machine is now.

On a shared host the same request can take twice as long in one minute
as in the next, while CPU time tracks wall time (no steal, no descheduling):
the cores themselves run slower, and can switch speed within a second.
The benchmark runs this kernel before and after every timed request and
scales the request's time by how much slower than KERNEL_MS the kernel
ran on either side of it, so that the reported times are those of a
machine of fixed speed.  On a 2-vCPU Xeon VM whose speed switched between
two levels, the kernel slowed by 1.65-1.70x and requests of every
workload by 1.62-1.67x.

The kernel does the kinds of work the pipeline does: a regex scan, dict
counting, tuples, a sort, building a tree of small objects and printing
it recursively.  It never changes with the program.  It runs with the
cyclic collector off and makes no cycles, so the program's heap does not
change its time.
"""

from __future__ import annotations

import gc
import re
from time import perf_counter

# The kernel's median time on the 2-vCPU Xeon VM the benchmark was
# written on.  Scaled times are times on a machine where it takes this.
KERNEL_MS = 1.5

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|\d+|\S")
_TEXT = "\n".join(
    f"let f{i} (r: t) = (*@ unfold p r *) r.f{i % 7} <- r.f{i * 3 % 7} + {i};"
    for i in range(60))


class _Node:
    __slots__ = ("kind", "kids", "text")

    def __init__(self, kind, kids, text):
        self.kind, self.kids, self.text = kind, kids, text


def _build(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node("leaf", (), f"x{i}")
    return _Node("op" if depth % 2 else "seq",
                 tuple(_build(depth - 1, i * 3 + j) for j in range(3)), "")


def _show(node: _Node) -> str:
    if not node.kids:
        return node.text
    sep = " + " if node.kind == "op" else "; "
    return "(" + sep.join(_show(k) for k in node.kids) + ")"


def kernel() -> int:
    counts: dict[str, int] = {}
    toks = _WORD.findall(_TEXT)
    for tok in toks:
        counts[tok] = counts.get(tok, 0) + 1
    rows = []
    for tok in toks:
        if tok.isidentifier():
            rows.append((tok, len(tok), counts[tok]))
        elif tok.isdigit():
            rows.append(("int", int(tok), 0))
    total = sum(a * b + len(name) for name, a, b in rows)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return total + len(ranked) + len(_show(_build(6, 0)))


def kernel_seconds() -> float:
    """Wall time of one kernel run."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(times: list[float], kernels: list[float]) -> list[float]:
    """Each time at the speed where the kernel takes KERNEL_MS.  times[i]
    was taken between kernels[i] and kernels[i + 1], so it is divided by
    their mean."""
    assert len(kernels) == len(times) + 1
    return [t * KERNEL_MS / 1e3 / ((kernels[i] + kernels[i + 1]) / 2)
            for i, t in enumerate(times)]
