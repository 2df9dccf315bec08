"""Closed-loop benchmark of `gospel2viper FILE... --check`.

    python3 bench/run.py --workload wide --seed 1 --seconds 30 --trace 0

One client, one thread: each request is one in-process
`gospel2viper.cli.run(RunConfig(files, check=True))`, sent only after the
previous one returned.  The inputs are generated from the seed (see
workloads.py) and written to disk before timing starts; the timed loop
replays them in whole passes, reshuffled every pass so that a change in
machine speed during the run falls on every input alike.

Every verdict is checked after its request, outside the timed region:

- the error diagnostics of each file against its known answer;
- the emitted text: `golden_equal` against tests/corpus/queue.vpr for
  queue.ml, and `pretty(reparse(text)) == text` for every other file.
  Texts are compared, never trees: dataclass equality on a long
  conjunction chain overflows the stack.

A verdict *fails* when `run` raised, exited 2, exited 1 without an error
(or 0 with one), or the emitted text fails its check; those are broken
operations.  A verdict that is well formed but differs from the known
answer is *wrong*: that is the checker's precision, reported as
`verdict_ok_share` (queue.ml's false alarms show there).

The checker scans sets of permissions in iteration order, so its work on
one input changes with the string hash seed by up to about 10%.  So that a
run measures the average over hash seeds rather than whichever one its
process drew, `--trace 0` splits the timed loop over REPLAYS child
processes, run one after the other, each with its own PYTHONHASHSEED
derived from `--seed`, and pools their request times.

The host's speed drifts by up to about 2x, within seconds, so every request
and set-up time of `--trace 0` is scaled by the calibration kernel timed
on either side of it (see calibrate.py) to a machine of fixed speed.

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics of a traced run (see layers.py) and writes its spans to
.bench_work/spans-<workload>-<seed>.jsonl.  The last line of stdout is the
JSON result; the line before it records the seed, a sha256 of the
generated inputs, the number of requests sent and, for `--trace 0`, the
unscaled median request time and the kernel's median time.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import io
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from calibrate import kernel_seconds, scaled
from workloads import CAP_WARNING, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_RUNS = 11
REPLAYS = 6  # child processes, one hash seed each, per timed loop
DIAG = re.compile(r"^(.+?):\d+:\d+: (error|warning|obligation)\[([\w-]+)\]: "
                  r"(.*)$")


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing the CLI module,
    after one import that fills the bytecode cache; scaled by the
    calibration kernel (median of three runs) on either side of each."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", "import gospel2viper.cli"]

    def kernel() -> float:
        return statistics.median(kernel_seconds() for _ in range(3))

    subprocess.run(argv, env=env, cwd=ROOT, check=True)
    times, kernels = [], [kernel()]
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - start)
        kernels.append(kernel())
    return statistics.median(scaled(times, kernels))


class Bench:
    def __init__(self, workload: str, seed: int, workdir: Path,
                 replay: int = 0):
        rng = random.Random(seed)
        self.requests = WORKLOADS[workload](rng, ROOT)
        self.order_rng = random.Random(f"{seed}:{replay}")
        self.outdir = workdir / "out"
        indir = workdir / "in"
        indir.mkdir(parents=True)
        self.outdir.mkdir()
        digest = hashlib.sha256()
        self.inputs = {}  # path -> Input
        for req in self.requests:
            for inp in req:
                digest.update(inp.name.encode() + b"\0"
                              + inp.source.encode() + b"\0")
                path = str(indir / inp.name)
                if path not in self.inputs:
                    Path(path).write_text(inp.source, encoding="utf-8")
                    self.inputs[path] = inp
        self.paths = [[str(indir / inp.name) for inp in req]
                      for req in self.requests]
        self.sha256 = digest.hexdigest()
        self.source_bytes = [sum(len(inp.source.encode()) for inp in req)
                             for req in self.requests]
        self.checked: dict[tuple, bool] = {}  # (golden, text) -> verdict
        self.memo = True
        self.times: list[float] = []
        self.kernels: list[float] = []  # calibration kernel around each
        self.attempted = self.failed = self.ok = self.complete = 0
        self.kib = 0.0
        self.vpr_bytes: dict[str, int] = {}  # input name -> emitted bytes
        self.rss_kib = 0
        self.wall: list[float] = []  # unscaled request times of the children

    def output_ok(self, inp, text: str) -> bool:
        from gospel2viper import viper_ast, viper_parser
        key = (inp.golden, text)
        if self.memo and key in self.checked:
            return self.checked[key]
        try:
            if inp.golden is not None:
                ok = viper_ast.golden_equal(text, inp.golden)
            else:
                ok = viper_ast.pretty(viper_parser.reparse(text)) == text
        except Exception:  # any crash of the check is a failed output
            traceback.print_exc()
            ok = False
        self.checked[key] = ok
        return ok

    def request(self, i: int) -> None:
        from gospel2viper import cli
        paths = self.paths[i]
        out, err = io.StringIO(), io.StringIO()
        config = cli.RunConfig(paths, output=str(self.outdir) + os.sep,
                               check=True, stdout=out, stderr=err)
        start = perf_counter()
        try:
            status = cli.run(config)
        except Exception:  # a crash fails every verdict of the request
            traceback.print_exc()
            status = None
        self.times.append(perf_counter() - start)
        self.kib += self.source_bytes[i] / 1024
        self.attempted += len(paths)
        if status not in (0, 1):
            self.failed += len(paths)
            return
        errors = {p: [] for p in paths}
        capped = set()
        for line in err.getvalue().splitlines():
            m = DIAG.match(line)
            if m is None or m.group(1) not in errors:
                continue
            path, severity, category, message = m.groups()
            if severity == "error":
                errors[path].append((category, message))
            if CAP_WARNING.search(message):
                capped.add(path)
        if (status == 1) != any(errors.values()):  # exit 1 iff errors
            self.failed += len(paths)
            return
        written = set(out.getvalue().splitlines())
        for path in paths:
            inp = self.inputs[path]
            target = str(self.outdir / (Path(path).stem + ".vpr"))
            if target not in written:
                self.failed += 1
                continue
            text = Path(target).read_text(encoding="utf-8")
            self.vpr_bytes[inp.name] = len(text.encode())
            if not self.output_ok(inp, text):
                self.failed += 1
                continue
            self.ok += _matches(errors[path], inp.expect)
            self.complete += path not in capped

    def one_pass(self, tracer=None, calibrate=False) -> list[float]:
        """Send every request once, in a fresh seeded order, and return
        their times.  With `calibrate`, time the calibration kernel after
        each request (`loop` times it once before the first)."""
        n = len(self.times)
        order = list(range(len(self.requests)))
        self.order_rng.shuffle(order)
        for i in order:
            if tracer is not None:
                tracer.request += 1
            self.request(i)
            if calibrate:
                self.kernels.append(kernel_seconds())
        return self.times[n:]

    def loop(self, seconds: float) -> None:
        """Send the smallest request once untimed, then replay the requests
        in whole passes, at least one, until `seconds` have gone."""
        start = perf_counter()
        self.request(min(range(len(self.requests)),
                         key=self.source_bytes.__getitem__))
        for _ in range(3):
            kernel_seconds()
        self.kernels.append(kernel_seconds())
        self.times.clear()
        self.kib = 0.0
        self.attempted = self.failed = self.ok = self.complete = 0
        self.one_pass(calibrate=True)
        while perf_counter() - start < seconds:
            self.one_pass(calibrate=True)

    def tally(self) -> dict:
        """The loop's results, with request times scaled to the kernel's
        reference speed ("times") and as measured ("wall")."""
        return {"times": scaled(self.times, self.kernels),
                "wall": self.times, "kernels": self.kernels,
                "kib": self.kib,
                "attempted": self.attempted, "failed": self.failed,
                "ok": self.ok, "complete": self.complete,
                "vpr_bytes": self.vpr_bytes,
                "rss_kib":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}

    def merge(self, tally: dict) -> None:
        self.times += tally["times"]
        self.wall += tally["wall"]
        self.kernels += tally["kernels"]
        self.kib += tally["kib"]
        for key in ("attempted", "failed", "ok", "complete"):
            setattr(self, key, getattr(self, key) + tally[key])
        self.vpr_bytes.update(tally["vpr_bytes"])
        self.rss_kib = max(self.rss_kib, tally["rss_kib"])


def replay(args, index: int) -> dict:
    """Run `loop` for a share of the run in a child process with its own
    hash seed; return the child's tally."""
    env = dict(os.environ,
               PYTHONHASHSEED=str((args.seed * REPLAYS + index) % 2**32))
    share = args.seconds / REPLAYS
    argv = [sys.executable, __file__, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(share),
            "--replay", str(index)]
    proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, check=True, timeout=share + 120)
    return json.loads(proc.stdout)


def _matches(errors: list, expect: tuple) -> bool:
    """Each expected (category, substring) is met by a distinct error and
    no error is left over."""
    left = list(errors)
    for category, needle in expect:
        hit = next((e for e in left if e[0] == category and needle in e[1]),
                   None)
        if hit is None:
            return False
        left.remove(hit)
    return not left


def end_to_end(bench: Bench, setup: float) -> dict:
    """Metric name -> (value, unit) over the requests sent so far."""
    ms = [t * 1e3 for t in bench.times]
    return {
        "request_ms.p50": (statistics.median(ms), "ms"),
        "request_ms.p90":
            (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
        "throughput_kb_s": (bench.kib / sum(bench.times), "KiB/s"),
        "verdict_ok_share": (bench.ok / bench.attempted, "share"),
        "complete_share": (bench.complete / bench.attempted, "share"),
        "vpr_kb": (sum(bench.vpr_bytes.values()) / 1024, "KiB"),
        "peak_rss_mb": (bench.rss_kib / 1024, "MiB"),
        "setup_s": (setup, "s"),
    }


def per_layer(bench: Bench, seconds: float, spans_path: Path) -> dict:
    """Metric name -> (value, unit): times per traced request, counts per
    pass over the workload's requests."""
    from layers import Tracer, count_requests
    # Traced and untraced passes alternate, so that a change of machine
    # speed during the run does not show up as tracing overhead.
    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        untraced += bench.one_pass()
        bench.memo = False  # reparse every output, so the reparser is timed
        with tracer.installed():
            traced += bench.one_pass(tracer)
        bench.memo = True
    n = len(traced)
    tracer.dump(spans_path)

    counts = collections.Counter(
        count_requests(bench.paths, str(bench.outdir) + os.sep))

    own = tracer.self_times()
    total = tracer.total_times()
    lex_s = total["lexer.source"] + total["lexer.annot"]

    def ms(x: float) -> tuple:
        return (x * 1e3 / n, "ms")

    def count(name: str) -> tuple:
        return (counts[name], "count")

    return {
        "cli.self_ms": ms(own["cli.run"] + own["cli.translate_source"]),
        "lexer.source_ms": ms(total["lexer.source"]),
        "lexer.annot_ms": ms(total["lexer.annot"]),
        "lexer.tokens": count("lexer.tokens"),
        "lexer.kb_s": (tracer.lexed_bytes / 1024 / lex_s, "KiB/s"),
        "parser.self_ms": ms(own["parser.parse_module"]),
        "parser.annotations": count("parser.annotations"),
        "translate.ms": ms(total["translate.translate"]),
        "translate.viper_nodes": count("translate.viper_nodes"),
        "permcheck.ms": ms(total["permcheck.check_program"]),
        "permcheck.methods": count("permcheck.methods"),
        "permcheck.cap_hits": count("permcheck.cap_hits"),
        "permcheck.errors": count("permcheck.errors"),
        "permcheck.obligations": count("permcheck.obligations"),
        "permcheck.norm_calls": count("permcheck.norm_calls"),
        "permcheck.decide_calls": count("permcheck.decide_calls"),
        "viper_ast.pretty_ms": ms(total["viper_ast.pretty"]),
        "viper_ast.vpr_bytes": (counts["viper_ast.vpr_bytes"], "B"),
        "diagnostics.ms": ms(total["diagnostics.LineIndex"]
                             + total["diagnostics.render"]),
        "viper_parser.reparse_ms": ms(total["viper_parser.reparse"]),
        "viper_ast.lex_viper_ms": ms(total["viper_ast.lex_viper"]),
        "tracing.overhead_pct":
            ((statistics.median(traced) / statistics.median(untraced) - 1)
             * 100, "%"),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--replay", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "gospel2viper" / "cli.py").is_file():
        print(f"bench: no gospel2viper sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".bench_work"
    workdir = work / f"{args.workload}-{os.getpid()}"
    if args.replay is not None:  # one child of a timed loop
        try:
            bench = Bench(args.workload, args.seed, workdir, args.replay)
            bench.loop(args.seconds)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps(bench.tally()))
        return 0
    try:
        bench = Bench(args.workload, args.seed, workdir)
        if args.trace:
            spans = work / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics = per_layer(bench, args.seconds, spans)
        else:
            setup = setup_seconds()
            for i in range(REPLAYS):
                bench.merge(replay(args, i))
            metrics = end_to_end(bench, setup)
    except FileNotFoundError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {"workload": args.workload, "seed": args.seed,
            "inputs_sha256": bench.sha256, "requests": len(bench.times)}
    if bench.wall:
        info["wall_ms.p50"] = statistics.median(bench.wall) * 1e3
        info["kernel_ms.p50"] = statistics.median(bench.kernels) * 1e3
    print(json.dumps(info))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
