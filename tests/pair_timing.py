"""Time a git ref against the working tree in alternating pairs of runs.

    python tests/pair_timing.py REF WORKLOAD [PAIRS] [SECONDS]

It exports REF's `src/` with `git archive`, as `tests/equivalence.py`
does, and copies the working tree's `src/` beside it, so that both sides
import from paths of one length: with the working tree imported from the
checkout, identical code read 1.4% faster there on `paper`, 9 and 10 of
10 pairs in two runs.  Then it runs PAIRS (default 10, at least 10) pairs
of child processes, one per side, alternating which side runs first.
Both children of a pair get the same PYTHONHASHSEED, the pair's number.

Each child imports `gospel2viper` from its side's `src/` and writes the
seed-11 inputs of WORKLOAD (from `bench/workloads.py`) to a temporary
directory.  It sends every request once untimed, then replays the requests
in whole shuffled passes for SECONDS (default 4) seconds.  Each request is
one `cli.run(RunConfig(paths, check=True))`.  As `bench/run.py` does, the
child times `bench/calibrate.py`'s kernel between requests and scales each
request time to the kernel's reference speed.  The child's sample is the
median scaled request time.

WORKLOAD `import` times set-up instead, as `bench/run.py`'s `setup_s`
does: each child runs fresh interpreters that `import gospel2viper.cli`
from its side's `src/`, one after another for SECONDS seconds, times the
calibration kernel (median of three runs) between them, and its sample
is the median scaled import time.  No bytecode cache is written, as for
the other workloads.

It prints each pair, each side's median and quartiles over the pairs, and
how many pairs the working tree won (took less time).  Last, it says
whether the gain rule holds for the side with the lower median: that side
won at least nine tenths of the pairs, ties counting for neither, and the
medians differ by more than the other side's interquartile range.  It
only reads `bench/`, it needs only the standard library, and pytest does
not collect it.
"""

import io
import os
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 11


def child(src: str, workload: str, seconds: float) -> None:
    """Print the median scaled request time, in ms, of `src` on
    `workload`."""
    sys.path[:0] = [src, str(ROOT / "bench")]
    from time import perf_counter

    from calibrate import kernel_seconds, scaled
    from gospel2viper import cli
    from workloads import WORKLOADS

    requests = WORKLOADS[workload](random.Random(SEED), ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, request in enumerate(requests):
            os.mkdir(Path(tmp, str(i)))
            paths.append([])
            for inp in request:
                path = Path(tmp, str(i), inp.name)
                path.write_text(inp.source, encoding="utf-8")
                paths[-1].append(str(path))
        out = os.path.join(tmp, "out") + os.sep

        def send(i: int) -> None:
            cli.run(cli.RunConfig(paths[i], output=out, check=True,
                                  stdout=io.StringIO(), stderr=io.StringIO()))

        for i in range(len(paths)):
            send(i)
        order = list(range(len(paths)))
        rng = random.Random(SEED)
        times, kernels = [], [kernel_seconds()]
        start = perf_counter()
        while not times or perf_counter() - start < seconds:
            rng.shuffle(order)
            for i in order:
                t = perf_counter()
                send(i)
                times.append(perf_counter() - t)
                kernels.append(kernel_seconds())
    print(statistics.median(scaled(times, kernels)) * 1e3)


def child_import(src: str, seconds: float) -> None:
    """Print the median scaled time, in ms, of a fresh interpreter
    importing the CLI from `src`."""
    sys.path[:0] = [str(ROOT / "bench")]
    from time import perf_counter

    from calibrate import kernel_seconds, scaled

    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-c", "import gospel2viper.cli"]

    def kernel() -> float:
        return statistics.median(kernel_seconds() for _ in range(3))

    times, kernels = [], [kernel()]
    start = perf_counter()
    while len(times) < 3 or perf_counter() - start < seconds:
        t = perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - t)
        kernels.append(kernel())
    print(statistics.median(scaled(times, kernels)) * 1e3)


def sample(src: Path, workload: str, seconds: float, hashseed: int) -> float:
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, __file__, "--child", str(src), workload,
         str(seconds)],
        env=env, capture_output=True, text=True, check=True,
        timeout=seconds + 300)
    return float(done.stdout)


def quartiles(xs: list) -> str:
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return (f"median {q2:.3f} ms, quartiles {q1:.3f}-{q3:.3f} "
            f"(IQR {q3 - q1:.3f})")


def gain_rule(winner: str, loser: str, wins: int, pairs: int,
              fast: list, slow: list) -> str:
    """The verdict of the gain rule on `winner`, whose times are `fast`,
    over `loser`, whose times are `slow`."""
    q1, q2, q3 = statistics.quantiles(slow, n=4)
    gap = q2 - statistics.median(fast)
    holds = 10 * wins >= 9 * pairs and gap > q3 - q1
    return (f"gain rule, {winner} over {loser}: "
            f"{'holds' if holds else 'does not hold'}; won {wins} of "
            f"{pairs} pairs, medians {gap:.3f} ms apart, {loser}'s IQR "
            f"{q3 - q1:.3f} ms")


def main(ref: str, workload: str, pairs: int, seconds: float) -> int:
    archive = subprocess.run(["git", "archive", ref, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    parent, change, won, lost = [], [], 0, 0
    with tempfile.TemporaryDirectory() as tmp:
        sides = (Path(tmp, "0", "src"), Path(tmp, "1", "src"))
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extractall(sides[0].parent, filter="data")
            else:
                tar.extractall(sides[0].parent)
        shutil.copytree(ROOT / "src", sides[1],
                        ignore=shutil.ignore_patterns("__pycache__"))
        for pair in range(pairs):
            first = pair % 2  # alternate which side runs first
            times = {}
            for side in (first, 1 - first):
                times[side] = sample(sides[side], workload, seconds, pair)
            parent.append(times[0])
            change.append(times[1])
            won += times[1] < times[0]
            lost += times[0] < times[1]
            print(f"pair {pair}: {ref} {times[0]:.3f} ms, working tree "
                  f"{times[1]:.3f} ms ({times[1] / times[0] - 1:+.1%})",
                  flush=True)
    print(f"{ref}: {quartiles(parent)}")
    print(f"working tree: {quartiles(change)}")
    delta = statistics.median(change) / statistics.median(parent) - 1
    print(f"median {delta:+.1%}; the working tree won {won} of {pairs} "
          f"pairs")
    if delta <= 0:
        print(gain_rule("the working tree", ref, won, pairs, change, parent))
    else:
        print(gain_rule(ref, "the working tree", lost, pairs, parent, change))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"] and sys.argv[3] == "import":
        child_import(sys.argv[2], float(sys.argv[4]))
    elif sys.argv[1:2] == ["--child"]:
        child(sys.argv[2], sys.argv[3], float(sys.argv[4]))
    elif len(sys.argv) in (3, 4, 5):
        n = int(sys.argv[3]) if len(sys.argv) > 3 else 10
        if n < 10:
            sys.exit("PAIRS must be at least 10")
        secs = float(sys.argv[4]) if len(sys.argv) > 4 else 4.0
        sys.exit(main(sys.argv[1], sys.argv[2], n, secs))
    else:
        sys.exit(__doc__)
