"""Check that the working tree gives the outputs that a git ref gives.

    python tests/equivalence.py REF

It exports REF's `src/` with `git archive` into a temporary directory.
Then one subprocess per side (REF's `src/`, the working tree's `src/`)
computes `test_mutants.digest`, the `.vpr` text plus the sorted
diagnostics without and with `strict`, for the same inputs:

- every token mutant of the corpus, all ~940 of them, where
  `mutant_digests.txt` pins only every third;
- every input of the four bench workloads at seeds 11 and 12, from
  `bench/workloads.py`.

It prints each input whose digest differs and exits 1 if there is any.
It needs only the standard library, and pytest does not collect it.  A
change meant to keep every output runs it against its parent commit.
"""

import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (11, 12)


def inputs() -> dict:
    """{name: source} for every input, built with the working tree."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from test_mutants import mutants
    from workloads import WORKLOADS

    out = dict(mutants())
    for seed in SEEDS:
        for workload, make in sorted(WORKLOADS.items()):
            for i, request in enumerate(make(random.Random(seed), ROOT)):
                for inp in request:
                    out[f"{workload}:{seed}:{i}:{inp.name}"] = inp.source
    return out


def digests(src: Path, sources: Path) -> dict:
    """{name: digest} for the inputs in the JSON file `sources`, computed
    in a subprocess that imports `gospel2viper` from `src`."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, __file__, "--digests", str(src), str(sources)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def worker(src: str, sources: str) -> None:
    sys.path.insert(0, src)
    from test_mutants import digest

    table = json.loads(Path(sources).read_text(encoding="utf-8"))
    json.dump({name: digest(source) for name, source in table.items()},
              sys.stdout)


def main(ref: str) -> int:
    archive = subprocess.run(["git", "archive", ref, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extractall(tmp, filter="data")
            else:
                tar.extractall(tmp)
        table = inputs()
        sources = Path(tmp) / "inputs.json"
        sources.write_text(json.dumps(table), encoding="utf-8")
        before = digests(Path(tmp) / "src", sources)
        after = digests(ROOT / "src", sources)
    differ = [name for name in table if before[name] != after[name]]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(differ)} of {len(table)} inputs differ from {ref}")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--digests"]:
        worker(*sys.argv[2:4])
    elif len(sys.argv) == 2:
        sys.exit(main(sys.argv[1]))
    else:
        sys.exit(__doc__)
