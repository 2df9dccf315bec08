"""Command-line driver: translate sources, check permissions, emit files.

All file I/O lives here; the rest of the package is pure.  Output is
deterministic: inputs are processed in argument order, diagnostics are
sorted within each file, and written files are announced on stdout one
path per line.

Each output is written in place: its file is opened without truncating
it, the new text is written over the old bytes, and a regular file is
then cut to the new length.  The write is not atomic, and truncating
first would not be either: a crash mid-write can leave a torn `.vpr`,
which the next run rewrites.  Each output directory is created once per
run.

Exit status: 0 when no error-severity diagnostics were produced, 1 when
some were, 2 on I/O or usage failures.  An input that is not UTF-8 is an
I/O failure, reported as one that cannot be read.  Two inputs that map to
one output path, and an output path that is the same file as an input,
are usage failures, found before anything is written.  An external
verifier named by $GOSPEL2VIPER_VERIFIER is invoked as
`<command> <file.vpr>` for every written file; its status is reported on
stderr and never changes the exit status of this tool.
"""

from __future__ import annotations

import argparse
import os
import shlex
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from stat import S_ISREG

from .diagnostics import Diagnostic, LineIndex, has_errors, sort_key
from .permcheck import check_program
from .translate import translate_source
from .viper_ast import pretty

VERIFIER_ENV = "GOSPEL2VIPER_VERIFIER"


@dataclass
class RunConfig:
    inputs: list[str]
    output: str | None = None  # file for a single input, else directory
    check: bool = False
    strict: bool = False
    no_prelude: bool = False
    verifier: str | None = None
    stdout: object = field(default=None, repr=False)
    stderr: object = field(default=None, repr=False)


def _out_path(inp: str, config: RunConfig) -> Path:
    src = Path(inp)
    if config.output is None:
        return src.with_suffix(".vpr")
    out = Path(config.output)
    multi = len(config.inputs) > 1
    if multi or out.is_dir() or config.output.endswith(os.sep):
        return out / (src.stem + ".vpr")
    return out


def _report(diags: list[Diagnostic], path: str, source: str | None,
            err) -> None:
    if not diags:
        return
    index = LineIndex(source) if source is not None else None
    for d in sorted(diags, key=sort_key):
        print(d.render(path, index), file=err)


def _run_verifier(command: str, target: Path, err) -> None:
    argv = shlex.split(command) + [str(target)]
    try:
        proc = subprocess.run(argv, check=False)
    except OSError as exc:
        print(f"gospel2viper: external verifier failed to run: {exc}",
              file=err)
        return
    print(f"gospel2viper: external verifier exited with status "
          f"{proc.returncode} for {target}", file=err)


def _target_is_an_input(targets: dict[Path, str],
                        inputs: list[str]) -> str | None:
    """Say which target is the same file as an input, if one is.  Files
    are compared by device and inode: a target that does not exist yet
    is no input, and a missing input is reported when it is read."""
    files = {}  # (device, inode) -> input
    for inp in inputs:
        try:
            st = os.stat(inp)
        except OSError:
            continue
        files[st.st_dev, st.st_ino] = inp
    for target, inp in targets.items():
        try:
            st = os.stat(target)
        except OSError:
            continue
        src = files.get((st.st_dev, st.st_ino))
        if src is not None:
            return (f"{inp} would be written to {target}, which is the "
                    f"input {src}")
    return None


def _overwrite(target: Path, text: str) -> None:
    """Write `text` over the bytes of `target`, then cut it to length.
    Truncating first would free the file's blocks only to allocate them
    again.  Only a regular file is cut: a pipe, a terminal or /dev/null
    has no length, and ftruncate fails on it."""
    fd = os.open(target, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as fh:
        fh.write(text)
        if S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def run(config: RunConfig) -> int:
    out = config.stdout if config.stdout is not None else sys.stdout
    err = config.stderr if config.stderr is not None else sys.stderr
    targets: dict[Path, str] = {}  # output path -> its input
    for inp in config.inputs:
        target = _out_path(inp, config)
        if target in targets:
            print(f"gospel2viper: error: {targets[target]} and {inp} "
                  f"would both be written to {target}", file=err)
            return 2
        targets[target] = inp
    clash = _target_is_an_input(targets, config.inputs)
    if clash is not None:
        print(f"gospel2viper: error: {clash}", file=err)
        return 2
    made: set[Path] = {Path("")}  # output directories known to exist
    any_errors = False
    for target, inp in targets.items():
        try:
            source = Path(inp).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            print(f"gospel2viper: error: cannot read {inp}: {exc}",
                  file=err)
            return 2
        program, diags = translate_source(source,
                                          no_prelude=config.no_prelude)
        if program is not None and config.check:
            diags = diags + check_program(program, strict=config.strict)
        _report(diags, inp, source, err)
        any_errors = any_errors or has_errors(diags)
        if program is None:
            continue
        try:
            if target.parent not in made:
                target.parent.mkdir(parents=True, exist_ok=True)
                made.add(target.parent)
            _overwrite(target, pretty(program))
        except OSError as exc:
            print(f"gospel2viper: error: cannot write {target}: {exc}",
                  file=err)
            return 2
        print(target, file=out)
        if config.verifier:
            _run_verifier(config.verifier, target, err)
    return 1 if any_errors else 0


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        prog="gospel2viper",
        description="Translate annotated sources to Viper and check "
                    "permission usage symbolically.")
    parser.add_argument("files", nargs="+", metavar="FILE",
                        help="annotated source files (.ml)")
    parser.add_argument("-o", "--output", metavar="PATH",
                        help="output file (one input) or directory")
    parser.add_argument("--check", action="store_true",
                        help="run the symbolic permission checker")
    parser.add_argument("--strict", action="store_true",
                        help="treat unproved pure conditions as errors")
    parser.add_argument("--no-prelude", action="store_true",
                        help="never emit the sequence helper functions")
    args = parser.parse_args(argv)
    config = RunConfig(
        inputs=args.files,
        output=args.output,
        check=args.check,
        strict=args.strict,
        no_prelude=args.no_prelude,
        verifier=os.environ.get(VERIFIER_ENV),
    )
    sys.exit(run(config))


if __name__ == "__main__":
    main()
