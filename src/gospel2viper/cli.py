"""Command-line driver: translate sources, check permissions, emit files.

All file I/O lives here; the rest of the package is pure.  Output is
deterministic: inputs are processed in argument order, diagnostics are
sorted within each file, and written files are announced on stdout one
path per line, as `pathlib` spells it (`./x.ml` gives `x.vpr`).  Paths
are plain strings; files are read and written as UTF-8 bytes, and an
input's CRLF and lone CR line ends read as LF.

Each output is written in place: its file is opened without truncating
it, the new text is written over the old bytes, and a regular file is
then cut to the new length.  The write is not atomic, and truncating
first would not be either: a crash mid-write can leave a torn `.vpr`,
which the next run rewrites.  An output directory is made only when a
target cannot be opened for want of it.  When an output is the very file
that stdout or stderr writes to, as with `-o /dev/stdout`, the program
goes through that stream, so that neither the diagnostics before it nor
the announcement of the path after it are written over.

`run` pauses the cyclic garbage collector and restores the caller's
setting when it returns or raises.  A run makes no reference cycles:
every object it builds is freed by reference counting, so the collector
would only walk the live trees and find nothing (a test pins this, on
the corpus and on inputs that fail).  The collector switch is global to
the process, so `run` is single-threaded: two runs must not overlap in
threads of one process.

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

import gc
import os
import sys
from pathlib import Path
from stat import S_ISREG

from .diagnostics import LineIndex, Record, has_errors, sort_key
from .permcheck import check_program
from .translate import translate_source
from .viper_ast import pretty

VERIFIER_ENV = "GOSPEL2VIPER_VERIFIER"


class RunConfig(Record, uncompared=(), unshown=("stdout", "stderr"),
                output=None, check=False, strict=False, verifier=None,
                stdout=None, stderr=None):
    __slots__ = ("inputs",
                 "output",  # file for a single input, else directory
                 "check", "strict", "verifier", "stdout", "stderr")


def _out_paths(config: RunConfig) -> list[str]:
    """The output path of each input, in input order.  An input with no
    name, as `/` and `.` are, gives `.vpr` in it; reading the input then
    fails."""
    if config.output is None:
        return [str(p.parent / f"{p.stem}.vpr")
                for p in map(Path, config.inputs)]
    out = Path(config.output)
    if (len(config.inputs) > 1 or config.output.endswith(os.sep)
            or out.is_dir()):
        return [str(out / f"{Path(inp).stem}.vpr") for inp in config.inputs]
    return [str(out)] * len(config.inputs)


def _run_verifier(command: str, target: str, err) -> None:
    import shlex
    import subprocess

    argv = shlex.split(command) + [target]
    try:
        proc = subprocess.run(argv, check=False)
    except OSError as exc:
        print(f"gospel2viper: external verifier failed to run: {exc}",
              file=err)
        return
    print(f"gospel2viper: external verifier exited with status "
          f"{proc.returncode} for {target}", file=err)


def _target_is_an_input(targets: dict[str, str],
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


def _file_id(stream) -> tuple[int, int] | None:
    """The device and inode of the file behind `stream`, or None when it
    has none, as for a StringIO."""
    try:
        st = os.fstat(stream.fileno())
    except (AttributeError, OSError, ValueError):
        return None
    return st.st_dev, st.st_ino


def _overwrite(target: str, text: str, streams: dict) -> None:
    """Write `text` over the bytes of `target`, then cut it to length.
    Truncating first would free the file's blocks only to allocate them
    again.  Only a regular file is cut: a pipe, a terminal or /dev/null
    has no length, and ftruncate fails on it.  A target that is the file
    behind one of `streams` (keyed by `_file_id`) is written through that
    stream: a second handle on the file would start at offset 0, over
    what the stream wrote before, and the stream would then write over
    `text`.  A missing directory of `target` is made."""
    try:
        fd = os.open(target, os.O_WRONLY | os.O_CREAT, 0o666)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(target) or os.curdir, exist_ok=True)
        fd = os.open(target, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        st = os.fstat(fd)
        stream = streams.get((st.st_dev, st.st_ino))
        if stream is not None:
            stream.write(text)
            return
        fh.write(text.encode("utf-8"))
        if S_ISREG(st.st_mode):
            fh.truncate()


def run(config: RunConfig) -> int:
    out = config.stdout if config.stdout is not None else sys.stdout
    err = config.stderr if config.stderr is not None else sys.stderr
    collecting = gc.isenabled()
    gc.disable()
    try:
        targets: dict[str, str] = {}  # output path -> its input
        for inp, target in zip(config.inputs, _out_paths(config)):
            if target in targets:
                print(f"gospel2viper: error: {targets[target]} and {inp} "
                      f"would both be written to {target}", file=err)
                return 2
            targets[target] = inp
        clash = _target_is_an_input(targets, config.inputs)
        if clash is not None:
            print(f"gospel2viper: error: {clash}", file=err)
            return 2
        streams = {_file_id(err): err, _file_id(out): out}
        any_errors = False
        for target, inp in targets.items():
            try:
                with open(inp, "rb") as fh:
                    source = fh.read().decode("utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                print(f"gospel2viper: error: cannot read {inp}: {exc}",
                      file=err)
                return 2
            source = source.replace("\r\n", "\n").replace("\r", "\n")
            program, diags = translate_source(source)
            if program is not None and config.check:
                diags = diags + check_program(program, strict=config.strict)
            if diags:
                index = LineIndex(source)
                for d in sorted(diags, key=sort_key):
                    print(d.render(inp, index), file=err)
                any_errors = any_errors or has_errors(diags)
            if program is None:
                continue
            try:
                _overwrite(target, pretty(program), streams)
            except OSError as exc:
                print(f"gospel2viper: error: cannot write {target}: {exc}",
                      file=err)
                return 2
            print(target, file=out)
            if config.verifier:
                _run_verifier(config.verifier, target, err)
        return 1 if any_errors else 0
    finally:
        if collecting:
            gc.enable()


def main(argv: list[str] | None = None) -> None:
    import argparse

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
    args = parser.parse_args(argv)
    config = RunConfig(
        inputs=args.files,
        output=args.output,
        check=args.check,
        strict=args.strict,
        verifier=os.environ.get(VERIFIER_ENV),
    )
    sys.exit(run(config))


if __name__ == "__main__":
    main()
