"""Print every executable line of `src/` that the tier-1 tests do not reach.

    python tests/line_tracer.py [pytest arguments]

It runs the tier-1 tests under `sys.settrace` (standard library only:
`coverage` is not needed), then lists each unreached line of
`src/gospel2viper` as `path:line: text`, with a count per module.  It
always exits 0: the list is information, not a gate.  The property
tests run with a fixed seed, so the list does not change between runs.

The trace functions are module-level.  A tracer that built a closure per
frame would itself make reference cycles, which
`test_a_run_leaves_no_cyclic_garbage` counts.  The tracer is installed
before the tests are collected, which runs the modules' top-level lines,
and again before each test call: Python removes a tracer that raises, and
a test that overflows the stack on purpose makes it raise.  Installed only
once, it saw 456 unreached lines instead of 170.

Code that runs only in a subprocess is not seen: `cli.main` also runs in
process, but the `main()` call under `if __name__ == "__main__"` runs
only in the subprocess of the golden-stderr test, so it is listed.
"""

import os
import sys
import types
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "gospel2viper"
_PREFIX = str(PACKAGE) + os.sep

_hits: dict = defaultdict(set)  # {co_filename: {line reached}}


def _call(frame, event, arg):
    """The global trace function: trace the frames of `src/` only."""
    if frame.f_code.co_filename.startswith(_PREFIX):
        return _line
    return None


def _line(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    sys.settrace(_call)
    yield


def executable_lines(code: types.CodeType) -> set:
    """The lines of `code` and its nested code objects that start a
    statement, less the first line of each function, which runs in the
    code that defines it.  Line 0 is none: a module's code starts there."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= executable_lines(const) - {const.co_firstlineno}
    return lines


def unreached() -> dict:
    """{path: [(line, text)]} for every unreached line of the package."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        code = compile(source, str(path), "exec")
        text = source.splitlines()
        missed = sorted(executable_lines(code) - _hits[str(path)])
        out[path] = [(n, text[n - 1].strip()) for n in missed]
    return out


def main(argv: list) -> int:
    sys.path.insert(0, str(SRC))
    # as for tier-1: the tests that run the CLI in a subprocess need it too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.settrace(_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--hypothesis-seed=0",
                              *(argv or [str(ROOT / "tests")])],
                             plugins=[sys.modules[__name__]])
    finally:
        sys.settrace(None)
    found = unreached()
    for path, lines in found.items():
        for n, text in lines:
            print(f"{path.relative_to(ROOT)}:{n}: {text}")
    print(f"unreached lines of src/ ({int(status)} is the tests' exit "
          f"status):")
    for path, lines in found.items():
        print(f"  {path.name}: {len(lines)}")
    print(f"  total: {sum(map(len, found.values()))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
