"""End-to-end driver tests against temporary trees.  Everything goes
through RunConfig/run with captured streams; one test exercises the
installed console entry point for real."""

import gc
import io
import os
import subprocess
import sys
from pathlib import Path

import gospel2viper
import pytest
from gospel2viper.cli import RunConfig, run
from gospel2viper.parser import MAX_NESTING
from gospel2viper.viper_ast import pretty
from gospel2viper.viper_parser import reparse

GOOD = """\
type t = { mutable v : int }
(*@ predicate p (c: t) = c ~> {v} *)
let zero (c: t) =
  (*@ unfold p c *)
  c.v <- 0
  (*@ fold p c *)
(*@ zero c requires p c ensures p c *)
"""

BAD_WRITE = """\
type t = { mutable v : int }
(*@ predicate p (c: t) = c ~> {v} *)
let zero (c: t) =
  c.v <- 0
(*@ zero c requires p c ensures p c *)
"""

BAD_PARSE = "let let let\n"


def invoke(*argv_files, **kw):
    out, err = io.StringIO(), io.StringIO()
    config = RunConfig(inputs=[str(f) for f in argv_files], stdout=out,
                       stderr=err, **kw)
    status = run(config)
    return status, out.getvalue(), err.getvalue()


def test_translates_next_to_the_input(tmp_path):
    src = tmp_path / "good.ml"
    src.write_text(GOOD)
    status, out, err = invoke(src)
    assert status == 0
    assert err == ""
    target = tmp_path / "good.vpr"
    assert out.strip() == str(target)
    assert "predicate P(c: Ref)" in target.read_text()


def test_output_file_mode(tmp_path):
    src = tmp_path / "good.ml"
    src.write_text(GOOD)
    dest = tmp_path / "renamed.vpr"
    status, out, _ = invoke(src, output=str(dest))
    assert status == 0 and dest.exists()
    assert out.strip() == str(dest)


def test_output_directory_for_multiple_inputs(tmp_path):
    a, b = tmp_path / "a.ml", tmp_path / "b.ml"
    a.write_text(GOOD)
    b.write_text(GOOD)
    status, out, _ = invoke(a, b, output=str(tmp_path / "gen"))
    assert status == 0
    assert (tmp_path / "gen" / "a.vpr").exists()
    assert (tmp_path / "gen" / "b.vpr").exists()
    assert out.splitlines() == [str(tmp_path / "gen" / "a.vpr"),
                                str(tmp_path / "gen" / "b.vpr")]


def test_two_inputs_for_one_output_path_write_nothing(tmp_path):
    a, b = tmp_path / "a" / "x.ml", tmp_path / "b" / "x.ml"
    for src in (a, b):
        src.parent.mkdir()
        src.write_text(GOOD)
    gen = tmp_path / "gen"
    status, out, err = invoke(a, b, output=str(gen))
    assert status == 2
    assert out == ""
    assert err == (f"gospel2viper: error: {a} and {b} would both be "
                   f"written to {gen / 'x.vpr'}\n")
    assert not gen.exists()


def test_existing_directory_wins_over_file_mode(tmp_path):
    src = tmp_path / "good.ml"
    src.write_text(GOOD)
    dest = tmp_path / "gen"
    dest.mkdir()
    status, _, _ = invoke(src, output=str(dest))
    assert status == 0
    assert (dest / "good.vpr").exists()


def test_checker_flags_and_exit_one(tmp_path):
    src = tmp_path / "bad.ml"
    src.write_text(BAD_WRITE)
    status, out, err = invoke(src, check=True)
    assert status == 1
    assert "error[permission]" in err
    assert "c.v" in err
    # the translation itself succeeded, so the .vpr is still written
    assert (tmp_path / "bad.vpr").exists()
    assert out.strip() == str(tmp_path / "bad.vpr")


def test_without_check_the_same_file_passes(tmp_path):
    src = tmp_path / "bad.ml"
    src.write_text(BAD_WRITE)
    status, _, err = invoke(src)
    assert status == 0 and err == ""


def test_diagnostic_format_and_position(tmp_path):
    src = tmp_path / "bad.ml"
    src.write_text(BAD_WRITE)
    _, _, err = invoke(src, check=True)
    line = err.splitlines()[0]
    prefix, severity_part = line.split(": ", 1)
    path, row, col = prefix.rsplit(":", 2)
    assert path == str(src)
    assert int(row) == 4  # the unpermitted write sits on line 4
    assert severity_part.startswith("error[permission]")


def test_diagnostics_are_sorted_by_position(tmp_path):
    src = tmp_path / "two.ml"
    src.write_text("""\
type t = { mutable v : int; mutable w : int }
(*@ predicate p (c: t) = c ~> {v; w} *)
let zero (c: t) =
  c.v <- 0;
  c.w <- 1
(*@ zero c requires p c ensures p c *)
""")
    _, _, err = invoke(src, check=True)
    rows = [int(line.split(": ")[0].rsplit(":", 2)[1])
            for line in err.splitlines()
            if "error[permission]" in line]
    assert rows == sorted(rows) and len(rows) == 2


def test_parse_failure_exits_one_without_output(tmp_path):
    src = tmp_path / "broken.ml"
    src.write_text(BAD_PARSE)
    status, out, err = invoke(src)
    assert status == 1
    assert "error[parse]" in err
    assert out == ""
    assert not (tmp_path / "broken.vpr").exists()


@pytest.mark.parametrize("decl, name, repeats", [
    ("let f (a: t) (b: t) (a: t) (a: t) =\n  a.v <- 0", "a", 2),
    ("(*@ predicate p (x: t) (x: t) = x ~> {v} *)", "x", 1),
    ("(*@ lemma l (n: int) (n: int) requires n = 0 ensures n = 0 *)", "n",
     1),
    ("(*@ function g (n: int) (n: int) : int = n *)", "n", 1),
], ids=["function", "predicate", "lemma", "logical-function"])
def test_duplicate_parameter_names_are_rejected(tmp_path, decl, name,
                                                repeats):
    # one error per repeat, at the declaration on line 2
    src = tmp_path / "dup.ml"
    src.write_text("type t = { mutable v : int }\n" + decl + "\n")
    status, out, err = invoke(src, check=True)
    assert status == 1
    line = f"{src}:2:1: error[parse]: duplicate parameter name '{name}'\n"
    assert err == line * repeats
    assert out == ""
    assert not (tmp_path / "dup.vpr").exists()


def test_ghost_command_may_start_with_a_comment(tmp_path):
    # classified by its parsed payload, not by its first word
    src = tmp_path / "commented.ml"
    src.write_text(GOOD.replace("(*@ unfold", "(*@ (* open it *) unfold"))
    status, _, err = invoke(src, check=True)
    assert status == 0 and err == ""


def test_missing_input_exits_two(tmp_path):
    status, _, err = invoke(tmp_path / "absent.ml")
    assert status == 2
    assert "cannot read" in err


def test_input_that_is_not_utf8_exits_two(tmp_path):
    src = tmp_path / "latin.ml"
    src.write_bytes(b"let \xff = 0\n")
    status, out, err = invoke(src, check=True)
    assert (status, out) == (2, "")
    assert err == (f"gospel2viper: error: cannot read {src}: 'utf-8' codec "
                   f"can't decode byte 0xff in position 4: invalid start "
                   f"byte\n")
    assert not (tmp_path / "latin.vpr").exists()


def _tree(root):
    return {p: p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


# inputs, -o, and the (input, target, source) that the error names
SAME_FILE = {
    "output is the input": (["same.ml"], "same.ml",
                            ("same.ml", "same.ml", "same.ml")),
    "input is a .vpr": (["x.vpr"], None, ("x.vpr", "x.vpr", "x.vpr")),
    "output links to the input": (["same.ml"], "link.vpr",
                                  ("same.ml", "link.vpr", "same.ml")),
    "output of one input links to another": (
        ["a.ml", "b.ml"], "gen", ("a.ml", "gen/a.vpr", "b.ml")),
}


@pytest.mark.parametrize("case", sorted(SAME_FILE))
def test_output_that_is_an_input_is_refused(tmp_path, case):
    inputs, output, (inp, target, src) = SAME_FILE[case]
    for name in inputs:
        (tmp_path / name).write_text(GOOD)
    (tmp_path / "gen").mkdir()
    (tmp_path / "link.vpr").symlink_to(tmp_path / "same.ml")
    (tmp_path / "gen" / "a.vpr").symlink_to(tmp_path / "b.ml")
    before = _tree(tmp_path)
    status, out, err = invoke(
        *(tmp_path / name for name in inputs), check=True,
        output=None if output is None else str(tmp_path / output))
    assert (status, out) == (2, "")
    assert err == (f"gospel2viper: error: {tmp_path / inp} would be written "
                   f"to {tmp_path / target}, which is the input "
                   f"{tmp_path / src}\n")
    assert _tree(tmp_path) == before


def _fresh_output(tmp_path, src):
    fresh = tmp_path / "fresh"
    status, _, _ = invoke(src, check=True, output=str(fresh) + os.sep)
    assert status == 0
    return (fresh / (src.stem + ".vpr")).read_bytes()


@pytest.mark.parametrize("before", ["longer", "shorter", "absent",
                                    "an earlier run"])
def test_rewrite_equals_a_fresh_write(tmp_path, corpus, before):
    src = corpus / "checker_queue.ml"
    expected = _fresh_output(tmp_path, src)
    gen = tmp_path / "gen"
    target = gen / "checker_queue.vpr"
    gen.mkdir()
    if before == "longer":
        target.write_bytes(b"x" * (3 * len(expected)) + b"\n")
    elif before == "shorter":
        target.write_bytes(expected[:10])
    elif before == "an earlier run":
        invoke(src, check=True, output=str(gen))
    status, out, _ = invoke(src, check=True, output=str(gen))
    assert (status, out) == (0, f"{target}\n")
    assert target.read_bytes() == expected


def test_inputs_into_one_directory_create_it_once(tmp_path, monkeypatch):
    made = []
    mkdir = Path.mkdir

    def counted(self, *args, **kw):
        made.append(self)
        return mkdir(self, *args, **kw)
    monkeypatch.setattr(Path, "mkdir", counted)
    srcs = [tmp_path / f"{name}.ml" for name in "abc"]
    for src in srcs:
        src.write_text(GOOD)
    gen = tmp_path / "gen"
    status, out, _ = invoke(*srcs, output=str(gen))
    assert status == 0
    assert out.splitlines() == [str(gen / f"{n}.vpr") for n in "abc"]
    assert made == [gen]


def test_output_into_a_pipe(tmp_path):
    # /dev/stdout is a pipe here, which cannot be cut to length
    src = tmp_path / "good.ml"
    src.write_text(GOOD)
    expected = _fresh_output(tmp_path, src)
    root = Path(gospel2viper.__file__).resolve().parent.parent
    path = os.pathsep.join([str(root), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-m", "gospel2viper.cli", str(src), "--check",
         "-o", "/dev/stdout"],
        capture_output=True, env=dict(os.environ, PYTHONPATH=path))
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == expected + b"/dev/stdout\n"


def test_output_into_dev_null(tmp_path):
    # seekable, but it has no length to cut
    src = tmp_path / "good.ml"
    src.write_text(GOOD)
    status, out, err = invoke(src, check=True, output=os.devnull)
    assert (status, out, err) == (0, f"{os.devnull}\n", "")


def test_target_that_is_a_directory_exits_two(tmp_path):
    src = tmp_path / "good.ml"
    src.write_text(GOOD)
    target = tmp_path / "good.vpr"
    target.mkdir()
    status, out, err = invoke(src)
    assert (status, out) == (2, "")
    assert err.startswith(f"gospel2viper: error: cannot write {target}: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_new_output_mode_follows_the_umask(tmp_path, umask):
    src = tmp_path / "good.ml"
    src.write_text(GOOD)
    old = os.umask(umask)
    try:
        with open(tmp_path / "reference", "w"):
            pass
        status, _, _ = invoke(src)
    finally:
        os.umask(old)
    assert status == 0
    mode = (tmp_path / "good.vpr").stat().st_mode
    assert mode == (tmp_path / "reference").stat().st_mode


def test_strict_turns_obligations_into_errors(tmp_path):
    src = tmp_path / "obl.ml"
    src.write_text("""\
type t = { mutable v : int }
(*@ predicate p (c: t) = c ~> {v} *)
let keep (c: t) (n: int) =
  (*@ unfold p c *)
  c.v <- n
  (*@ fold p c *)
(*@ keep c n requires p c ensures p c && n > 0 *)
""")
    lenient, _, err_l = invoke(src, check=True)
    assert lenient == 0
    assert "obligation[pure-obligation]" in err_l
    strict, _, err_s = invoke(src, check=True, strict=True)
    assert strict == 1
    assert "error[pure-obligation]" in err_s


def test_no_prelude_suppresses_helpers(tmp_path):
    src = tmp_path / "seq.ml"
    src.write_text("(*@ predicate p (v: int sequence) = "
                   "drop_last v = empty *)\n")
    invoke(src)
    assert "function drop_last" in (tmp_path / "seq.vpr").read_text()
    status, _, _ = invoke(src, no_prelude=True)
    assert status == 0
    assert "function drop_last" not in (tmp_path / "seq.vpr").read_text()


def test_external_verifier_reported_not_trusted(tmp_path):
    src = tmp_path / "good.ml"
    src.write_text(GOOD)
    status, _, err = invoke(src, verifier="false")
    assert status == 0  # the verifier's failure is reported, not adopted
    assert "external verifier exited with status 1" in err
    status, _, err = invoke(src, verifier="./no-such-verifier")
    assert status == 0
    assert "failed to run" in err


def test_verifier_receives_the_target_path(tmp_path):
    src = tmp_path / "good.ml"
    src.write_text(GOOD)
    log = tmp_path / "seen.txt"
    script = tmp_path / "record.sh"
    script.write_text(f"#!/bin/sh\necho \"$@\" > {log}\n")
    script.chmod(0o755)
    invoke(src, verifier=str(script))
    assert log.read_text().strip() == str(tmp_path / "good.vpr")


WRONG_CALL = """\
type c = { mutable v : int }
let zero (x: c) =
  x.v <- 0
(*@ zero x requires x ~> {v} ensures x ~> {v} *)
let twice (x: c) =
  zero x x
(*@ twice x requires x ~> {v} ensures x ~> {v} *)
"""


@pytest.mark.parametrize("check", [False, True])
def test_call_with_an_extra_argument_is_not_written(tmp_path, check):
    src = tmp_path / "call.ml"
    src.write_text(WRONG_CALL)
    status, out, err = invoke(src, check=check)
    assert status == 1 and out == ""
    assert err == (f"{src}:6:3: error[translation]: 'zero' takes 1 "
                   f"arguments, got 2\n")
    assert not (tmp_path / "call.vpr").exists()


def test_console_entry_point(tmp_path):
    src = tmp_path / "good.ml"
    src.write_text(GOOD)
    proc = subprocess.run(
        [sys.executable, "-m", "gospel2viper.cli", str(src), "--check"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("good.vpr")


JOINS = """\
type t = { mutable f0 : int }
(*@ predicate p (r: t) = r ~> {f0} *)
(*@ predicate q (r: t) (n: int) = r ~> {f0} && r.f0 = n *)
let bump (r: t) (a: int) =
  (*@ unfold p r *)
  if a > 1 then r.f0 <- r.f0 + 1;
  if a > 2 then r.f0 <- r.f0 + 2;
  if a > 3 then r.f0 <- r.f0 + 3;
  if 1000 = r.f0 then r.f0 <- 0;
  (*@ fold q r r.f0 *)
  ()
(*@ bump r a requires p r *)
"""


# `python -c COUNTED_RUN OUT FILE...`: checks FILE... into OUT and prints
# how many times the checker normalised and decided
COUNTED_RUN = """\
import io, sys
from collections import Counter
from gospel2viper.cli import RunConfig, run
from gospel2viper.permcheck import Checker

counts = Counter()


def counted(name):
    inner = getattr(Checker, name)

    def wrapper(self, *args):
        counts[name] += 1
        return inner(self, *args)
    setattr(Checker, name, wrapper)


counted("norm")
counted("decide")
status = run(RunConfig(sys.argv[2:], output=sys.argv[1], check=True,
                       stdout=io.StringIO()))
print(sorted(counts.items()))
sys.exit(status)
"""


def test_diagnostics_do_not_depend_on_the_hash_seed(tmp_path, corpus):
    # the checker keeps permissions in sets; their iteration order must
    # never reach the verdict, the wording of a diagnostic or the work
    # done.  joins.ml joins every if and leaks an instance whose argument,
    # the joined value, holds an `==` whose operands the checker sorted
    (tmp_path / "joins.ml").write_text(JOINS, encoding="utf-8")
    files = sorted(str(p) for p in corpus.glob("*.ml"))
    files.append(str(tmp_path / "joins.ml"))
    src = Path(gospel2viper.__file__).resolve().parent.parent
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    seen = set()
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", COUNTED_RUN, str(tmp_path / f"out{seed}"),
             *files],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1, proc.stderr  # foo_missing_unfold
        assert "leaks 1 instance(s) of Q(r, ite(" in proc.stderr
        assert "('norm', " in proc.stdout
        seen.add((proc.stderr, proc.stdout))
    assert len(seen) == 1


def test_non_decimal_digit_is_a_parse_error(tmp_path):
    # str.isdigit accepts '²' but int() does not
    src = tmp_path / "sup.ml"
    src.write_text(GOOD.replace("c.v <- 0", "c.v <- ²"), encoding="utf-8")
    status, out, err = invoke(src, check=True)
    assert status == 1 and out == ""
    assert err == f"{src}:5:10: error[parse]: unexpected character '²'\n"


# Annotation edge cases, each with the one diagnostic it must give.  An
# error inside an annotation is reported where the parser reaches it, and
# the rest of the file parses on; one after the first parse error is never
# reached.
FUN = "let f (x: int) : int =\n  x\n"
ANNOTATION_EDGES = {
    "bad character in a contract": (
        FUN + "(*@ r = f x requires x > 0 # ensures r = x *)\n",
        "3:28: error[parse]: unexpected character '#'"),
    "empty annotation": (
        FUN + "(*@*)\n",
        "3:4: error[parse]: expected contract header, found 'end of input'"),
    "nested annotation": (
        FUN + "(*@ r = f x requires (*@ x > 0 *) *)\n",
        "3:22: error[parse]: expected an expression, found '(*@ x > 0 *)'"),
    "clause cut off at the close": (
        FUN + "(*@ r = f x requires *)\n",
        "3:22: error[parse]: expected an expression, found 'end of input'"),
    "bad character in a ghost command": (
        GOOD.replace("(*@ unfold p c *)", "(*@ unfold p c # *)"),
        "4:18: error[parse]: unexpected character '#'"),
    "bad annotation after a parse error": (
        FUN + "type =\n(*@ predicate q (x: int) = x # 1 *)\n",
        "3:6: error[parse]: expected type name, found '='"),
}


@pytest.mark.parametrize("case", sorted(ANNOTATION_EDGES))
def test_annotation_edge_case_gives_one_diagnostic(tmp_path, case):
    source, line = ANNOTATION_EDGES[case]
    src = tmp_path / "edge.ml"
    src.write_text(source, encoding="utf-8")
    status, _, err = invoke(src, check=True)
    assert status == 1
    assert err == f"{src}:{line}\n"


NESTED = """\
type t = {{ mutable v : int }}
type u = A | B
(*@ predicate p (c: t) = c ~> {{v}} *)
let zero (c: t) =
  (*@ unfold p c *)
  {body}
  (*@ fold p c *)
(*@ zero c requires {pre} ensures p c *)
"""

NESTINGS = {
    "parentheses": lambda n: dict(body="c.v <- " + "(" * n + "0" + ")" * n,
                                  pre="p c"),
    "requires": lambda n: dict(body="c.v <- 0", pre="(" * n + "p c" + ")" * n),
    "prefix-minus": lambda n: dict(body="c.v <- " + "-" * n + "0", pre="p c"),
    "if": lambda n: dict(body="if true then " * n + "c.v <- 0", pre="p c"),
    "else-if": lambda n: dict(
        body="if c.v = 0 then c.v <- 0 else " * n + "c.v <- 0", pre="p c"),
    "match": lambda n: dict(
        body="match A with B -> c.v <- 0 | A -> " * n + "c.v <- 0",
        pre="p c"),
}


@pytest.mark.parametrize("shape", sorted(NESTINGS))
def test_nesting_at_the_limit_checks_and_prints(tmp_path, shape):
    src = tmp_path / "deep.ml"
    src.write_text(NESTED.format(**NESTINGS[shape](MAX_NESTING)))
    status, out, err = invoke(src, check=True)
    assert (status, err) == (0, "")
    assert "\nmethod zero(c: Ref)\n" in (tmp_path / "deep.vpr").read_text()


@pytest.mark.parametrize("shape", sorted(NESTINGS))
def test_nesting_past_the_limit_is_one_parse_error(tmp_path, shape):
    src = tmp_path / "deep.ml"
    src.write_text(NESTED.format(**NESTINGS[shape](MAX_NESTING + 1)))
    status, out, err = invoke(src, check=True)
    assert status == 1 and out == ""
    assert err.count("error[parse]") == 1
    assert f"nesting deeper than {MAX_NESTING} levels" in err


def _wide_record(n):
    fields = [f"f{i}" for i in range(n)]
    decl = "; ".join(f"mutable {f} : int" for f in fields)
    return (f"type t = {{ {decl} }}\n"
            f"(*@ predicate p (c: t) = c ~> {{{'; '.join(fields)}}} *)\n"
            "let zero (c: t) =\n"
            "  (*@ unfold p c *)\n"
            "  c.f0 <- 0\n"
            "  (*@ fold p c *)\n"
            "(*@ zero c requires p c ensures p c *)\n")


# Chains are lists, not nesting: their length never meets MAX_NESTING.  A
# conjunction is a list of parts and a block a list of items, so a chain of
# `let … in` (all of one name here, each shadowing the last) is one block.
CHAINS = {
    "requires": lambda n: NESTED.format(
        body="c.v <- 0", pre=" && ".join(["p c"] + ["0 <= 1"] * (n - 1))),
    "record": _wide_record,
    "let": lambda n: NESTED.format(
        body="let x : int = c.v in " * n + "c.v <- x", pre="p c"),
}


@pytest.mark.parametrize("shape,n", [("requires", 10_000), ("record", 1_000),
                                     ("let", 10_000)])
def test_long_conjunctions_check_and_round_trip(tmp_path, shape, n):
    src = tmp_path / "long.ml"
    src.write_text(CHAINS[shape](n))
    status, out, err = invoke(src, check=True)
    assert (status, err) == (0, "")
    text = (tmp_path / "long.vpr").read_text()
    assert pretty(reparse(text)) == text


# `+` and `-` chains are loops in the parser, but the tree nests one level
# per term, and the translator, the checker and the printer each walk it at
# two frames a level; a printer at three frames a level fails at 400 terms.
@pytest.mark.parametrize("op", ["+", "-"])
def test_long_arithmetic_chain_checks_and_prints(tmp_path, op):
    src = tmp_path / "sum.ml"
    src.write_text(NESTED.format(body="c.v <- " + f" {op} ".join(["1"] * 400),
                                 pre="p c"))
    status, out, err = invoke(src, check=True)
    assert (status, err) == (0, "")
    assert f"c.v := 1 {op} 1 {op} 1" in (tmp_path / "sum.vpr").read_text()


def test_a_run_leaves_no_cyclic_garbage(tmp_path, corpus):
    # every object of a run is freed by reference counting; a cycle (such
    # as a recursive closure over the translator) would keep the whole
    # surface tree alive until the cyclic collector ran
    for path in sorted(corpus.glob("*.ml")):
        gc.collect()
        gc.disable()
        try:
            invoke(path, check=True, output=str(tmp_path) + os.sep)
            garbage = gc.collect()
        finally:
            gc.enable()
        assert garbage == 0, path.name


def test_corpus_check_stderr_matches_golden(tmp_path, corpus, golden):
    # the argparse wiring of `main`, run as the README shows, with the
    # diagnostics of every corpus file pinned byte for byte
    root = corpus.parent.parent
    files = sorted(str(p.relative_to(root)) for p in corpus.glob("*.ml"))
    src = Path(gospel2viper.__file__).resolve().parent.parent
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-m", "gospel2viper.cli", *files, "--check",
         "-o", str(tmp_path) + os.sep],
        capture_output=True, text=True, cwd=root,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 1, proc.stderr
    expected = (golden / "corpus_check.stderr").read_text(encoding="utf-8")
    assert proc.stderr == expected
