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
from gospel2viper.cli import VERIFIER_ENV, RunConfig, main, run
from gospel2viper.parser import MAX_NESTING
from gospel2viper.viper_ast import BINARY, pretty
from gospel2viper.viper_parser import reparse
import work_counts
from work_counts import frames_per_element, frames_per_level

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


SPLIT_JOIN = """\
type t = { mutable v : int; mutable w : int; mutable b : bool }
(*@ predicate q (c: t) = c ~> {b} && (if c.b then c ~> {w} else true) *)
let f (c: t) (n: int) =
  if c.v > n then c.v <- n else (c.w <- 1; c.b <- true);
  (*@ fold q c *)
  c.w <- 1
(*@ f c n requires c ~> {v; w; b} ensures q c && c ~> {v} *)
"""


def test_a_join_hides_no_error_after_a_fold_it_splits(tmp_path):
    # c.b is undecided on the then side of the join and true on the else
    # side: the fold runs on each, so the else side gives up c.w and the
    # write after the fold has no permission, as on the two paths
    src = tmp_path / "split.ml"
    src.write_text(SPLIT_JOIN)
    status, _, err = invoke(src, check=True)
    assert status == 1
    assert err.splitlines() == [
        f"{src}:2:39: error[undecidable-branch]: fold Q(c): cannot decide "
        f"c.b to pick a branch",
        f"{src}:6:3: error[permission]: no permission to write c.w"]


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


def test_leak_is_reported_at_its_function(tmp_path):
    src = tmp_path / "leak.ml"
    src.write_text("type t = { mutable v : int }\n\n"
                   "let f (c: t) =\n  c.v <- 0\n(*@ f c requires c ~> {v} *)\n")
    status, _, err = invoke(src, check=True)
    assert status == 0
    assert err == f"{src}:3:1: warning[permission]: f leaks permission to c.v\n"


def test_columns_count_characters_not_bytes(tmp_path):
    # `⇝` is one character and three bytes of UTF-8: `g` is character 37
    # of line 2, byte 39
    src = tmp_path / "cols.ml"
    src.write_text("type t = { mutable f : int }\n"
                   "(*@ predicate p (r: t) = r ⇝ {f} && r.g = 0 *)\n",
                   encoding="utf-8")
    status, _, err = invoke(src)
    assert status == 1
    assert err == f"{src}:2:37: error[translation]: unknown field 'g'\n"


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
    # the directory is made when the first target cannot be opened for
    # want of it, and a second run into it makes none
    made = []
    makedirs = os.makedirs

    def counted(name, *args, **kw):
        made.append(name)
        return makedirs(name, *args, **kw)
    monkeypatch.setattr(os, "makedirs", counted)
    srcs = [tmp_path / f"{name}.ml" for name in "abc"]
    for src in srcs:
        src.write_text(GOOD)
    gen = tmp_path / "gen"
    for run_made in ([str(gen)], []):
        made.clear()
        status, out, _ = invoke(*srcs, output=str(gen))
        assert status == 0
        assert out.splitlines() == [str(gen / f"{n}.vpr") for n in "abc"]
        assert made == run_made


@pytest.mark.parametrize("under", ["plain", "plain/sub"])
def test_target_under_a_regular_file_exits_two(tmp_path, under):
    src = tmp_path / "good.ml"
    src.write_text(GOOD)
    (tmp_path / "plain").write_text("")
    target = tmp_path / under / "good.vpr"
    status, out, err = invoke(src, output=str(target))
    assert (status, out) == (2, "")
    assert err.startswith(f"gospel2viper: error: cannot write {target}: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_crlf_and_lone_cr_read_as_lf(tmp_path, corpus, newline):
    # an input is read with universal newlines: the same line:col
    # diagnostics and the same .vpr bytes as its LF original
    text = (corpus / "queue.ml").read_bytes()
    assert b"\r" not in text
    seen = []
    for name, nl in (("lf", "\n"), ("other", newline)):
        (tmp_path / name).mkdir()
        src = tmp_path / name / "queue.ml"
        src.write_bytes(text.replace(b"\n", nl.encode()))
        status, out, err = invoke(src, check=True)
        vpr = (tmp_path / name / "queue.vpr").read_bytes()
        where = str(tmp_path / name)
        seen.append((status, out.replace(where, "*"),
                     err.replace(where, "*"), vpr))
    assert seen[0] == seen[1]
    assert ":23:9: error[fold-mismatch]: " in seen[0][2]


# (inputs, -o, the directories made first) -> the paths announced, as
# str(Path(...)) gives them
ANNOUNCED = [
    (["./x.ml"], None, [], ["x.vpr"]),
    (["a//x.ml"], None, ["a"], ["a/x.vpr"]),
    (["./a/./x.ml"], None, ["a"], ["a/x.vpr"]),
    (["x.ml"], "dir", ["dir"], ["dir/x.vpr"]),
    (["./x.ml", "a//y.ml"], "dir", ["a", "dir"], ["dir/x.vpr", "dir/y.vpr"]),
    (["x.ml"], "new/", [], ["new/x.vpr"]),
    (["x.ml"], "./new//sub/", [], ["new/sub/x.vpr"]),
    (["x.ml"], "out.vpr", [], ["out.vpr"]),
    (["x.ml"], "./gen//out.vpr", [], ["gen/out.vpr"]),
]


@pytest.mark.parametrize("inputs, output, dirs, expected", ANNOUNCED)
def test_announced_paths(tmp_path, monkeypatch, inputs, output, dirs,
                         expected):
    monkeypatch.chdir(tmp_path)
    for d in dirs:
        (tmp_path / d).mkdir()
    for inp in inputs:
        (tmp_path / inp).write_text(GOOD)
    status, out, err = invoke(*inputs, output=output)
    assert (status, err) == (0, "")
    assert out.splitlines() == expected
    assert all((tmp_path / p).is_file() for p in expected)


@pytest.mark.parametrize("inp", ["/", "."])
def test_input_without_a_name_cannot_be_read(tmp_path, monkeypatch, inp):
    # naming its output raised ValueError: `/` and `.` have no suffix to
    # replace
    monkeypatch.chdir(tmp_path)
    status, out, err = invoke(inp)
    assert (status, out) == (2, "")
    assert err == (f"gospel2viper: error: cannot read {inp}: [Errno 21] Is "
                   f"a directory: '{inp}'\n")
    assert list(tmp_path.iterdir()) == []
    assert not os.path.exists("/.vpr")


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


@pytest.mark.parametrize("stream", ["stdout", "stderr"])
def test_output_into_a_standard_stream_that_is_a_regular_file(tmp_path,
                                                               stream):
    # a second handle on the file would start at offset 0: over the
    # diagnostics printed before the program, and under the path
    # announced after it
    src = tmp_path / "bad.ml"
    src.write_text(BAD_WRITE)
    status, _, diag = invoke(src, check=True)
    assert status == 1
    program = (tmp_path / "bad.vpr").read_bytes()
    announced = f"/dev/{stream}\n".encode()
    root = Path(gospel2viper.__file__).resolve().parent.parent
    path = os.pathsep.join([str(root), os.environ.get("PYTHONPATH", "")])
    files = [tmp_path / "stdout.txt", tmp_path / "stderr.txt"]
    with open(files[0], "wb") as out, open(files[1], "wb") as err:
        proc = subprocess.run(
            [sys.executable, "-m", "gospel2viper.cli", str(src), "--check",
             "-o", f"/dev/{stream}"],
            stdout=out, stderr=err, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 1
    got = [f.read_bytes() for f in files]
    if stream == "stdout":
        assert got == [program + announced, diag.encode()]
    else:
        assert got == [announced, diag.encode() + program]


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


# A logical function, a Bool field, and a two-arm match whose payload arm
# comes first: the translator tests the nullary constructor first.  The
# match is parenthesised: without the parentheses the `fold` after it
# belongs to its last arm, as in OCaml.
LOGIC_AND_MATCH = """\
type cell = Nil | Cons of { mutable content : int; mutable next : cell }
type flag = { mutable ok : bool }
(*@ function double (x: int) : int = x + x *)
(*@ predicate p (f: flag) = f ~> {ok} *)
let mark (f: flag) (l: cell) =
  (*@ unfold p f *)
  (match l with
   | Cons c -> f.ok <- true
   | Nil -> f.ok <- false);
  (*@ fold p f *)
  ()
(*@ mark f l requires p f ensures p f *)
"""

LOGIC_AND_MATCH_VPR = """\
adt Cell {
  Nil()
  Cons(cell: Ref)
}

field content: Int

field next: Cell

field ok: Bool

function double(x: Int): Int
{
  x + x
}

predicate P(f: Ref) {
  acc(f.ok)
}

method mark(f: Ref, l: Cell)
  requires P(f)
  ensures P(f)
{
  unfold P(f)
  if (l.isNil) {
    f.ok := false
  } else {
    f.ok := true
  }
  fold P(f)
}
"""


def test_logical_function_bool_field_and_payload_arm_first(tmp_path):
    src = tmp_path / "mark.ml"
    src.write_text(LOGIC_AND_MATCH)
    status, out, err = invoke(src, check=True)
    assert (status, err) == (0, "")
    assert (tmp_path / "mark.vpr").read_text() == LOGIC_AND_MATCH_VPR


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
    "unknown fold target in a parenthesised if branch": (
        GOOD.replace("  c.v <- 0\n",
                     "  if c.v = 0 then ((*@ fold q c *) c.v <- 0)\n"),
        "5:20: error[parse]: fold target 'q' is not a declared predicate"),
    "unknown unfold target in a match arm": (
        "type u = A | B\n" + GOOD.replace("zero (c: t)", "zero (c: t) (x: u)")
        .replace("zero c requires", "zero c x requires")
        .replace("  c.v <- 0\n", "  match x with\n"
                 "  | A -> (*@ unfold q c *) c.v <- 0\n  | B -> c.v <- 0\n"),
        "7:10: error[parse]: unfold target 'q' is not a declared predicate"),
    "unknown unfold target in a parenthesised block": (
        GOOD.replace("  c.v <- 0\n", "  ((*@ unfold q c *) c.v <- 0)\n"),
        "5:4: error[parse]: unfold target 'q' is not a declared predicate"),
    "apply of an unknown lemma": (
        GOOD.replace("  (*@ fold p c *)\n",
                     "  (*@ fold p c *)\n  (*@ apply nolemma c *)\n"),
        "7:3: error[parse]: apply target 'nolemma' is not a declared lemma"),
    "apply with the wrong arity": (
        GOOD.replace("let zero", "(*@ lemma keep (c: t) requires p c "
                     "ensures p c *)\nlet zero")
        .replace("  (*@ fold p c *)\n",
                 "  (*@ fold p c *)\n  (*@ apply keep c c *)\n"),
        "8:3: error[parse]: 'keep' takes 1 arguments, got 2"),
}


def test_final_value_is_the_result_under_a_strict_check(tmp_path):
    # the value was dropped with "statement has no effect", and the
    # postcondition on r was assumed, not proved
    src = tmp_path / "value.ml"
    src.write_text("type t = { mutable v : int }\n"
                   "let f (c: t) : int = c.v\n"
                   "(*@ r = f c requires c ~> {v} "
                   "ensures c ~> {v} && r = c.v *)\n", encoding="utf-8")
    status, _, err = invoke(src, check=True, strict=True)
    assert (status, err) == (0, "")
    vpr = (tmp_path / "value.vpr").read_text(encoding="utf-8")
    assert "{\n  r := c.v\n}" in vpr


@pytest.mark.parametrize("body, ret, post", [
    ("if c.v > 0 then 1 else 2", "int", "r >= 1"),
    ("match c.k with A -> 1 | B -> 2", "int", "r >= 1"),
    ("{ v = 1; k = A }", "t", "r ~> {v; k} && r.v = 1"),
], ids=["if", "match", "allocation"])
def test_final_value_in_any_shape_is_the_result(tmp_path, body, ret, post):
    # an if's branches gave "statement has no effect" twice and left r
    # unconstrained; an allocation gave "allocation must be bound by a let"
    src = tmp_path / "tail.ml"
    src.write_text("type u = A | B\n"
                   "type t = { mutable v : int; mutable k : u }\n"
                   f"let f (c: t) : {ret} =\n  {body}\n"
                   "(*@ r = f c requires c ~> {v; k} "
                   f"ensures c ~> {{v; k}} && {post} *)\n",
                   encoding="utf-8")
    status, _, err = invoke(src, check=True)
    assert (status, err) == (0, "")


def test_an_unknown_return_type_is_reported_once(tmp_path):
    # the allocation that ends the function mapped the return type again
    # and reported it a second time, at the allocation
    src = tmp_path / "unknown.ml"
    src.write_text("type t = { mutable v : int }\n\n"
                   "let f (c: t) : foo = { v = 1 }\n"
                   "(*@ r = f c requires c ~> {v} ensures c ~> {v} *)\n",
                   encoding="utf-8")
    status, _, err = invoke(src, check=True)
    assert (status, err) == (1, (
        f"{src}:3:1: error[translation]: unknown type 'foo'\n"
        f"{src}:3:22: error[translation]: allocation needs a declared "
        f"record or variant type\n"))
    # a let of the result that the source annotates reports its own type
    src.write_text("type t = { mutable v : int }\n\n"
                   "let f (c: t) : t =\n  let r : foo = { v = 1 } in\n  r\n"
                   "(*@ r = f c requires c ~> {v} ensures c ~> {v} *)\n",
                   encoding="utf-8")
    status, _, err = invoke(src, check=True)
    assert (status, err) == (1, (
        f"{src}:4:3: error[translation]: unknown type 'foo'\n"
        f"{src}:4:17: error[translation]: allocation needs a declared "
        f"record or variant type\n"))


@pytest.mark.parametrize("case", sorted(ANNOTATION_EDGES))
def test_annotation_edge_case_gives_one_diagnostic(tmp_path, case):
    source, line = ANNOTATION_EDGES[case]
    src = tmp_path / "edge.ml"
    src.write_text(source, encoding="utf-8")
    status, _, err = invoke(src, check=True)
    assert status == 1
    assert err == f"{src}:{line}\n"


# Where a declaration or an annotation may stand, each with the one parse
# error it must give; no output is written
CELL = "type t = { mutable v : int }\n"
PLACEMENT_ERRORS = {
    "contract before any function": (
        "(*@ f c requires true *)\n" + CELL + "let f (c: t) = c.v <- 0\n",
        "1:1: error[parse]: contract annotation has no preceding function"),
    "constructor of two types": (
        "type a = A | B\ntype b = C | A\n",
        "2:14: error[parse]: constructor 'A' already declared by type 'a'"),
    "two results": (
        CELL + "let f (c: t) : int = c.v\n(*@ r, s = f c *)\n",
        "3:1: error[parse]: multiple results are unsupported"),
    "two contracts": (
        CELL + "let f (c: t) = c.v <- 0\n(*@ f c requires true *)\n"
        "(*@ f c ensures true *)\n",
        "4:1: error[parse]: function 'f' already has a contract"),
    "ghost parameter named as a parameter": (
        CELL + "let f (c: t) = c.v <- 0\n(*@ f c [c: int] requires true *)\n",
        "3:1: error[parse]: ghost parameter 'c' shadows a parameter"),
    "contract of another function": (
        CELL + "let f (c: t) = c.v <- 0\n(*@ g c requires true *)\n",
        "3:1: error[parse]: contract names 'g' but follows 'f'"),
    # the translator stops before the contract, whose `d` is unbound
    "contract naming another parameter": (
        CELL + "let f (c: t) = c.v <- 0\n(*@ f d requires d ~> {v} *)\n",
        "3:1: error[parse]: contract for 'f' names parameters ['d'] but the "
        "function declares ['c']"),
    "ghost command between declarations": (
        CELL + "(*@ unfold p c *)\nlet f (c: t) = c.v <- 0\n",
        "2:1: error[parse]: ghost command outside a function body"),
}


@pytest.mark.parametrize("case", sorted(PLACEMENT_ERRORS))
def test_misplaced_declaration_gives_one_parse_error(tmp_path, case):
    source, line = PLACEMENT_ERRORS[case]
    src = tmp_path / "placed.ml"
    src.write_text(source, encoding="utf-8")
    status, out, err = invoke(src, check=True)
    assert (status, out) == (1, "")
    assert err == f"{src}:{line}\n"
    assert not (tmp_path / "placed.vpr").exists()


# Parse errors, each with the lines it gives; each exits 1 and writes nothing
UNPARSED_PREDICATE = (
    CELL + "(*@ predicate p (c: t) = c ~> {v} && *)\nlet f (c: t) =\n"
    "  (*@ unfold p c *)\n  c.v <- 1;\n  (*@ fold p c *)\n  ()\n")
PARSE_ERRORS = {
    "bool sequence field": (
        "type t = { mutable v : bool sequence }\n",
        ["1:24: error[parse]: only int sequences are supported"]),
    "record without fields": (
        "type t = { }\n",
        ["1:10: error[parse]: record declarations need at least one field"]),
    "prefix slice": (
        "(*@ function f (s: int sequence) : int sequence = s[.. 1] *)\n",
        ["1:53: error[parse]: prefix slices are not part of the surface "
         "language"]),
    # offset 0 is a position like any other
    "wrong first token": (
        "in x\n", ["1:1: error[parse]: expected a declaration, found 'in'"]),
    "wrong first character": (
        "½ a\n", ["1:1: error[parse]: unexpected character '½'"]),
    # a declaration whose annotation does not parse was reported there:
    # its uses are not reported again as undeclared, as predicate, lemma
    # or logical function alike, and whether it failed to lex or to parse
    "fold and unfold of an unparsed predicate": (
        UNPARSED_PREDICATE,
        ["2:38: error[parse]: expected an expression, found 'end of input'"]),
    "unfold of a predicate that does not lex": (
        UNPARSED_PREDICATE.replace("&& *)", "# *)"),
        ["2:35: error[parse]: unexpected character '#'"]),
    "apply of an unparsed lemma": (
        CELL + "(*@ lemma l (c: t) requires c ~> {v} ensures *)\n"
        "let f (c: t) =\n  (*@ apply L c *)\n  ()\n",
        ["2:46: error[parse]: expected an expression, found 'end of input'"]),
    "lowercase constructor in an assertion let": (
        "type cell = Nil | Cons of { mutable v : int }\n"
        "(*@ predicate p (x: cell) = let nil y = x in true *)\n",
        ["2:33: error[parse]: assertion let expects a constructor pattern"]),
    "constructor pattern in a let statement": (
        CELL + "let f (c: t) =\n  let C x = c in\n  ()\n(*@ f c *)\n",
        ["3:7: error[parse]: constructor patterns are only allowed in "
         "assertions"]),
    "lowercase constructor declared": (
        "type cell = nil | Cons of { mutable v : int }\n",
        ["1:13: error[parse]: constructor names are capitalized"]),
    "capitalized type name": (
        "type T = { mutable v : int }\n",
        ["1:6: error[parse]: type names are lowercase"]),
    "lowercase match arm": (
        "type cell = Nil | Cons of { mutable v : int }\n"
        "let f (c: cell) =\n  match c with\n  | nil -> ()\n"
        "  | Cons x -> ()\n",
        ["4:5: error[parse]: match arms must start with a constructor"]),
    "fold of an unparsed logical function": (
        UNPARSED_PREDICATE.replace("predicate p (c: t) = c ~> {v} &&",
                                   "function p (c: t) : int = c.v +"),
        ["2:37: error[parse]: expected an expression, found 'end of input'",
         "4:3: error[parse]: unfold target 'p' is not a declared predicate",
         "6:3: error[parse]: fold target 'p' is not a declared predicate"]),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_parse_error_is_pinned(tmp_path, case):
    source, lines = PARSE_ERRORS[case]
    src = tmp_path / "bad.ml"
    src.write_text(source, encoding="utf-8")
    status, out, err = invoke(src, check=True)
    assert (status, out) == (1, "")
    assert err == "".join(f"{src}:{line}\n" for line in lines)
    assert not (tmp_path / "bad.vpr").exists()


def test_a_leak_of_the_first_function_is_reported_at_1_1(tmp_path):
    src = tmp_path / "leak.ml"
    src.write_text("let f (c: t) =\n  ()\n(*@ f c requires c ~> {v} *)\n"
                   + CELL, encoding="utf-8")
    status, _, err = invoke(src, check=True)
    assert (status, err) == (
        0, f"{src}:1:1: warning[permission]: f leaks permission to c.v\n")


# Translator diagnostics, each with the exit status and the lines it gives
CELLS = "type cell = Nil | Cons of { mutable v : int }\n"
TREES = "type tree = Leaf | Node of { mutable w : int }\n"
TRANSLATOR_DIAGNOSTICS = {
    # an untyped local does not stop the parse, so the names are still
    # checked, but no body is translated
    "fold target beside an untyped local": (
        CELL + "(*@ predicate p (c: t) = c ~> {v} *)\n"
        "let zero (c: t) =\n  let x = 1 in\n  (*@ fold q c *)\n"
        "  c.v <- x\n(*@ zero c requires p c ensures p c *)\n", 1,
        ["4:7: error[parse]: local 'x' needs an explicit type annotation",
         "5:3: error[parse]: fold target 'q' is not a declared predicate"]),
    "field redeclared at a different type": (
        "type a = { mutable f : int }\ntype b = { mutable f : bool }\n", 1,
        ["2:20: error[translation]: field 'f' redeclared at a different "
         "type"]),
    "payload constructor used bare": (
        CELLS + "(*@ predicate p (x: cell) = x = Cons *)\n", 1,
        ["2:33: error[translation]: constructor 'Cons' carries a payload "
         "and cannot appear bare"]),
    "unknown field in an ownership": (
        CELL + "(*@ predicate p (x: t) = x ~> {w} *)\n", 1,
        ["2:26: error[translation]: unknown field 'w'"]),
    "unknown constructor in an assertion let": (
        CELLS + "(*@ predicate p (x: cell) = let Node y = x in true *)\n", 1,
        ["2:29: error[translation]: unknown constructor 'Node'"]),
    "nullary constructor in an assertion let": (
        CELLS + "(*@ predicate p (x: cell) = let Nil y = x in true *)\n", 1,
        ["2:29: error[translation]: constructor 'Nil' has no payload to "
         "bind"]),
    "allocation as a statement": (
        CELL + "let f (c: t) =\n  { v = 1 }\n(*@ f c *)\n", 1,
        ["3:3: error[translation]: allocation must be bound by a let"]),
    "length as a statement": (
        "let f (s: int sequence) =\n  length s\n(*@ f s *)\n", 1,
        ["2:3: error[translation]: 'length' is not a function that can be "
         "called as a statement"]),
    "constructor on a record allocation": (
        CELL + "let f (c: t) : t =\n  let r : t = C { v = 1 } in\n  r\n"
        "(*@ r = f c ensures r ~> {v} *)\n", 0,
        ["3:15: warning[translation]: constructor 'C' is redundant on a "
         "record allocation"]),
    "wrong constructor for a variant": (
        CELLS + TREES + "let f (x: cell) : cell =\n"
        "  let r : cell = Node { w = 1 } in\n  r\n(*@ r = f x *)\n", 1,
        ["4:18: error[translation]: constructor 'Node' does not build a "
         "'cell' payload"]),
    "field of another type": (
        CELL + "type u = { mutable w : int }\nlet f (c: t) : t =\n"
        "  let r : t = { v = 1; w = 2 } in\n  r\n(*@ r = f c *)\n", 1,
        ["4:15: error[translation]: 'w' is not a field of this type"]),
    "field initialized twice": (
        CELL + "let f (c: t) : t =\n  let r : t = { v = 1; v = 2 } in\n"
        "  r\n(*@ r = f c *)\n", 1,
        ["3:15: error[translation]: field 'v' initialized twice"]),
    "field left uninitialized": (
        "type t = { mutable v : int; mutable w : int }\n"
        "let f (c: t) : t =\n  let r : t = { v = 1 } in\n  r\n"
        "(*@ r = f c ensures r ~> {v; w} *)\n", 0,
        ["3:15: warning[translation]: field 'w' left uninitialized"]),
    "match arms of two types": (
        CELLS + TREES + "let f (x: cell) =\n  match x with\n"
        "  | Nil -> ()\n  | Leaf -> ()\n(*@ f x *)\n", 1,
        ["4:3: error[translation]: match arms mix constructors of different "
         "types"]),
    "binder on a nullary arm": (
        CELLS + "let f (x: cell) =\n  match x with\n  | Nil y -> ()\n"
        "  | Cons z -> ()\n(*@ f x *)\n", 1,
        ["4:5: error[translation]: constructor 'Nil' has no payload to "
         "bind"]),
    "function and logical function of one name": (
        "(*@ function g (x: int) : int = x *)\n"
        "let g (x: int) =\n  ()\n(*@ g x *)\n", 1,
        ["1:1: error[translation]: logical function 'g' collides with "
         "function 'g': both are 'g' in the output"]),
    "constructor named as its variant type": (
        "type c = N | C of { mutable v : int }\n", 1,
        ["1:14: error[translation]: constructor 'C' collides with type "
         "'c': both are 'C' in the output"]),
    "predicate named as a variant type": (
        CELLS + "(*@ predicate cell (x: int) = x = 0 *)\n", 1,
        ["2:1: error[translation]: predicate 'cell' collides with type "
         "'cell': both are 'Cell' in the output"]),
    "field named as a constructor test": (
        "type cell = Nil | Cons of { mutable isNil : int }\n", 1,
        ["1:37: error[translation]: field 'isNil' clashes with the "
         "constructor test of 'Nil'"]),
    "result without a return type": (
        CELL + "let f (c: t) =\n  c.v <- 0\n(*@ r = f c *)\n", 1,
        ["4:1: error[translation]: contract for 'f' names result 'r' but "
         "the function has no return type"]),
    # OCaml assigns only a field declared `mutable`
    "assignment to an immutable field": (
        "type t = { x : int }\nlet f (r: t) =\n  r.x <- 1\n"
        "(*@ f r requires r ~> {x} ensures r ~> {x} *)\n", 1,
        ["3:3: error[type]: field 'x' is not mutable"]),
    "assignment to an immutable payload field": (
        "type cell = Nil | Cons of { v : int }\nlet f (c: cell) =\n"
        "  match c with\n  | Nil -> ()\n  | Cons p -> p.v <- 1\n(*@ f c *)\n",
        1, ["5:15: error[type]: field 'v' is not mutable"]),
    # a field name is one Viper field: its declarations agree on `mutable`
    "field redeclared with mutable": (
        "type t = { x : int }\ntype u = { mutable x : int }\n", 1,
        ["2:20: error[type]: field 'x' redeclared with 'mutable'"]),
    "field redeclared without mutable": (
        "type t = { mutable x : int }\ntype u = { x : int }\n", 1,
        ["2:12: error[type]: field 'x' redeclared without 'mutable'"]),
    # a field of a call is no path that an arm's write could make stale
    # (`_path_of`), and the call itself is rejected
    "match on a field of a call": (
        CELLS + "type t = { mutable c : cell }\nlet g (x: t) : t = x\n"
        "(*@ r = g x *)\nlet f (x: t) =\n  match (g x).c with\n"
        "  | Nil -> ()\n  | Cons p -> p.v <- 1\n(*@ f x *)\n", 1,
        ["6:10: error[translation]: 'g' is a program function; calls are "
         "statements, not expressions"]),
    "return type without a result": (
        CELL + "let f (c: t) : int =\n  c.v\n(*@ f c *)\n", 1,
        ["3:3: warning[translation]: statement has no effect",
         "4:1: error[translation]: 'f' returns a value but its contract "
         "names no result"]),
}


@pytest.mark.parametrize("case", sorted(TRANSLATOR_DIAGNOSTICS))
def test_translator_diagnostic_is_pinned(tmp_path, case):
    source, expected, lines = TRANSLATOR_DIAGNOSTICS[case]
    src = tmp_path / "diag.ml"
    src.write_text(source, encoding="utf-8")
    status, _, err = invoke(src, check=True)
    assert (status, err) == (expected,
                             "".join(f"{src}:{line}\n" for line in lines))


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


def _long_match(n):
    ctors = [f"C{i}" for i in range(n)]
    return (f"type t = {{ mutable v : int }}\ntype u = {' | '.join(ctors)}\n"
            "(*@ predicate p (c: t) = c ~> {v} *)\n"
            "let zero (c: t) =\n"
            "  (*@ unfold p c *)\n"
            f"  (match {ctors[-1]} with\n"
            + "".join(f"   | {k} -> c.v <- {i}\n" for i, k in enumerate(ctors))
            + "  );\n"
            "  (*@ fold p c *)\n"
            "  ()\n"
            "(*@ zero c requires p c ensures p c *)\n")


# Chains are lists, not nesting: their length never meets MAX_NESTING.  A
# conjunction is a list of parts and a block a list of items, so a chain of
# `let … in` (all of one name here, each shadowing the last) is one block.
# The arms of a `match` are a list too, but the translator nests one `if`
# per arm, which the checker walks at three frames a level: matching the
# last constructor, it descends through all of them.
CHAINS = {
    "requires": lambda n: NESTED.format(
        body="c.v <- 0", pre=" && ".join(["p c"] + ["0 <= 1"] * (n - 1))),
    "record": _wide_record,
    "let": lambda n: NESTED.format(
        body="let x : int = c.v in " * n + "c.v <- x", pre="p c"),
    "match": _long_match,
}


@pytest.mark.parametrize("shape,n", [("requires", 10_000), ("record", 1_000),
                                     ("let", 10_000), ("match", 300)])
def test_long_conjunctions_check_and_round_trip(tmp_path, shape, n):
    src = tmp_path / "long.ml"
    src.write_text(CHAINS[shape](n))
    status, out, err = invoke(src, check=True)
    assert (status, err) == (0, "")
    text = (tmp_path / "long.vpr").read_text()
    assert pretty(reparse(text)) == text


# `+` and `-` chains are loops in the parser, but the tree nests one level
# per term, and the translator, the checker and the printer each walk it at
# one frame a level, a handler calling its operands' from its table (two,
# through a dispatcher, before); a printer at three frames a level fails at
# 400 terms.
@pytest.mark.parametrize("op", ["+", "-"])
def test_long_arithmetic_chain_checks_and_prints(tmp_path, op):
    src = tmp_path / "sum.ml"
    src.write_text(NESTED.format(body="c.v <- " + f" {op} ".join(["1"] * 400),
                                 pre="p c"))
    status, out, err = invoke(src, check=True)
    assert (status, err) == (0, "")
    assert f"c.v := 1 {op} 1 {op} 1" in (tmp_path / "sum.vpr").read_text()


# The Python frames that each stage spends per element of a chain of each
# operator that chains (`work_counts.frames_per_element`): a walk that
# adds one lowers the longest chain that fits in the stack.  A chain of
# `++` nests to the right: the surface parser keeps its right operands on
# a stack of its own, the translator and the printer walk its spine, but
# the reparser recurses per element.  It is a logical function's body,
# which the checker does not walk.
FRAMES_PER_ELEMENT = {"parse": 0, "translate": 1, "check": 1, "pretty": 1,
                      "reparse": 0}
FRAMES_PER_CONCAT = {"parse": 0, "translate": 0, "check": 0, "pretty": 0,
                     "reparse": 1}


@pytest.mark.parametrize("op", [op for op in BINARY if op.group != "none"],
                         ids=lambda op: op.surface)
def test_chain_costs_each_stage_at_most_its_frames_per_element(op):
    bound = FRAMES_PER_CONCAT if op.surface == "++" else FRAMES_PER_ELEMENT
    frames = frames_per_element(op)
    assert {stage: n for stage, n in frames.items() if n > bound[stage]} \
        == {}, frames


@pytest.mark.parametrize("check", [False, True])
def test_long_concatenation_chain_translates_and_prints(tmp_path, check):
    # the translator and the printer once took a frame per `++`, and 1,000
    # elements raised `RecursionError` out of `cli.run`
    src = tmp_path / "concat.ml"
    src.write_text("(*@ function f (s: int sequence) : int sequence = "
                   + " ++ ".join(["s"] * 2000) + " *)\n")
    status, out, err = invoke(src, check=check)
    assert (status, err) == (0, "")
    assert " ++ ".join(["s"] * 2000) in (tmp_path / "concat.vpr").read_text()


# The Python frames that each stage spends per level of each way to nest
# (`work_counts.frames_per_level`).  No input that parses nests more than
# MAX_NESTING levels of a shape (a parenthesised `if` or `match` level
# counts twice), so a stage goes at most MAX_NESTING times its frames per
# level deep, which must leave half of the recursion limit to the frames
# below the walk.
FRAMES_PER_LEVEL = {
    "parentheses": {"parse": 3, "translate": 0, "check": 0, "pretty": 0,
                    "reparse": 0},
    "if": {"parse": 5, "translate": 1, "check": 3, "pretty": 1,
           "reparse": 2},
    "match": {"parse": 7, "translate": 3, "check": 3, "pretty": 1,
              "reparse": 2},
}


@pytest.mark.parametrize("shape", sorted(work_counts.NESTINGS))
def test_nesting_costs_each_stage_at_most_its_frames_per_level(shape):
    bound = FRAMES_PER_LEVEL[shape]
    frames = frames_per_level(shape)
    assert {stage: n for stage, n in frames.items() if n > bound[stage]} \
        == {}, frames


def test_nesting_at_the_limit_fits_the_recursion_limit():
    deepest = max(max(bound.values()) for bound in FRAMES_PER_LEVEL.values())
    assert MAX_NESTING * deepest < sys.getrecursionlimit() // 2


# Inputs that check clean, each with a line its .vpr must hold
VPR_LINES = {
    # a ghost command's arguments as one group, empty or of two
    "apply with ()": (
        CELL + "(*@ lemma l requires true ensures true *)\nlet f (c: t) =\n"
        "  (*@ apply l () *)\n  c.v <- 1\n"
        "(*@ f c requires c ~> {v} ensures c ~> {v} *)\n", "  L()"),
    "unfold with (c, d)": (
        CELL + "(*@ predicate q (c: t) (d: t) = c ~> {v} *)\n"
        "let f (c: t) (d: t) =\n  (*@ unfold q (c, d) *)\n  c.v <- 1;\n"
        "  (*@ fold q (c, d) *)\n  ()\n"
        "(*@ f c d requires q c d ensures q c d *)\n", "  unfold Q(c, d)"),
    # the nullary constructor on the left of `=` is a test of the right
    "constructor on the left of =": (
        "type cell = Nil | Cons of { mutable v : int }\n"
        "(*@ predicate p (x: cell) = Nil = x *)\n", "  x.isNil"),
}


@pytest.mark.parametrize("case", sorted(VPR_LINES))
def test_vpr_line_is_pinned(tmp_path, case):
    source, line = VPR_LINES[case]
    src = tmp_path / "good.ml"
    src.write_text(source, encoding="utf-8")
    status, out, err = invoke(src, check=True)
    assert (status, out, err) == (0, f"{tmp_path / 'good.vpr'}\n", "")
    assert line in (tmp_path / "good.vpr").read_text().splitlines()


# 24 independent guards: the checker drops paths past MAX_PATHS
PATH_CAP = """\
type t = {{ mutable v : int }}
(*@ predicate p (c: t) = c ~> {{v}} *)
let many (c: t) {params} =
  (*@ unfold p c *)
{guards}  (*@ fold p c *)
  ()
(*@ many c {args} requires p c ensures p c *)
""".format(params=" ".join(f"(x{i}: int)" for i in range(24)),
           guards="".join(f"  if x{i} = 0 then c.v <- {i};\n"
                          for i in range(24)),
           args=" ".join(f"x{i}" for i in range(24)))


def test_a_run_leaves_no_cyclic_garbage(tmp_path, corpus):
    # every object of a run is freed by reference counting, which is what
    # lets `run` pause the cyclic collector; a cycle (such as a recursive
    # closure over the translator) would keep the whole surface tree alive
    # until the collector ran.  Failing runs, the path cap and joins too.
    inputs = {"parse": BAD_PARSE, "translation": WRONG_CALL,
              "cap": PATH_CAP, "join": JOINS}
    for name, text in inputs.items():
        (tmp_path / f"{name}.ml").write_text(text)
    paths = sorted(corpus.glob("*.ml")) + [tmp_path / f"{name}.ml"
                                           for name in inputs]
    out = str(tmp_path / "out") + os.sep
    for path in paths:
        for strict in (False, True):
            gc.collect()
            gc.disable()
            try:
                invoke(path, check=True, strict=strict, output=out)
                garbage = gc.collect()
            finally:
                gc.enable()
            assert garbage == 0, (path.name, strict)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("terms", [1, 1000])
def test_run_restores_the_collector_setting(tmp_path, enabled, terms):
    # 1,000 terms still overflow the stack (ROADMAP item 5), so that run
    # leaves by an exception
    src = tmp_path / "sum.ml"
    src.write_text(NESTED.format(body="c.v <- " + " + ".join(["1"] * terms),
                                 pre="p c"))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if terms < 1000:
            assert invoke(src, check=True)[0] == 0
        else:
            with pytest.raises(RecursionError):
                invoke(src, check=True)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_the_cli_imports_only_what_every_run_needs():
    # every invocation pays for the CLI's imports: the reparser is for
    # the tests, argparse for `main`, shlex and subprocess for a verifier.
    # The import pauses the collector and leaves it as it found it.
    root = Path(gospel2viper.__file__).resolve().parent.parent
    path = os.pathsep.join([str(root), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    lazy = ["gospel2viper.viper_parser", "argparse", "shlex", "subprocess"]
    for switch, enabled in (("enable", True), ("disable", False)):
        code = (f"import gc, sys; gc.{switch}(); import gospel2viper.cli; "
                f"print([m for m in {lazy!r} if m in sys.modules], "
                "gc.isenabled())")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"[] {enabled}\n"
    proc = subprocess.run([sys.executable, "-m", "gospel2viper.cli",
                           "--help"], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: gospel2viper ")


def test_the_cli_imports_no_dataclasses():
    # `dataclasses` generates and compiles each class's methods, and it
    # brings `inspect`; -S, because a site .pth file may import either
    root = Path(gospel2viper.__file__).resolve().parent.parent
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import gospel2viper.cli; "
            "print([m for m in ('dataclasses', 'inspect') "
            "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(root)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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


@pytest.mark.parametrize("flags", [["--check"], ["--check", "--strict"]])
def test_main_in_process_gives_what_run_gives(tmp_path, corpus, capsys,
                                              monkeypatch, flags):
    # `main`'s argparse wiring, run in this process: its exit status,
    # stdout and stderr are those of `run` on the same inputs and options
    monkeypatch.delenv(VERIFIER_ENV, raising=False)
    files = sorted(str(p) for p in corpus.glob("*.ml"))
    with pytest.raises(SystemExit) as stop:
        main([*files, *flags, "-o", str(tmp_path)])
    out, err = capsys.readouterr()
    assert (stop.value.code, out, err) == invoke(
        *files, output=str(tmp_path), check=True, strict="--strict" in flags)
    assert stop.value.code == 1 and "error[" in err
