"""Totality on mutated sources: token-deletion and token-duplication
mutants of the corpus files go through every stage without raising, and
each gives the output pinned for it in `mutant_digests.txt`.

After a change that is meant to alter the output, rewrite the table with
`PYTHONPATH=src python tests/test_mutants.py`."""

import hashlib
from pathlib import Path

from gospel2viper.diagnostics import LineIndex, sort_key
from gospel2viper.lexer import T, lex
from gospel2viper.parser import parse_module
from gospel2viper.permcheck import check_program
from gospel2viper.translate import translate, translate_source
from gospel2viper.viper_ast import pretty
from gospel2viper.viper_parser import reparse

CORPUS = Path(__file__).parent / "corpus"
DIGESTS = Path(__file__).parent / "mutant_digests.txt"

# Every third mutant, deletions and duplications alternating: about a third
# of the ~940 keeps this test near one second.
STRIDE = 3


def outer_tokens(toks):
    """Indices of the tokens outside every annotation payload, the last EOF
    excluded: an annotation counts as one token."""
    i = 0
    while toks.kinds[i] != T.EOF:
        yield i
        i = (toks.kinds.index(T.EOF, i + 1) if toks.kinds[i] == T.ANNOTATION
             else i) + 1


def mutants():
    """(name, source) for each token of each corpus file, deleted and then
    duplicated."""
    for path in sorted(CORPUS.glob("*.ml")):
        source = path.read_text(encoding="utf-8")
        toks, _ = lex(source)
        for n, i in enumerate(outer_tokens(toks)):
            start = toks.starts[i]
            end = start + len(toks.texts[i])
            yield f"{path.name}:del{n}", source[:start] + source[end:]
            yield f"{path.name}:dup{n}", source[:end] + " " + source[start:]


def stages(source):
    """Run every stage that the previous one lets run."""
    toks, diags = lex(source)
    if diags:
        return
    module, _ = parse_module(toks)
    if module is None:
        return
    program, _ = translate(module)
    if program is None:
        return
    check_program(program)
    text = pretty(program)
    assert pretty(reparse(text)) == text


def test_corpus_mutants_pass_every_stage_without_raising():
    for name, source in list(mutants())[::STRIDE]:
        try:
            stages(source)
        except Exception as exc:
            raise AssertionError(f"mutant {name}") from exc


def digest(source):
    """A short digest of what a mutant gives: its `.vpr` text and its
    sorted translate + check diagnostics, without and with `strict`."""
    program, diags = translate_source(source)
    index = LineIndex(source)
    parts = [pretty(program) if program is not None else ""]
    for strict in (False, True):
        found = diags if program is None else (
            diags + check_program(program, strict=strict))
        parts.append("\n".join(d.render("mutant", index)
                               for d in sorted(found, key=sort_key)))
    text = "\0".join(parts)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def pinned():
    return dict(line.split() for line in
                DIGESTS.read_text(encoding="utf-8").splitlines())


def test_corpus_mutants_keep_their_pinned_outputs():
    table = pinned()
    sample = list(mutants())[::STRIDE]
    assert sorted(table) == sorted(name for name, _ in sample)
    changed = [name for name, source in sample
               if digest(source) != table[name]]
    assert not changed, f"{len(changed)} mutants changed: {changed[:10]}"


if __name__ == "__main__":
    DIGESTS.write_text("".join(f"{name} {digest(source)}\n"
                               for name, source in list(mutants())[::STRIDE]),
                       encoding="utf-8")
