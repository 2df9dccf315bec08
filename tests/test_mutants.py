"""Totality on mutated sources: token-deletion and token-duplication
mutants of the corpus files go through every stage without raising."""

from pathlib import Path

from gospel2viper.lexer import T, lex
from gospel2viper.parser import parse_module
from gospel2viper.permcheck import check_program
from gospel2viper.translate import translate
from gospel2viper.viper_ast import pretty
from gospel2viper.viper_parser import reparse

CORPUS = Path(__file__).parent / "corpus"

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
