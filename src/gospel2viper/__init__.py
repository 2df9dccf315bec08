"""OCaml-with-annotations to Viper translation and permission checking.

The Viper reparser, which only the tests use, is not imported here:
import `reparse` and `ViperParseError` from `gospel2viper.viper_parser`.

The cyclic garbage collector is paused while the submodules load, and the
caller's setting is restored after.  Loading builds only classes,
functions and tables that live as long as the process, so each of the
dozen collections it would trigger walks them and frees nothing; every
run of the CLI pays for the import.
"""

import gc

_collecting = gc.isenabled()
gc.disable()
try:
    from .diagnostics import (Category, Diagnostic, LineIndex, Severity,
                              Span, has_errors, sort_key)
    from .lexer import lex
    from .parser import parse_module, parse_source
    from .permcheck import Checker, SymState, check_program
    from .translate import prelude_decls, translate, translate_source
    from .viper_ast import ViperProgram, pretty
finally:
    if _collecting:
        gc.enable()
del _collecting

__all__ = [
    "Category",
    "Checker",
    "Diagnostic",
    "LineIndex",
    "Severity",
    "Span",
    "SymState",
    "ViperProgram",
    "check_program",
    "has_errors",
    "lex",
    "parse_module",
    "parse_source",
    "prelude_decls",
    "pretty",
    "sort_key",
    "translate",
    "translate_source",
]
