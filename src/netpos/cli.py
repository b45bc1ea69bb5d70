"""Command-line entry point: partition, similarity, centrality, coevolve,
snapshots, gen, and bench.

It imports the module of the command it runs from :mod:`netpos.commands`, and
no other; no module imports this one, which runs as ``__main__`` under ``python
-m``. Every option value, paths included, is checked before any input is
read. Exit codes: 0 success, 2 usage, 3 parse/IO, 4 integrity.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import importlib
import os
import sys

from . import __version__

EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_INTEGRITY = 4


def _parse_errors():
    from .textio import ParseError
    return ParseError, OSError


def _integrity_errors():
    from .commands import Refused
    from .partition import IterationLimitError, SignatureCollisionError
    from .similarity import UniverseMismatchError
    return (Refused, UniverseMismatchError, IterationLimitError,
            SignatureCollisionError)


# name -> the first docstring line of the command, the function of that name in
# ``netpos.commands.<name>``: ``--help`` lists these and imports no command
_COMMANDS = {
    "bench": "Time the refinement over a (size, gamma, epsilon) grid.",
    "centrality": "Emit per-vertex centrality scores, one record per vertex.",
    "coevolve": "Analyze how same-position vertex pairs evolve between snapshots.",
    "gen": "Generate a random power-law graph (erased configuration model).",
    "partition": "Partition a graph into positions and write a partition file.",
    "similarity": "Score the positional overlap of two partitions of the same vertices.",
    "snapshots": "Build nested cumulative graph snapshots from a timestamped edge log.",
}


def _load(name: str):
    """The function of command ``name``, from its module."""
    return getattr(importlib.import_module(f"netpos.commands.{name}"), name)


# --- entry points -------------------------------------------------------------

def _parser(name: str | None = None) -> argparse.ArgumentParser:
    """The parser of command ``name``, or else of ``netpos`` itself, which
    reads the command name and leaves the rest of the line to the command's.

    Each takes exactly the option names it declares (no abbreviations) and
    ``--help``, but no ``-h``. Only the parser of the command that runs is
    built.
    """
    if name is None:
        listing = "".join(f"  {command:<12}{summary}\n"
                          for command, summary in sorted(_COMMANDS.items()))
        parser = argparse.ArgumentParser(
            prog="netpos", description="Positional analysis of large graphs.",
            epilog="commands:\n" + listing, add_help=False, allow_abbrev=False,
            formatter_class=argparse.RawDescriptionHelpFormatter)
        parser.add_argument("--version", action="version",
                            version=f"netpos, version {__version__}",
                            help="Show the version and exit.")
        parser.add_argument("command", metavar="COMMAND", choices=sorted(_COMMANDS))
        parser.add_argument("args", nargs=argparse.REMAINDER, metavar="ARGS",
                            help="The command's options and arguments.")
    else:
        fn = _load(name)
        parser = argparse.ArgumentParser(prog=f"netpos {name}", description=fn.__doc__,
                                         add_help=False, allow_abbrev=False)
        for names, keywords in fn.arguments:
            parser.add_argument(*names, **keywords)
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    return parser


def _bind_values(argv: list[str], arguments) -> list[str]:
    """``argv`` with every option of ``arguments`` that takes a value joined
    to the token after it, as ``--opt=value``, so that a value starting with
    '-' (``--bin-edges -1,0,1``) binds to its option instead of reading as an
    option itself."""
    takes_value = {name for names, keywords in arguments
                   if names[0].startswith("-") and "action" not in keywords
                   for name in names}
    bound, rest = [], iter(argv)
    for token in rest:
        if token == "--":   # every later token is an argument
            bound += [token, *rest]
        elif token in takes_value:
            value = next(rest, None)
            bound.append(token if value is None else f"{token}={value}")
        else:
            bound.append(token)
    return bound


def main(argv: list[str] | None = None) -> int:
    """Run one command line, ``sys.argv[1:]`` by default; returns the exit code.

    Messages go to ``sys.stderr``: ``error: ...`` for a parse, IO or
    integrity error, and the command's usage for a usage error.
    """
    try:
        line = _parser().parse_args(sys.argv[1:] if argv is None else argv)
        command = _load(line.command)
        parser = _parser(line.command)
        args = parser.parse_args(_bind_values(line.args, command.arguments))
    except SystemExit as exc:   # --help and --version exit 0, a usage error 2
        return exc.code
    from .commands import UsageError    # loaded with the command's module
    try:
        command(**vars(args))
    except UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # an except clause's classes are looked up only once an exception
    # reaches it, so the modules defining them load only on failure
    except _parse_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _integrity_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    return 0


def run():
    """Process entry point: run :func:`main` with the cyclic collector off,
    then the atexit handlers, flush stdout and stderr and end the process with
    ``main``'s code (120 if a flush fails, as in CPython's own shutdown)."""
    # a command's work makes no reference cycles, and the cyclic garbage its
    # argparse parsers leave dies with the process, so collecting is wasted
    gc.disable()
    code = main()
    # everything still alive dies with the process, so the interpreter is not
    # torn down: that would free numpy's module graph object by object
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:     # the reader is gone
            code = 120
    os._exit(code)


if __name__ == "__main__":
    run()
