"""One way to parse a ``python -m repro`` command line.

Every subcommand builds an :mod:`argparse` parser with
:func:`command_parser` and parses with :func:`parse`, so malformed argv
is a usage error on stderr (exit status 2) instead of a traceback or a
silently ignored flag, and ``--seed``/``--out`` read the same in every
command that has them.
"""

import argparse
from typing import List, Optional, Tuple


def command_parser(command: str = "",
                   description: Optional[str] = None
                   ) -> argparse.ArgumentParser:
    """A parser for ``python -m repro <command>``; no flag abbreviations."""
    return argparse.ArgumentParser(
        prog=f"python -m repro {command}".rstrip(),
        description=description, allow_abbrev=False)


def add_seed(parser, default: int) -> None:
    parser.add_argument("--seed", type=int, default=default, metavar="N",
                        help="seed of the deterministic run "
                             "(default: %(default)s)")


def add_out(parser, default: Optional[str] = None) -> None:
    """``--out PATH``; ``parser`` may also be a mutually exclusive group."""
    text = "write the JSON output to PATH"
    if default is not None:
        text += " (default: %(default)s)"
    parser.add_argument("--out", default=default, metavar="PATH", help=text)


def comma_list(text: str) -> Tuple[str, ...]:
    """The value of a comma-list flag: ``"a, b,,"`` -> ``("a", "b")``."""
    return tuple(part.strip() for part in text.split(",") if part.strip())


def parse(parser: argparse.ArgumentParser, argv: List[str],
          intermixed: bool = False
          ) -> Tuple[Optional[argparse.Namespace], int]:
    """``(options, 0)``, or ``(None, status)`` where argparse would exit.

    argparse exits with status 2 after printing a usage error to stderr
    and with 0 after ``--help``; an entry point returns that status, so
    calling ``main(argv)`` directly never raises ``SystemExit``.
    """
    try:
        if intermixed:
            return parser.parse_intermixed_args(argv), 0
        return parser.parse_args(argv), 0
    except SystemExit as exc:
        return None, exc.code
