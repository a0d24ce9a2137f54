"""The simlint command line: ``python -m tools.analyze`` / ``repro lint``."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from tools.analyze.core import RULE_CODES, run_lint


def find_repo_root(start: Optional[Path] = None) -> Optional[Path]:
    """Walk up from ``start`` (default: cwd) to the directory holding simlint."""
    current = (start if start is not None else Path.cwd()).resolve()
    for candidate in (current, *current.parents):
        if (candidate / "tools" / "analyze" / "__init__.py").is_file():
            return candidate
    return None


def build_parser() -> argparse.ArgumentParser:
    """The ``simlint`` argument surface."""
    parser = argparse.ArgumentParser(
        prog="simlint",
        description=(
            "determinism lint for the TEMPI reproduction "
            "(SIM001-SIM007; see tools/analyze/__init__.py for the rule table)"
        ),
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="repository root to lint (default: auto-detected from cwd)",
    )
    parser.add_argument(
        "--select",
        nargs="*",
        choices=RULE_CODES,
        default=None,
        help="restrict the report to these rule codes",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the lint pass; exit 1 when any rule fired."""
    args = build_parser().parse_args(argv)
    root = args.root if args.root is not None else find_repo_root()
    if root is None or not (root / "src").is_dir():
        print(
            "simlint: cannot locate a repository root (need <root>/src); "
            "pass --root",
            file=sys.stderr,
        )
        return 2
    violations = run_lint(root.resolve(), select=args.select)
    for violation in violations:
        print(violation.render())
    if violations:
        print(f"simlint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("simlint: clean")
    return 0
