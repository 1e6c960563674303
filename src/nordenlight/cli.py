"""Command-line interface.

    nordenlight check <file> [--report text|structured] [--out <path>]

Exit codes: 0 success, 2 parse error or unreadable input or unwritable
output, 3 validation failure, 4 hypothesis failure, 5 internal
inconsistency.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ParseError
from .manifold_file import parse_manifold_file
from .pipeline import emit_report, run_pipeline


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nordenlight",
        description=(
            "Exact verification of curvature symmetries of lightlike "
            "hypersurfaces in Kaehler-Norden Lie algebras"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="analyse a manifold description file")
    check.add_argument("file", help="manifold description file")
    check.add_argument(
        "--report",
        choices=["text", "structured"],
        default="text",
        help="output format (default: text)",
    )
    check.add_argument("--out", default=None, help="write the report to this path instead of stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    try:
        mf = parse_manifold_file(text)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return exc.exit_code
    report = run_pipeline(mf)
    rendered = emit_report(report, args.report)
    if args.out is not None:
        try:
            Path(args.out).write_text(rendered, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return report.exit_code


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
