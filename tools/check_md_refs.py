#!/usr/bin/env python3
"""Dangling top-level Markdown reference checker.

Scans text files under the given directories for names of top-level
Markdown documents (upper-case names such as ``README.md`` that are not
part of a longer path) and fails when a named document does not exist
at the repository root. Docstrings that cite a document which was
renamed or never written send readers nowhere; this keeps them honest.

Usage::

    python tools/check_md_refs.py src benchmarks tools

Exits non-zero listing every dangling reference (file, line, name).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import List, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: An upper-case Markdown file name not preceded by a path or word character,
#: so ``docs/cli.md`` and ``report.md`` are not top-level references.
_TOP_LEVEL_MD = re.compile(r"(?<![\w/.\-])([A-Z][A-Z0-9_\-]*\.md)\b")

_SUFFIXES = {".py", ".md", ".txt", ".toml", ".cfg", ".json", ".yml", ".yaml", ".sh"}


def dangling_references(path: Path, root: Path = ROOT) -> List[Tuple[int, str]]:
    """``(line_number, name)`` of every top-level ``*.md`` named in ``path``
    that does not exist under ``root``."""
    found: List[Tuple[int, str]] = []
    text = path.read_text(encoding="utf-8", errors="replace")
    for line_number, line in enumerate(text.split("\n"), start=1):
        for match in _TOP_LEVEL_MD.finditer(line):
            if not (root / match.group(1)).is_file():
                found.append((line_number, match.group(1)))
    return found


def main(argv: List[str]) -> int:
    if not argv:
        print("usage: check_md_refs.py DIR [DIR ...]", file=sys.stderr)
        return 2
    failures = 0
    for name in argv:
        directory = Path(name)
        files = [directory] if directory.is_file() else sorted(directory.rglob("*"))
        for path in files:
            if path.suffix not in _SUFFIXES or "__pycache__" in path.parts:
                continue
            for line_number, missing in dangling_references(path):
                print(f"{path}:{line_number}: names missing {missing}", file=sys.stderr)
                failures += 1
    if failures:
        print(f"{failures} dangling top-level Markdown reference(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
