#!/usr/bin/env python3
"""Internal-link checker for the markdown docs.

Scans the given markdown files for ``[text](target)`` links and verifies
that every *internal* target — a relative path, optionally with a
``#fragment`` — exists on disk relative to the file containing the link.
External targets (``http(s)://``, ``mailto:``) and pure in-page
fragments (``#section``) are ignored; checking them would need network
access / an anchor parser and the CI docs job must stay hermetic.

Usage::

    python tools/check_links.py README.md docs/*.md

Exits non-zero listing every broken link (file, line, target), so the CI
docs job fails the PR that breaks a documented path.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import List, Tuple

#: ``[text](target)`` with a non-greedy target that stops at the first
#: closing parenthesis; images (``![alt](src)``) match the same shape.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

_EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "ftp://")


def iter_links(path: Path) -> List[Tuple[int, str]]:
    """All ``(line_number, target)`` markdown links in ``path``."""
    links: List[Tuple[int, str]] = []
    in_code_fence = False
    for line_number, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if line.lstrip().startswith("```"):
            in_code_fence = not in_code_fence
            continue
        if in_code_fence:
            continue
        for match in _LINK.finditer(line):
            links.append((line_number, match.group(1)))
    return links


def broken_links(path: Path) -> List[Tuple[int, str]]:
    """The internal links of ``path`` whose targets do not exist."""
    broken: List[Tuple[int, str]] = []
    for line_number, target in iter_links(path):
        if target.startswith(_EXTERNAL_PREFIXES) or target.startswith("#"):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        if not (path.parent / relative).exists():
            broken.append((line_number, target))
    return broken


def main(argv: List[str]) -> int:
    if not argv:
        print("usage: check_links.py PAGE [PAGE ...]", file=sys.stderr)
        return 2
    failures = 0
    for name in argv:
        path = Path(name)
        if not path.exists():
            print(f"{name}: file not found", file=sys.stderr)
            failures += 1
            continue
        for line_number, target in broken_links(path):
            print(f"{name}:{line_number}: broken link -> {target}", file=sys.stderr)
            failures += 1
    if failures:
        print(f"{failures} broken link(s)", file=sys.stderr)
        return 1
    print(f"all internal links OK across {len(argv)} file(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
