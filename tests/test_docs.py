"""Docs-site integrity: the link checker works and the shipped docs pass."""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_links import broken_links, iter_links  # noqa: E402
from check_md_refs import dangling_references  # noqa: E402


class TestLinkChecker:
    def test_detects_broken_and_accepts_valid(self, tmp_path):
        (tmp_path / "other.md").write_text("# other\n", encoding="utf-8")
        page = tmp_path / "page.md"
        page.write_text(
            "[ok](other.md) [anchor](other.md#sec) [ext](https://x.test/a)\n"
            "[frag](#here) [missing](gone.md)\n"
            "```\n[inside a fence](never.md)\n```\n",
            encoding="utf-8",
        )
        assert [target for _line, target in broken_links(page)] == ["gone.md"]

    def test_iter_links_reports_line_numbers(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("first\n[a](x.md)\n\n[b](y.md)\n", encoding="utf-8")
        assert iter_links(page) == [(2, "x.md"), (4, "y.md")]


class TestShippedDocs:
    def test_readme_and_docs_have_no_broken_internal_links(self):
        pages = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
        assert len(pages) >= 4  # README + architecture, cli, paper_mapping
        failures = {
            str(page.relative_to(REPO_ROOT)): broken_links(page)
            for page in pages
            if broken_links(page)
        }
        assert not failures, f"broken internal doc links: {failures}"


class TestTopLevelMarkdownReferences:
    def test_flags_only_missing_top_level_names(self, tmp_path):
        (tmp_path / "README.md").write_text("# readme\n", encoding="utf-8")
        source = tmp_path / "module.py"
        source.write_text(
            '"""See README.md and GONE.md, docs/cli.md and report.md."""\n'
            "# also MISSING.md\n",
            encoding="utf-8",
        )
        assert dangling_references(source, tmp_path) == [(1, "GONE.md"), (2, "MISSING.md")]

    def test_shipped_code_names_only_existing_documents(self):
        failures = {}
        for directory in ("src", "benchmarks", "tools"):
            for path in sorted((REPO_ROOT / directory).rglob("*.py")):
                found = dangling_references(path)
                if found:
                    failures[str(path.relative_to(REPO_ROOT))] = found
        assert not failures, f"code names missing top-level documents: {failures}"
