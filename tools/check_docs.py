#!/usr/bin/env python
"""Docs checker: execute fenced code blocks, validate links and names.

Run from anywhere (``python tools/check_docs.py``); the repository root is
derived from this file's location and ``src/`` is put on ``sys.path``.

Three checks over ``README.md`` and every ``docs/*.md``:

* **code blocks** — every fenced block whose info string is ``python`` is
  executed; blocks within one file share a namespace, so a tutorial can
  build state across blocks.  Mark a block ``python no-run`` to exclude it
  (API sketches, signatures).  Non-python fences (``text``, ``bash``, …)
  are never executed.
* **links** — every relative markdown link target must exist on disk,
  resolved against the file containing the link (anchors and external
  ``http(s)``/``mailto`` links are skipped).
* **names** — every backticked dotted name starting ``repro.`` outside
  fenced blocks must resolve: the longest importable module prefix is
  imported and the rest is looked up with ``getattr``.  Sections whose
  heading starts with "Removed" are skipped; they name what is gone.

and a fourth over every docstring under ``src/repro``:

* **docstring roles** — every Sphinx role target ``:class:`` / ``:meth:`` /
  ``:func:`` / ``:mod:`` / ``:attr:`` / ``:data:`` / ``:exc:`` spelled
  ``~?repro.…`` must resolve by the same import-then-``getattr`` rule.

Exit status is non-zero when any block raises, any link dangles or any
name does not resolve, which is what the CI docs job gates on.
"""

from __future__ import annotations

import ast
import importlib
import re
import sys
import traceback
from pathlib import Path
from typing import Iterator, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

FENCE_OPEN = re.compile(r"^```([A-Za-z][\w+-]*)?[ \t]*([^\n]*)$")
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
EXTERNAL = ("http://", "https://", "mailto:")
DOTTED_NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)")
HEADING = re.compile(r"^(#+)\s+(.*)$")
ROLE_TARGET = re.compile(r":(?:class|meth|func|mod|attr|data|exc):`~?(repro(?:\.\w+)+)`")
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def iter_code_blocks(text: str) -> Iterator[Tuple[str, str, str, int]]:
    """Yield ``(language, attributes, code, first_line_number)`` per fence."""
    lines = text.splitlines()
    index = 0
    while index < len(lines):
        match = FENCE_OPEN.match(lines[index])
        if match is None:
            index += 1
            continue
        language = (match.group(1) or "").lower()
        attributes = (match.group(2) or "").strip().lower()
        start = index + 1
        end = start
        while end < len(lines) and lines[end].rstrip() != "```":
            end += 1
        yield language, attributes, "\n".join(lines[start:end]), start + 1
        index = end + 1


def run_code_blocks(path: Path) -> Tuple[List[str], int]:
    """Execute the file's runnable python blocks in one shared namespace.

    Returns ``(errors, runnable_block_count)`` from a single parse.
    """
    errors: List[str] = []
    count = 0
    namespace: dict = {"__name__": f"docs_{path.stem}"}
    for language, attributes, code, lineno in iter_code_blocks(path.read_text()):
        if language != "python" or "no-run" in attributes:
            continue
        count += 1
        try:
            exec(compile(code, f"{path}:{lineno}", "exec"), namespace)
        except Exception:
            trace = traceback.format_exc(limit=3)
            errors.append(f"{path}:{lineno}: code block failed\n{trace}")
    return errors, count


def check_links(path: Path) -> List[str]:
    """Verify every relative link target in the file exists on disk."""
    errors: List[str] = []
    text = path.read_text()
    for match in LINK.finditer(text):
        target = match.group(1)
        if target.startswith(EXTERNAL) or target.startswith("#"):
            continue
        filepart = target.split("#", 1)[0]
        if not filepart:
            continue
        resolved = (path.parent / filepart).resolve()
        if not resolved.exists():
            errors.append(f"{path}: dangling link {target!r} -> {resolved}")
    return errors


def resolves(name: str) -> bool:
    """Whether ``name`` is an importable module or an attribute path of one."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def check_names(path: Path) -> List[str]:
    """Verify every backticked ``repro.…`` name outside fences and outside
    "Removed…" sections resolves."""
    errors: List[str] = []
    removed_level = 0  # heading level of the enclosing "Removed" section
    in_fence = False
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if line.startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        heading = HEADING.match(line)
        if heading is not None:
            level = len(heading.group(1))
            if removed_level and level <= removed_level:
                removed_level = 0
            if not removed_level and heading.group(2).startswith("Removed"):
                removed_level = level
            continue
        if removed_level:
            continue
        for match in DOTTED_NAME.finditer(line):
            if not resolves(match.group(1)):
                errors.append(f"{path}:{lineno}: unresolved name {match.group(1)!r}")
    return errors


def check_docstring_roles(path: Path) -> List[str]:
    """Verify every ``repro.…`` Sphinx role target in the module's docstrings
    resolves."""
    errors: List[str] = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, DOCUMENTED):
            continue
        docstring = ast.get_docstring(node, clean=False)
        if docstring is None:
            continue
        first_line = node.body[0].lineno
        for match in ROLE_TARGET.finditer(docstring):
            if not resolves(match.group(1)):
                lineno = first_line + docstring.count("\n", 0, match.start())
                errors.append(f"{path}:{lineno}: unresolved role target {match.group(1)!r}")
    return errors


def main() -> int:
    files = [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))
    missing = [str(f) for f in files if not f.exists()]
    if missing:
        print(f"FAIL: missing documentation files: {missing}")
        return 1
    failures: List[str] = []
    for path in files:
        block_errors, blocks = run_code_blocks(path)
        link_errors = check_links(path)
        name_errors = check_names(path)
        failures.extend(block_errors + link_errors + name_errors)
        status = "FAIL" if (block_errors or link_errors or name_errors) else "ok"
        print(f"[{status}] {path.relative_to(ROOT)}: {blocks} runnable block(s)")
    sources = sorted((ROOT / "src" / "repro").rglob("*.py"))
    role_errors = [error for path in sources for error in check_docstring_roles(path)]
    failures.extend(role_errors)
    status = "FAIL" if role_errors else "ok"
    print(f"[{status}] src/repro: docstring role targets in {len(sources)} module(s)")
    if failures:
        print("\n" + "\n".join(failures))
        return 1
    print(f"\nAll documentation checks passed ({len(files)} files).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
