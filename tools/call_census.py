"""Call census: which functions under ``src/repro`` does a pytest run call?

A pytest plugin.  Before the conftest files load it installs a profile hook
(``sys.setprofile`` for the main thread, ``threading.setprofile`` for
threads started later) that records the code object of every Python call.
At the end of the session it compiles every module under ``src/repro``,
lists each function and method defined there that was never called, and
prints how many there are and how many source lines they span::

    PYTHONPATH=src:tools PYTHONHASHSEED=0 python -m pytest -q -p call_census

It is a report, not a gate: it cannot see code that runs only in child
processes, nor tests the default markers deselect
(``-m "fuzz or slow"``).  The hook slows the run roughly threefold.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from types import CodeType
from typing import Iterator, Set

SOURCE_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

_called: Set[CodeType] = set()


def _record(frame, event, arg):
    if event == "call":
        _called.add(frame.f_code)


def _functions(code: CodeType) -> Iterator[CodeType]:
    """Every function code object nested in ``code`` (lambdas and
    comprehensions excluded; class bodies are walked, not listed)."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if const.co_flags & 0x2 and not const.co_name.startswith("<"):  # CO_NEWLOCALS
                yield const
            yield from _functions(const)


def _span(code: CodeType) -> int:
    last = max((line for _, _, line in code.co_lines() if line is not None), default=code.co_firstlineno)
    return last - code.co_firstlineno + 1


def pytest_load_initial_conftests(early_config, parser, args) -> None:
    # Runs before the conftest files import the package, so functions that
    # run only while modules are imported are seen as well.
    threading.setprofile(_record)
    sys.setprofile(_record)


def pytest_terminal_summary(terminalreporter) -> None:
    sys.setprofile(None)
    threading.setprofile(None)
    seen = {(code.co_filename, code.co_firstlineno, code.co_name) for code in _called}
    never, total = [], 0
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        module = compile(path.read_text(), str(path), "exec")
        for code in _functions(module):
            total += 1
            if (code.co_filename, code.co_firstlineno, code.co_name) not in seen:
                never.append(code)
    write = terminalreporter.write_line
    write("")
    write(f"call census: {len(never)} of {total} functions under {SOURCE_ROOT} never called "
          f"({sum(_span(code) for code in never)} lines)")
    for code in never:
        write(f"  {Path(code.co_filename).relative_to(SOURCE_ROOT.parent)}:"
              f"{code.co_firstlineno} {code.co_qualname}")
