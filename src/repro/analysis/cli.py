"""``python -m repro.analysis`` — the static-analysis command line.

Two subcommands share the finding/waiver machinery of
:mod:`repro.analysis.findings`:

``constraints [PROGRAM ...]``
    Verify shipped constraint programs (default: all of them).  Each named
    program is checked *in context* — the optional rule sets are verified
    together with the core MMC constraints they are loaded with, because
    properties like commutativity repair and weak acyclicity are properties
    of the combined program, not of a file in isolation.

``lint [PATH ...]``
    Run the concurrency/spawn-safety rules over Python sources
    (default: ``src/repro``).

Both accept ``--json`` (machine-readable findings), ``--strict`` (warnings
fail the run too) and ``--waive FILE`` (accepted findings with mandatory
reasons; defaults to ``tools/analysis_waivers.json`` when present).  Exit
status is 0 when nothing unwaived fails, 1 otherwise, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.findings import (
    Finding,
    WaiverReport,
    apply_waivers,
    failing,
    load_waivers,
    render_report,
)
from repro.analysis.lint import lint_paths
from repro.analysis.verifier import verify_program
from repro.chase.program import ConstraintProgram
from repro.exceptions import ConfigError

#: Waiver file consulted by default (repo-relative) when none is given.
DEFAULT_WAIVER_FILE = os.path.join("tools", "analysis_waivers.json")


def _core_constraints():
    from repro.constraints import (
        la_property_constraints,
        matrix_model_constraints,
    )

    return matrix_model_constraints() + la_property_constraints()


def _with_core(extra_factory) -> Callable[[], list]:
    def build() -> list:
        return _core_constraints() + extra_factory()

    return build


def _default_program() -> list:
    from repro.constraints import default_constraints

    return default_constraints(include_morpheus=True)


def _views_program() -> list:
    from repro.constraints.views import verification_view_constraints

    return _default_program() + verification_view_constraints()


def shipped_programs() -> Dict[str, Callable[[], list]]:
    """name -> constraint-list factory for every shipped program."""
    from repro.constraints import (
        decomposition_constraints,
        morpheus_rule_constraints,
        systemml_rule_constraints,
    )

    return {
        "core": _core_constraints,
        "decompositions": _with_core(decomposition_constraints),
        "systemml_rules": _with_core(systemml_rule_constraints),
        "morpheus_rules": _with_core(morpheus_rule_constraints),
        "default": _default_program,
        "views": _views_program,
    }


def verify_shipped(names: Optional[Sequence[str]] = None) -> List[Finding]:
    """Verify the named shipped programs (all of them by default)."""
    registry = shipped_programs()
    selected = list(names) if names else list(registry)
    findings: List[Finding] = []
    for name in selected:
        factory = registry.get(name)
        if factory is None:
            raise ConfigError(
                f"unknown constraint program {name!r}; shipped programs: "
                f"{', '.join(sorted(registry))}"
            )
        program = ConstraintProgram(factory(), validate=True)
        findings.extend(verify_program(program, name))
    return findings


def _resolve_waivers(path: Optional[str]) -> list:
    if path is not None:
        return load_waivers(path)
    if os.path.exists(DEFAULT_WAIVER_FILE):
        return load_waivers(DEFAULT_WAIVER_FILE)
    return []


def _emit(findings: List[Finding], report: WaiverReport, strict: bool,
          as_json: bool, stream) -> int:
    failures = failing(report, strict)
    if as_json:
        payload = {
            "findings": [f.as_dict() for f in report.active],
            "info": [f.as_dict() for f in report.info],
            "waived": [
                {"finding": f.as_dict(), "reason": w.reason}
                for f, w in report.waived
            ],
            "unused_waivers": [
                {"code": w.code, "target": w.target, "reason": w.reason}
                for w in report.unused
            ],
            "strict": strict,
            "failing": len(failures),
        }
        print(json.dumps(payload, indent=2, sort_keys=True), file=stream)
    else:
        print(render_report(findings, report, strict), file=stream)
    return 1 if failures else 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--strict", action="store_true",
        help="warnings fail the run too (unwaived ones)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit findings as JSON instead of the human report",
    )
    parser.add_argument(
        "--waive", metavar="FILE", default=None,
        help=(
            "waiver file (JSON, every entry needs a reason); defaults to "
            f"{DEFAULT_WAIVER_FILE} when it exists"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis: constraint-program verification and "
                    "a concurrency/spawn-safety linter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    constraints = sub.add_parser(
        "constraints",
        help="verify shipped constraint programs (safety, triggers, "
             "commutativity, chase termination)",
    )
    constraints.add_argument(
        "programs", nargs="*", metavar="PROGRAM",
        help="programs to verify (default: all shipped); one of: "
             "core, decompositions, systemml_rules, morpheus_rules, "
             "default, views",
    )
    _add_common(constraints)

    lint = sub.add_parser(
        "lint",
        help="run the concurrency/spawn-safety rules over Python sources",
    )
    lint.add_argument(
        "paths", nargs="*", metavar="PATH", default=None,
        help="files or directories to lint (default: src/repro)",
    )
    _add_common(lint)
    return parser


def main(argv: Optional[Sequence[str]] = None, stream=None) -> int:
    stream = stream if stream is not None else sys.stdout
    parser = build_parser()
    options = parser.parse_args(argv)
    try:
        waivers = _resolve_waivers(options.waive)
        if options.command == "constraints":
            findings = verify_shipped(options.programs or None)
            family = "RPA0"
        else:
            paths = options.paths or [os.path.join("src", "repro")]
            findings = lint_paths(paths)
            family = "RPA1"
        # One waiver file serves both analyzers; only this run's rule family
        # participates, so constraint waivers are not "unused" in lint runs.
        waivers = [w for w in waivers if w.code.startswith(family)]
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = apply_waivers(findings, waivers)
    return _emit(findings, report, options.strict, options.as_json, stream)


__all__ = [
    "DEFAULT_WAIVER_FILE",
    "build_parser",
    "main",
    "shipped_programs",
    "verify_shipped",
]
