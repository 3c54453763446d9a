"""Static analysis of constraint programs and the repro source tree.

Two analyzers share one finding/waiver model:

* :mod:`repro.analysis.verifier` — static verification of TGD/EGD programs:
  safety and range restriction, trigger-relation completeness, soundness
  against the order-normalised commutative relations, and chase termination
  via weak acyclicity of the position graph (rich acyclicity as a warning
  tier).
* :mod:`repro.analysis.lint` — an AST-based concurrency/spawn-safety linter
  (unguarded shared mutation in lock-owning classes, blocking calls in
  ``async def`` bodies, unpicklable spawn payloads).

Run both from the command line with ``python -m repro.analysis``
(subcommands ``constraints`` and ``lint``), or verify one compiled program
(a session's ``session.program``) with ``ConstraintProgram.verify()``.
Findings carry stable ``RPA…`` rule codes documented in
:data:`repro.analysis.findings.RULES`; accepted findings live in a waiver
file with mandatory reasons (``tools/analysis_waivers.json``).
"""

from repro.analysis.findings import (
    ERROR,
    RULES,
    WARNING,
    Finding,
    Waiver,
    WaiverReport,
    apply_waivers,
    failing,
    load_waivers,
    render_report,
    rule_severity,
)
from repro.analysis.lint import lint_paths, lint_source
from repro.analysis.verifier import (
    PositionGraph,
    verify_constraints,
    verify_program,
)

__all__ = [
    "ERROR",
    "RULES",
    "WARNING",
    "Finding",
    "PositionGraph",
    "Waiver",
    "WaiverReport",
    "apply_waivers",
    "failing",
    "lint_paths",
    "lint_source",
    "load_waivers",
    "render_report",
    "rule_severity",
    "verify_constraints",
    "verify_program",
]
