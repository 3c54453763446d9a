"""Findings, rule metadata and the waiver workflow of :mod:`repro.analysis`.

Both analyzers — the constraint-program verifier (:mod:`repro.analysis.verifier`)
and the concurrency/spawn-safety linter (:mod:`repro.analysis.lint`) — report
through one shape: a :class:`Finding` carrying a stable rule code (``RPA0xx``
for constraint rules, ``RPA1xx`` for lint rules), a severity, the *target*
the finding is anchored to (``program:constraint-name`` for constraint
findings, ``path:line`` for lint findings) and a human message.

Severities
----------
``error``
    The construct is wrong: it can deadlock, race, never match, or crash the
    chase at runtime.  Errors fail every run of the CLI.
``warning``
    The construct is statically suspicious but may be intentional (e.g. the
    equational LA theory is deliberately not weakly acyclic — the saturation
    budgets bound the chase instead).  Warnings fail the CLI only under
    ``--strict``; accepted ones are recorded in a waiver file with a
    mandatory reason.

``info``
    Not a defect: a fact about the program worth a reviewer's eye (which TGD
    conclusions the compiled chase has to search rather than probe).  Info
    findings are printed, never fail a run and cannot be waived.

Waivers
-------
A waiver file is a JSON document::

    {"waivers": [
        {"code": "RPA008", "target": "core:add-assoc-*",
         "reason": "associativity is intentionally non-terminating; the
                    saturation budgets bound the chase"}
    ]}

Every entry must carry a non-empty ``reason`` — a waiver without a
justification is itself a configuration error.  ``target`` is an
:mod:`fnmatch` glob matched against ``Finding.target``.  Unused waivers are
reported (they usually mean the underlying finding was fixed and the entry
should be deleted) but do not fail the run.

Lint findings can also be waived inline with a trailing
``# repro-lint: ignore[RPA101]`` comment on the flagged line, for the rare
false positive that is easier to justify next to the code it annotates.
"""

from __future__ import annotations

import fnmatch
import json
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.exceptions import ConfigError

ERROR = "error"
WARNING = "warning"
INFO = "info"

#: code -> (title, default severity, one-line description).  This table is
#: the source of the rule-code reference in ``docs/architecture.md``.
RULES: Dict[str, Tuple[str, str, str]] = {
    # ------------------------------------------------- constraint verifier
    "RPA001": (
        "duplicate-constraint-name",
        ERROR,
        "Two constraints in one program share a name; trigger bookkeeping "
        "and the per-constraint application counts would silently collide.",
    ),
    "RPA002": (
        "unsafe-egd",
        ERROR,
        "An EGD conclusion equates a variable that is not bound by the "
        "premise, or two distinct constants (the chase would raise on the "
        "first match).",
    ),
    "RPA003": (
        "malformed-atom",
        ERROR,
        "A premise or conclusion atom uses an unknown VREM relation or the "
        "wrong arity (possible when constraints are built from raw Atom "
        "objects, bypassing the textual parser).",
    ),
    "RPA004": (
        "disconnected-conclusion",
        WARNING,
        "A TGD conclusion shares no variable with its premise: every match "
        "generates fresh atoms unrelated to what triggered it.",
    ),
    "RPA005": (
        "trigger-incomplete",
        ERROR,
        "A compiled constraint's trigger-relation set misses a premise "
        "relation that can change (or the premise reads `size` without "
        "watching the shape log): semi-naive skipping would silently drop "
        "matches.",
    ),
    "RPA006": (
        "commutative-order-sensitive",
        WARNING,
        "A premise distinguishes the operand order of a commutative "
        "relation (add_m/multi_e/add_s/multi_s) and the program ships no "
        "commutativity-repair TGD for it: canonical order-normalised atoms "
        "are only stored in one orientation, so the swapped form never "
        "matches.",
    ),
    "RPA007": (
        "commutative-const-operand",
        ERROR,
        "A premise atom pins a constant into a commutative input position; "
        "ground commutative atoms carry class IDs there, so the premise can "
        "never match a canonical atom.",
    ),
    "RPA008": (
        "not-weakly-acyclic",
        WARNING,
        "The TGD set's position graph has a cycle through a special "
        "(existential) edge: chase termination is not statically guaranteed "
        "and rests entirely on the saturation budgets.",
    ),
    "RPA009": (
        "not-richly-acyclic",
        WARNING,
        "The TGD set is weakly acyclic, but a position that receives "
        "existential nulls can reach a positional cycle: the oblivious "
        "chase may still diverge (heuristic tier).",
    ),
    "RPA010": (
        "trigger-outside-recordable-set",
        ERROR,
        "A compiled constraint triggers on a relation outside the declared "
        "VREM schema — the footprint-recordable set.  Plan footprints "
        "(repro.catalog.footprint) reason over schema relations anchored in "
        "`name`/`scalar_name` facts; a trigger outside that set could fire "
        "on facts a footprint cannot record, so selective delta "
        "revalidation could keep a plan the constraint would have changed.",
    ),
    "RPA011": (
        "conclusion-test-split",
        INFO,
        "How many TGD conclusions the compiled chase tests by keyed "
        "congruence probes and which ones it has to search (an existential "
        "variable that is no operation's output).  A shipped rule newly "
        "listed as searched fell off the fast path.",
    ),
    # ------------------------------------------------------------- linter
    "RPA101": (
        "unguarded-shared-mutation",
        ERROR,
        "A class that owns a threading lock mutates a `self._*` collection "
        "outside any held-lock context although the same attribute is "
        "accessed under the lock elsewhere: a data race.",
    ),
    "RPA102": (
        "blocking-call-in-async",
        ERROR,
        "A blocking call (time.sleep, synchronous Pipe/Connection .recv, "
        "subprocess.run/…) inside an `async def` body stalls the whole "
        "event loop.",
    ),
    "RPA103": (
        "unpicklable-spawn-payload",
        ERROR,
        "A lambda, closure or locally-defined class crosses a process "
        "boundary (multiprocessing Process target/args, a worker_factory "
        "argument): the spawn start method must pickle it and will fail at "
        "runtime.",
    ),
}


def rule_severity(code: str) -> str:
    """Default severity of a rule code (unknown codes are errors)."""
    meta = RULES.get(code)
    return meta[1] if meta else ERROR


@dataclass(frozen=True)
class Finding:
    """One analyzer finding, anchored to a stable rule code and target."""

    code: str
    target: str
    message: str
    severity: str = ""
    #: ``"constraints"`` or ``"lint"`` — which analyzer produced it.
    source: str = "constraints"
    file: str = ""
    line: int = 0

    def __post_init__(self) -> None:
        if not self.severity:
            object.__setattr__(self, "severity", rule_severity(self.code))

    @property
    def title(self) -> str:
        meta = RULES.get(self.code)
        return meta[0] if meta else self.code

    def as_dict(self) -> dict:
        return {
            "code": self.code,
            "rule": self.title,
            "severity": self.severity,
            "target": self.target,
            "message": self.message,
            "source": self.source,
            "file": self.file,
            "line": self.line,
        }

    def render(self) -> str:
        return f"{self.code} [{self.severity}] {self.target}: {self.message}"


@dataclass(frozen=True)
class Waiver:
    """One accepted finding: code + target glob + mandatory reason."""

    code: str
    target: str
    reason: str

    def matches(self, finding: Finding) -> bool:
        return finding.code == self.code and fnmatch.fnmatchcase(
            finding.target, self.target
        )


@dataclass
class WaiverReport:
    """Result of applying a waiver file to a finding list."""

    active: List[Finding] = field(default_factory=list)
    waived: List[Tuple[Finding, Waiver]] = field(default_factory=list)
    unused: List[Waiver] = field(default_factory=list)
    #: Info-severity findings: reported, never failing, not waivable.
    info: List[Finding] = field(default_factory=list)


def load_waivers(path: str) -> List[Waiver]:
    """Parse a waiver file, enforcing the mandatory-reason rule."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read waiver file {path!r}: {exc}") from exc
    entries = document.get("waivers") if isinstance(document, dict) else None
    if not isinstance(entries, list):
        raise ConfigError(
            f"waiver file {path!r} must be an object with a 'waivers' list"
        )
    waivers: List[Waiver] = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"waiver #{index} in {path!r} must be an object")
        code = str(entry.get("code", "")).strip()
        target = str(entry.get("target", "")).strip()
        reason = " ".join(str(entry.get("reason", "")).split())
        if not code or not target:
            raise ConfigError(
                f"waiver #{index} in {path!r} needs both 'code' and 'target'"
            )
        if not reason:
            raise ConfigError(
                f"waiver #{index} ({code} {target!r}) in {path!r} has no "
                f"'reason'; every waiver must justify itself"
            )
        waivers.append(Waiver(code=code, target=target, reason=reason))
    return waivers


def apply_waivers(
    findings: Sequence[Finding], waivers: Sequence[Waiver]
) -> WaiverReport:
    """Split findings into active / waived, tracking unused waiver entries."""
    report = WaiverReport()
    used: set = set()
    for finding in findings:
        if finding.severity == INFO:
            report.info.append(finding)
            continue
        matched = None
        for waiver in waivers:
            if waiver.matches(finding):
                matched = waiver
                break
        if matched is None:
            report.active.append(finding)
        else:
            used.add((matched.code, matched.target))
            report.waived.append((finding, matched))
    report.unused = [w for w in waivers if (w.code, w.target) not in used]
    return report


def render_report(
    findings: Sequence[Finding],
    report: WaiverReport,
    strict: bool = False,
) -> str:
    """Human-readable summary of one analyzer run."""
    lines: List[str] = []
    for finding in report.info + report.active:
        lines.append(finding.render())
    for finding, waiver in report.waived:
        lines.append(f"waived {finding.render()}  (reason: {waiver.reason})")
    for waiver in report.unused:
        lines.append(
            f"unused waiver {waiver.code} {waiver.target!r} — delete it or "
            f"fix the pattern"
        )
    errors = sum(1 for f in report.active if f.severity == ERROR)
    warnings = len(report.active) - errors
    lines.append(
        f"{len(findings) - len(report.info)} finding(s): {errors} error(s), {warnings} "
        f"warning(s) active, {len(report.waived)} waived"
    )
    return "\n".join(lines)


def failing(report: WaiverReport, strict: bool) -> List[Finding]:
    """The findings that should fail a run: errors always, warnings under strict."""
    if strict:
        return list(report.active)
    return [f for f in report.active if f.severity == ERROR]


__all__ = [
    "ERROR",
    "WARNING",
    "INFO",
    "RULES",
    "Finding",
    "Waiver",
    "WaiverReport",
    "apply_waivers",
    "failing",
    "load_waivers",
    "render_report",
    "rule_severity",
]
