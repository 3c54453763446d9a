"""Delta-sequence fuzzing: random catalog mutation chains with an oracle.

Selective revalidation keeps a cached plan across a catalog delta whenever
the delta misses the plan's footprint — a claim with a sharp, testable
statement: **a plan served from a delta-updated workspace must be
byte-identical to the plan a freshly built engine produces at the same
catalog state**, whether it was kept warm, re-keyed, or replanned.

:class:`DeltaSequenceGenerator` draws seeded random mutation chains
(re-stats, metadata-only adds and their drops, structural-type updates,
view adds/drops) that are valid by construction — it applies each candidate
op to a scratch copy of the evolving state before emitting it — together
with a set of probe expressions over the base catalog.
:func:`check_delta_case` is the oracle: it warms one long-lived engine,
applies the chain delta by delta, and after every step compares each
probe's plan (structure, fingerprint, cost, used views) and every view's
storage metadata (rows, cols, nnz) against a cold engine built from
scratch and fast-forwarded through the same prefix.

Cases serialize to the same JSON wire formats the gateway uses
(:meth:`repro.catalog.delta.CatalogDelta.to_json`,
:func:`repro.api.schema.expr_to_json`), so a failing chain is committed
under ``tests/corpus/deltas/`` and replayed in tier-1 verbatim — stable
against later generator drift.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api.engine import Engine
from repro.api.schema import expr_from_json, expr_to_json
from repro.api.workspace import WorkspaceRegistry
from repro.catalog.delta import (
    AddRelation,
    AddView,
    CatalogDelta,
    DeltaOp,
    DropRelation,
    DropView,
    ReStat,
    UpdateConstraint,
)
from repro.data.matrix import MatrixType
from repro.exceptions import CatalogError, ConfigError
from repro.lang import matrix_expr as mx

from repro.fuzz.generator import CatalogSpec, ExpressionGenerator, generate_catalog, spawn_rng

DELTA_CORPUS_FORMAT = 1

#: The workspace name every delta-fuzz engine registers its catalog under.
WORKSPACE = "fuzz"


@dataclass
class DeltaCase:
    """One mutation chain + probe set, reproducible from the stored docs."""

    case_id: str
    catalog_spec: CatalogSpec
    #: Wire-format delta documents, applied in order.
    deltas: Tuple[dict, ...] = ()
    #: Wire-format probe expressions, planned after every delta.
    probes: Tuple[dict, ...] = ()
    seed: int = 0
    notes: str = ""

    def to_json(self) -> dict:
        return {
            "format": DELTA_CORPUS_FORMAT,
            "case_id": self.case_id,
            "catalog_spec": self.catalog_spec.to_json(),
            "deltas": list(self.deltas),
            "probes": list(self.probes),
            "seed": int(self.seed),
            "notes": self.notes,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "DeltaCase":
        fmt = int(payload.get("format", 0))
        if fmt != DELTA_CORPUS_FORMAT:
            raise ValueError(
                f"unsupported delta-corpus format {fmt} (expected {DELTA_CORPUS_FORMAT})"
            )
        return cls(
            case_id=str(payload["case_id"]),
            catalog_spec=CatalogSpec.from_json(payload["catalog_spec"]),
            deltas=tuple(payload.get("deltas", [])),
            probes=tuple(payload.get("probes", [])),
            seed=int(payload.get("seed", 0)),
            notes=str(payload.get("notes", "")),
        )


def save_delta_case(directory: Path, case: DeltaCase) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{case.case_id}.json"
    path.write_text(json.dumps(case.to_json(), indent=2, sort_keys=True) + "\n")
    return path


def load_delta_cases(directory: Path) -> List[DeltaCase]:
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return [
        DeltaCase.from_json(json.loads(path.read_text()))
        for path in sorted(directory.glob("*.json"))
    ]


class DeltaSequenceGenerator:
    """Seeded random generation of valid catalog mutation chains.

    Validity by construction: every candidate op is applied to a scratch
    catalog (a regenerated copy of the spec's catalog) and the evolving
    view tuple before being emitted, so replaying the chain on a fresh
    engine can never fail validation mid-sequence.  Base matrices are never
    dropped (probes must stay plannable at every state); drops target only
    relations and views a previous step added.
    """

    def __init__(self, spec: CatalogSpec, seed: int = 0):
        self.spec = spec
        self.seed = int(seed)
        self.rng = spawn_rng(spec.seed, 7001, self.seed)
        # Scratch state the generator mutates to stay valid.
        self._catalog, self._inventory = generate_catalog(spec)
        self._views: Tuple = ()
        self._added: List[str] = []
        self._view_names: List[str] = []
        self._counter = 0
        self._exprs = ExpressionGenerator(self._inventory, self.rng, max_depth=4)

    # ------------------------------------------------------------------ ops
    def _choice(self, items):
        return items[int(self.rng.integers(0, len(items)))]

    def _base_names(self) -> List[str]:
        names = []
        for bucket in self._inventory.by_shape.values():
            names.extend(bucket)
        return sorted(set(names))

    def _draw_op(self) -> DeltaOp:
        roll = float(self.rng.random())
        if roll < 0.40:
            name = self._choice(self._base_names() + self._added)
            meta = self._catalog.meta(name)
            bound = max(1, meta.rows * meta.cols)
            return ReStat(name=name, nnz=int(self.rng.integers(0, bound + 1)))
        if roll < 0.55:
            self._counter += 1
            axes = self._inventory.axes
            rows = int(self._choice(axes)) * 2
            cols = int(self._choice(axes)) * 2
            return AddRelation(
                name=f"F{self._counter}",
                rows=rows,
                cols=cols,
                nnz=int(self.rng.integers(0, rows * cols + 1)),
            )
        if roll < 0.65 and self._added:
            return DropRelation(name=self._choice(self._added))
        if roll < 0.78:
            name = self._choice(self._base_names())
            return UpdateConstraint(
                name=name, matrix_type=self._choice(sorted(MatrixType.ALL))
            )
        if roll < 0.90 or not self._view_names:
            self._counter += 1
            view = self._exprs.generate_views(1, name_prefix=f"VD{self._counter}_")[0]
            return AddView(view)
        return DropView(name=self._choice(self._view_names))

    def _emit_op(self, forbidden: frozenset = frozenset()) -> DeltaOp:
        """Draw ops until one validates against the scratch state.

        ``forbidden`` holds the names earlier ops of the *same* delta
        document touch: a delta validates every op against the pre-state
        before applying any, so ops within one document must not depend on
        (or conflict with) each other.
        """
        for _ in range(16):
            op = self._draw_op()
            if op.touched() & forbidden:
                continue
            try:
                op.check(self._catalog, self._views)
            except (CatalogError, ConfigError):
                continue
            self._views = op.apply(self._catalog, self._views)
            if isinstance(op, AddRelation):
                self._added.append(op.name)
            elif isinstance(op, DropRelation):
                self._added.remove(op.name)
            elif isinstance(op, AddView):
                self._view_names.append(op.view.name)
            elif isinstance(op, DropView):
                self._view_names.remove(op.name)
            return op
        # Fallback: a ReStat on an untouched base name always validates.
        for name in self._base_names():
            if name not in forbidden:
                return ReStat(name=name, nnz=1)
        raise RuntimeError("delta generator exhausted every base relation")

    # ------------------------------------------------------------------ cases
    def generate_case(
        self, case_id: str, steps: int = 4, probes: int = 5, ops_per_delta: int = 2
    ) -> DeltaCase:
        """One chain of ``steps`` deltas (each 1..``ops_per_delta`` ops)
        plus ``probes`` random probe expressions over the base catalog."""
        probe_docs = tuple(
            expr_to_json(self._exprs.generate()) for _ in range(probes)
        )
        delta_docs = []
        for _ in range(steps):
            count = int(self.rng.integers(1, ops_per_delta + 1))
            ops = []
            touched: frozenset = frozenset()
            for _ in range(count):
                op = self._emit_op(forbidden=touched)
                ops.append(op)
                touched |= op.touched()
            delta_docs.append(CatalogDelta(tuple(ops)).to_json())
        return DeltaCase(
            case_id=case_id,
            catalog_spec=self.spec,
            deltas=tuple(delta_docs),
            probes=probe_docs,
            seed=self.seed,
        )


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------

def _fresh_engine(spec: CatalogSpec) -> Engine:
    catalog, _ = generate_catalog(spec)
    registry = WorkspaceRegistry()
    registry.register(WORKSPACE, catalog=catalog)
    return Engine(workspaces=registry)


def _plan_signature(result) -> Tuple[str, str, float, Tuple[str, ...]]:
    """Everything a served plan's bytes are derived from."""
    return (
        result.best.to_string(),
        result.best.fingerprint(),
        float(result.best_cost),
        tuple(sorted(result.used_views)),
    )


def _view_metadata(handle) -> Dict[str, Optional[Tuple[int, ...]]]:
    """``(rows, cols, nnz)`` of each view's storage name, ``None`` when the
    catalog does not know it."""
    catalog = handle.catalog
    return {
        view.name: catalog.meta(view.name).shape + (catalog.meta(view.name).nnz,)
        if catalog.has_matrix(view.name)
        else None
        for view in handle.views
    }


def check_delta_case(case: DeltaCase) -> List[str]:
    """Run the byte-identity oracle over one chain; returns mismatches.

    The *live* engine applies deltas incrementally (plans surviving each
    delta come from the warm cache); the *reference* engine is rebuilt from
    the spec before every comparison and fast-forwarded through the same
    delta prefix, so every reference plan is a cold re-plan against the
    mutated catalog.  Any divergence — a view's storage metadata, or a
    plan's structure, fingerprint, cost or used views — is one returned
    mismatch string.
    """
    probes = [expr_from_json(doc) for doc in case.probes]
    deltas = [CatalogDelta.from_json(doc) for doc in case.deltas]
    failures: List[str] = []

    live = _fresh_engine(case.catalog_spec)
    for probe in probes:  # warm the live cache pre-mutation
        live.workspace(WORKSPACE).rewrite(probe)

    for step, delta in enumerate(deltas):
        live.apply_delta(WORKSPACE, delta)
        live_handle = live.workspace(WORKSPACE)
        live_plans = [live_handle.rewrite(probe) for probe in probes]

        reference = _fresh_engine(case.catalog_spec)
        for prior in deltas[: step + 1]:
            reference.apply_delta(WORKSPACE, prior)
        reference_handle = reference.workspace(WORKSPACE)

        live_metadata = _view_metadata(live_handle)
        cold_metadata = _view_metadata(reference_handle)
        if live_metadata != cold_metadata:
            failures.append(
                f"step {step} view metadata: live {live_metadata!r} != "
                f"cold {cold_metadata!r} after delta {delta.to_json()}"
            )
        for index, probe in enumerate(probes):
            live_sig = _plan_signature(live_plans[index])
            cold_sig = _plan_signature(reference_handle.rewrite(probe))
            if live_sig != cold_sig:
                served = "warm" if live_plans[index].cache_hit else "replanned"
                failures.append(
                    f"step {step} probe {index} ({served}): "
                    f"live {live_sig!r} != cold {cold_sig!r} "
                    f"after delta {delta.to_json()}"
                )
    return failures


def run_delta_fuzz(
    spec: CatalogSpec, cases: int = 5, steps: int = 4, probes: int = 5
) -> Tuple[List[DeltaCase], List[str]]:
    """Sweep ``cases`` seeded chains; returns (failing cases, mismatches)."""
    failing: List[DeltaCase] = []
    messages: List[str] = []
    for index in range(cases):
        generator = DeltaSequenceGenerator(spec, seed=index)
        case = generator.generate_case(
            f"delta-seed{spec.seed}-case{index}", steps=steps, probes=probes
        )
        mismatches = check_delta_case(case)
        if mismatches:
            failing.append(case)
            messages.extend(mismatches)
    return failing, messages


__all__ = [
    "DELTA_CORPUS_FORMAT",
    "WORKSPACE",
    "DeltaCase",
    "DeltaSequenceGenerator",
    "check_delta_case",
    "load_delta_cases",
    "run_delta_fuzz",
    "save_delta_case",
]
