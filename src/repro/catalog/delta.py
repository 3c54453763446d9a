"""The typed catalog-delta algebra and its JSON wire schema.

A :class:`CatalogDelta` is an ordered sequence of primitive mutation ops:

=====================  =====================================================
op                     meaning
=====================  =====================================================
:class:`AddRelation`   register a new matrix (metadata) or scalar
:class:`DropRelation`  drop a matrix or scalar
:class:`ReStat`        refresh the statistics (rows/cols/nnz) of a matrix
:class:`UpdateConstraint`  change a matrix's structural type tag
:class:`AddView`       add a materialized LA view to the workspace
:class:`DropView`      drop a view by storage name
=====================  =====================================================

Deltas **compose** (``a.compose(b)`` is "a then b"), carry a conservative
**touched-name set** the revalidation machinery intersects plan footprints
against, and serialize to/from a typed JSON document — the payload the
``POST /v1/workspaces/<name>/delta`` gateway endpoint accepts, so a
metadata-only mutation reaches the server without carrying values.

Matrix *values* deliberately never ride on a delta: the optimizer plans
from metadata (the paper's setting), and a delta must be cheap to apply
and to send.  Backends needing fresh values keep registering them
through :meth:`repro.data.catalog.Catalog.register_matrix` as before.

Touched-name soundness
----------------------
``touched_names()`` over-approximates the set of plans a delta can affect:

* relation ops touch exactly their relation name;
* ``AddView`` touches the view's storage name **and** every base name its
  definition references — the generated V_IO premise pins those names as
  constants, so the new constraint can only fire against a plan whose
  footprint already contains one of them.  A definition referencing no
  names at all (a constant expression) cannot be bounded this way, so the
  delta degrades to non-selective (``selective == False``) and the pool
  falls back to full invalidation;
* ``DropView`` touches the storage name: a plan whose chase never
  materialized the view's ``name`` atom never fired either of its
  constraints, so removing them cannot change that plan.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import FrozenSet, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.constraints.views import LAView
from repro.data.matrix import MatrixMeta, MatrixType
from repro.exceptions import CatalogError, ConfigError, ViewError
from repro.lang.visitor import collect_refs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.catalog import Catalog

_KINDS = ("matrix", "scalar")


def _require_name(op: str, name: object) -> str:
    if not isinstance(name, str) or not name:
        raise ConfigError(f"{op} needs a non-empty relation name, got {name!r}")
    return name


def _validate_counts(op: "DeltaOp", *keys: str) -> None:
    """Check that each of ``keys`` is ``None`` or a non-negative finite
    integer, and store it as an ``int``."""
    for key in keys:
        value = getattr(op, key)
        if value is None:
            continue
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
            raise ConfigError(
                f"{op.op} {op.name!r}: {key} must be a non-negative integer, "
                f"got {getattr(op, key)!r}"
            )
        object.__setattr__(op, key, int(value))


class DeltaOp:
    """Base class of the primitive catalog mutations."""

    op = "delta-op"

    def touched(self) -> FrozenSet[str]:  # pragma: no cover - interface
        raise NotImplementedError

    @property
    def selective(self) -> bool:
        """Whether :meth:`touched` bounds the plans this op can affect."""
        return True

    @property
    def is_view_op(self) -> bool:
        return False

    def check(self, catalog: Optional["Catalog"], views: Tuple[LAView, ...]) -> None:
        """Validate against the current state; raise before any mutation."""

    def apply(
        self, catalog: Optional["Catalog"], views: Tuple[LAView, ...]
    ) -> Tuple[LAView, ...]:  # pragma: no cover - interface
        raise NotImplementedError

    def to_json(self) -> dict:  # pragma: no cover - interface
        raise NotImplementedError


def _require_catalog(op: DeltaOp, catalog: Optional["Catalog"]) -> "Catalog":
    if catalog is None:
        raise ConfigError(
            f"delta op {op.op!r} mutates the catalog, but this workspace was "
            f"registered without one"
        )
    return catalog


@dataclass(frozen=True)
class AddRelation(DeltaOp):
    """Register a new matrix (metadata only) or scalar under ``name``."""

    name: str
    rows: Optional[int] = None
    cols: Optional[int] = None
    nnz: Optional[int] = None
    matrix_type: str = MatrixType.GENERAL
    kind: str = "matrix"
    value: Optional[float] = None

    op = "add_relation"

    def __post_init__(self):
        _require_name(self.op, self.name)
        if self.kind not in _KINDS:
            raise ConfigError(f"add_relation kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind == "matrix":
            if self.rows is None or self.cols is None:
                raise ConfigError(
                    f"add_relation {self.name!r} needs rows and cols (metadata "
                    f"is what the optimizer plans from)"
                )
            _validate_counts(self, "rows", "cols", "nnz")
            # Validates dimensions / nnz bounds / the type tag eagerly.
            try:
                self._meta()
            except CatalogError as exc:
                raise ConfigError(f"add_relation {self.name!r}: {exc}") from exc
        elif self.value is None:
            raise ConfigError(f"add_relation scalar {self.name!r} needs a value")
        elif (
            isinstance(self.value, bool)
            or not isinstance(self.value, numbers.Real)
            or not math.isfinite(self.value)
        ):
            raise ConfigError(
                f"add_relation scalar {self.name!r}: value must be a finite "
                f"number, got {self.value!r}"
            )

    def _meta(self) -> MatrixMeta:
        return MatrixMeta(
            name=self.name,
            rows=self.rows,
            cols=self.cols,
            nnz=self.nnz,
            matrix_type=self.matrix_type,
        )

    def touched(self) -> FrozenSet[str]:
        return frozenset((self.name,))

    def check(self, catalog, views) -> None:
        catalog = _require_catalog(self, catalog)
        if self.name in catalog:
            raise CatalogError(f"add_relation: {self.name!r} is already registered")

    def apply(self, catalog, views):
        catalog = _require_catalog(self, catalog)
        if self.kind == "scalar":
            catalog.register_scalar(self.name, float(self.value))
        else:
            catalog.register_metadata(self._meta())
        return views

    def to_json(self) -> dict:
        doc = {"op": self.op, "name": self.name, "kind": self.kind}
        if self.kind == "scalar":
            doc["value"] = float(self.value)
        else:
            doc.update(rows=int(self.rows), cols=int(self.cols))
            if self.nnz is not None:
                doc["nnz"] = int(self.nnz)
            if self.matrix_type != MatrixType.GENERAL:
                doc["matrix_type"] = self.matrix_type
        return doc


@dataclass(frozen=True)
class DropRelation(DeltaOp):
    """Drop a matrix or scalar by name."""

    name: str
    kind: str = "matrix"

    op = "drop_relation"

    def __post_init__(self):
        _require_name(self.op, self.name)
        if self.kind not in _KINDS:
            raise ConfigError(f"drop_relation kind must be one of {_KINDS}, got {self.kind!r}")

    def touched(self) -> FrozenSet[str]:
        return frozenset((self.name,))

    def check(self, catalog, views) -> None:
        catalog = _require_catalog(self, catalog)
        if self.kind == "matrix" and not catalog.has_matrix(self.name):
            raise CatalogError(f"drop_relation: matrix {self.name!r} is not registered")
        if self.kind == "scalar" and not catalog.has_scalar(self.name):
            raise CatalogError(f"drop_relation: scalar {self.name!r} is not registered")

    def apply(self, catalog, views):
        catalog = _require_catalog(self, catalog)
        if self.kind == "scalar":
            catalog.drop_scalar(self.name)
        else:
            catalog.drop_matrix(self.name)
        return views

    def to_json(self) -> dict:
        return {"op": self.op, "name": self.name, "kind": self.kind}


@dataclass(frozen=True)
class ReStat(DeltaOp):
    """Refresh the statistics of a registered matrix.

    ``rows``/``cols`` may only change on metadata-only entries (a
    value-backed matrix's dimensions are its values'); ``nnz`` may change
    on either.
    """

    name: str
    rows: Optional[int] = None
    cols: Optional[int] = None
    nnz: Optional[int] = None

    op = "restat"

    def __post_init__(self):
        _require_name(self.op, self.name)
        if self.rows is None and self.cols is None and self.nnz is None:
            raise ConfigError(f"restat {self.name!r} changes nothing")
        _validate_counts(self, "rows", "cols", "nnz")

    def _stats(self) -> dict:
        """The statistics this op sets: its fields that are not ``None``."""
        stats = {"rows": self.rows, "cols": self.cols, "nnz": self.nnz}
        return {key: value for key, value in stats.items() if value is not None}

    def touched(self) -> FrozenSet[str]:
        return frozenset((self.name,))

    def check(self, catalog, views) -> None:
        catalog = _require_catalog(self, catalog)
        if not catalog.has_matrix(self.name):
            raise CatalogError(f"restat: matrix {self.name!r} is not registered")
        if catalog.has_matrix_values(self.name) and (
            self.rows is not None or self.cols is not None
        ):
            raise CatalogError(
                f"restat: {self.name!r} is value-backed; its dimensions are "
                f"fixed by the stored values (re-register the matrix instead)"
            )
        # The refreshed statistics must make valid metadata (positive
        # dimensions, nnz within them) before any op of the delta applies.
        replace(catalog.meta(self.name), **self._stats())

    def apply(self, catalog, views):
        catalog = _require_catalog(self, catalog)
        catalog.update_metadata(self.name, **self._stats())
        return views

    def to_json(self) -> dict:
        return {"op": self.op, "name": self.name, **self._stats()}


@dataclass(frozen=True)
class UpdateConstraint(DeltaOp):
    """Change a matrix's structural type tag (``type(M, tag)`` facts)."""

    name: str
    matrix_type: str = MatrixType.GENERAL

    op = "update_constraint"

    def __post_init__(self):
        _require_name(self.op, self.name)
        if self.matrix_type not in MatrixType.ALL:
            raise ConfigError(
                f"update_constraint {self.name!r}: unknown type tag "
                f"{self.matrix_type!r} (valid: {list(MatrixType.ALL)})"
            )

    def touched(self) -> FrozenSet[str]:
        return frozenset((self.name,))

    def check(self, catalog, views) -> None:
        catalog = _require_catalog(self, catalog)
        if not catalog.has_matrix(self.name):
            raise CatalogError(
                f"update_constraint: matrix {self.name!r} is not registered"
            )

    def apply(self, catalog, views):
        catalog = _require_catalog(self, catalog)
        catalog.update_metadata(self.name, matrix_type=self.matrix_type)
        return views

    def to_json(self) -> dict:
        return {"op": self.op, "name": self.name, "matrix_type": self.matrix_type}


@dataclass(frozen=True)
class AddView(DeltaOp):
    """Add a materialized LA view to the workspace's view set."""

    view: LAView

    op = "add_view"

    def __post_init__(self):
        if not isinstance(self.view, LAView):
            raise ConfigError(f"add_view needs an LAView, got {self.view!r}")

    @property
    def is_view_op(self) -> bool:
        return True

    @property
    def selective(self) -> bool:
        # A definition with no base references (a constant expression)
        # could match any instance containing its operator pattern; its
        # effect cannot be bounded by names, so the delta is non-selective.
        return bool(collect_refs(self.view.definition))

    def touched(self) -> FrozenSet[str]:
        return frozenset(collect_refs(self.view.definition)) | {self.view.name}

    def check(self, catalog, views) -> None:
        if any(view.name == self.view.name for view in views):
            raise CatalogError(f"add_view: view {self.view.name!r} already exists")

    def apply(self, catalog, views):
        return views + (self.view,)

    def to_json(self) -> dict:
        from repro.api.schema import expr_to_json

        return {
            "op": self.op,
            "name": self.view.name,
            "definition": expr_to_json(self.view.definition),
        }


@dataclass(frozen=True)
class DropView(DeltaOp):
    """Drop a view by storage name (its derived metadata stays registered)."""

    name: str

    op = "drop_view"

    def __post_init__(self):
        _require_name(self.op, self.name)

    @property
    def is_view_op(self) -> bool:
        return True

    def touched(self) -> FrozenSet[str]:
        return frozenset((self.name,))

    def check(self, catalog, views) -> None:
        if not any(view.name == self.name for view in views):
            raise CatalogError(f"drop_view: view {self.name!r} is not registered")

    def apply(self, catalog, views):
        return tuple(view for view in views if view.name != self.name)

    def to_json(self) -> dict:
        return {"op": self.op, "name": self.name}


_OP_TYPES = {
    cls.op: cls
    for cls in (AddRelation, DropRelation, ReStat, UpdateConstraint, AddView, DropView)
}


@dataclass(frozen=True)
class CatalogDelta:
    """An ordered, composable sequence of catalog mutation ops."""

    ops: Tuple[DeltaOp, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            if not isinstance(op, DeltaOp):
                raise ConfigError(f"CatalogDelta ops must be DeltaOp instances, got {op!r}")

    # ------------------------------------------------------------------ algebra
    def compose(self, other: "CatalogDelta") -> "CatalogDelta":
        """``self`` then ``other`` as one delta (op order is preserved)."""
        return CatalogDelta(self.ops + tuple(other.ops))

    def touched_names(self) -> FrozenSet[str]:
        touched: set = set()
        for op in self.ops:
            touched |= op.touched()
        return frozenset(touched)

    @property
    def selective(self) -> bool:
        """Whether footprint intersection soundly bounds the affected plans."""
        return all(op.selective for op in self.ops)

    @property
    def touches_views(self) -> bool:
        return any(op.is_view_op for op in self.ops)

    @property
    def needs_catalog(self) -> bool:
        return any(not op.is_view_op for op in self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    # ------------------------------------------------------------------ application
    def apply(
        self, catalog: Optional["Catalog"], views: Sequence[LAView] = ()
    ) -> Tuple[LAView, ...]:
        """Apply every op in order; returns the updated view tuple.

        All ops are validated against the *current* state before the first
        mutation, so an invalid delta raises without partially applying.
        (Validation is per-op against the pre-state — a delta that drops
        and re-adds the same name in one document is rejected; split it.)
        """
        views = tuple(views)
        for op in self.ops:
            op.check(catalog, views)
        for op in self.ops:
            views = op.apply(catalog, views)
        return views

    # ------------------------------------------------------------------ wire schema
    def to_json(self) -> dict:
        return {"ops": [op.to_json() for op in self.ops]}

    @classmethod
    def from_json(cls, payload: object) -> "CatalogDelta":
        if not isinstance(payload, dict) or not isinstance(payload.get("ops"), list):
            raise ConfigError(
                'a catalog delta document is {"ops": [...]} with one typed '
                "object per mutation"
            )
        ops: List[DeltaOp] = []
        for index, doc in enumerate(payload["ops"]):
            if not isinstance(doc, dict):
                raise ConfigError(f"delta op #{index} must be an object, got {doc!r}")
            kind = doc.get("op")
            op_type = _OP_TYPES.get(kind)
            if op_type is None:
                raise ConfigError(
                    f"delta op #{index}: unknown op {kind!r} "
                    f"(valid: {sorted(_OP_TYPES)})"
                )
            fields = {key: value for key, value in doc.items() if key != "op"}
            try:
                if op_type is AddView:
                    from repro.api.schema import expr_from_json

                    ops.append(
                        AddView(
                            LAView(
                                name=str(fields.get("name", "")),
                                definition=expr_from_json(fields.get("definition")),
                            )
                        )
                    )
                else:
                    ops.append(op_type(**fields))
            except ConfigError:
                raise
            except (TypeError, ValueError, OverflowError, ViewError) as exc:
                raise ConfigError(f"delta op #{index} is malformed: {exc}") from exc
        if not ops:
            raise ConfigError("a catalog delta needs at least one op")
        return cls(tuple(ops))


@dataclass(frozen=True)
class RevalidationReport:
    """What a delta did to one workspace's warm plan cache."""

    workspace: str
    touched: Tuple[str, ...] = ()
    selective: bool = True
    plans_kept_warm: int = 0
    plans_revalidated: int = 0

    def as_dict(self) -> dict:
        return {
            "workspace": self.workspace,
            "touched": list(self.touched),
            "selective": self.selective,
            "plans_kept_warm": self.plans_kept_warm,
            "plans_revalidated": self.plans_revalidated,
        }


__all__ = [
    "AddRelation",
    "AddView",
    "CatalogDelta",
    "DeltaOp",
    "DropRelation",
    "DropView",
    "ReStat",
    "RevalidationReport",
    "UpdateConstraint",
]
