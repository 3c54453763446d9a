"""Encoding materialized LA views as integrity constraints (§6.2.4, Figure 3).

A materialized LA view is a named, stored expression (e.g.
``V = (N)^T + (M^T)^{-1}`` stored as ``"V.csv"``).  Its encoding is the pair
of constraints

* **V_IO** — whenever the view's body pattern occurs in the (chased) encoding
  of a query, the corresponding class *is* the view's stored matrix:
  ``body-atoms -> name(Root, "V.csv")``;
* **V_OI** — conversely, a scan of the stored view satisfies the body:
  ``name(Root, "V.csv") -> body-atoms`` (with the internal intermediate
  classes existentially quantified).

The body atoms are obtained by encoding the view definition with the regular
:class:`~repro.vrem.encoder.LAEncoder` into a scratch instance and turning
every class ID into a variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.constraints.core import Constraint, TGD
from repro.data.catalog import Catalog
from repro.exceptions import ViewError
from repro.lang import matrix_expr as mx
from repro.vrem.atoms import Atom, Const, Var
from repro.vrem.encoder import LAEncoder
from repro.vrem.instance import VremInstance


@dataclass(frozen=True)
class LAView:
    """A materialized linear-algebra view.

    Attributes
    ----------
    name:
        The storage name of the materialized result (e.g. ``"V1.csv"``); the
        rewritten expression references it through a plain
        :class:`~repro.lang.matrix_expr.MatrixRef`.
    definition:
        The LA expression the view materializes.
    """

    name: str
    definition: mx.Expr

    def __post_init__(self):
        if not self.name:
            raise ViewError("a view needs a non-empty storage name")
        if not isinstance(self.definition, mx.Expr):
            raise ViewError("a view definition must be an LA expression")


def _encode_view_body(
    view: LAView, catalog: Optional[Catalog]
) -> Tuple[List[Atom], Var]:
    """Encode the view definition and convert class IDs to variables."""
    scratch = VremInstance()
    encoder = LAEncoder(scratch, catalog)
    root = encoder.encode(view.definition)
    variables: Dict[int, Var] = {}

    def as_term(arg):
        if isinstance(arg, int):
            cid = scratch.find(arg)
            if cid not in variables:
                variables[cid] = Var(f"v{view.name}_{cid}")
            return variables[cid]
        return arg

    atoms: List[Atom] = []
    for atom in scratch.atoms():
        if atom.relation in ("type",):
            # Type facts about base matrices are re-derivable from the query
            # side; keeping them in the premise would only make matching
            # stricter than necessary.
            continue
        atoms.append(Atom(atom.relation, tuple(as_term(arg) for arg in atom.args)))
    if not atoms:
        raise ViewError(f"view {view.name!r} has an empty relational encoding")
    root_var = variables.get(scratch.find(root))
    if root_var is None:
        # The view is a bare reference to a stored matrix; create the variable
        # explicitly so the conclusion can mention it.
        root_var = Var(f"v{view.name}_root")
        atoms = [Atom(atom.relation, atom.args) for atom in atoms]
    return atoms, root_var


def view_constraints(view: LAView, catalog: Optional[Catalog] = None) -> List[Constraint]:
    """The V_IO and V_OI constraints of one view."""
    body, root_var = _encode_view_body(view, catalog)
    head = Atom("name", (root_var, Const(view.name)))
    return [
        TGD(name=f"view-io:{view.name}", premise=tuple(body), conclusion=(head,)),
        TGD(name=f"view-oi:{view.name}", premise=(head,), conclusion=tuple(body)),
    ]


def constraints_for_views(
    views: Sequence[LAView], catalog: Optional[Catalog] = None
) -> List[Constraint]:
    """The union of the view constraints of a view set (the paper's C_V)."""
    constraints: List[Constraint] = []
    for view in views:
        constraints.extend(view_constraints(view, catalog))
    return constraints


def verification_view_constraints() -> List[Constraint]:
    """Hook for ``python -m repro.analysis constraints``: a representative
    view-derived constraint set to verify alongside the shipped programs.

    Materialized-view constraints are generated, not shipped, so the static
    pass cannot enumerate them from source; this hook builds the benchkit
    V_exp views (the paper's Table 15 view set) over the dense role bindings
    and returns their V_IO/V_OI encodings.  Imports lazily to keep
    ``repro.constraints`` free of a benchkit dependency.
    """
    from repro.benchkit.datasets import ROLE_BINDINGS_DENSE, benchmark_catalog
    from repro.benchkit.pipelines import default_roles
    from repro.benchkit.views_vexp import build_vexp_views

    catalog = benchmark_catalog()
    views = build_vexp_views(default_roles(ROLE_BINDINGS_DENSE))
    return constraints_for_views(views, catalog)
