"""Integrity constraints over the VREM schema.

The semantic knowledge HADAD reasons with is expressed entirely as
constraints — Tuple Generating Dependencies (TGDs) and Equality Generating
Dependencies (EGDs) — over the virtual relations of :mod:`repro.vrem`:

* :mod:`repro.constraints.core` — the constraint objects and a compact
  textual DSL for writing them;
* :mod:`repro.constraints.matrix_model` — MMC_m: key constraints on names,
  sizes, zero and identity matrices (§6.2.1);
* :mod:`repro.constraints.la_properties` — MMC_LAprop: the textbook LA
  properties of Appendix A (addition, product, transposition, inverse,
  determinant, adjoint, trace, direct sum, exponential);
* :mod:`repro.constraints.decompositions` — the Cholesky/QR/LU/LUP axioms of
  §6.2.5 / Appendix A;
* :mod:`repro.constraints.systemml_rules` — MMC_StatAgg: SystemML's algebraic
  aggregate rewrite rules of Appendix B;
* :mod:`repro.constraints.morpheus_rules` — Morpheus' factorized-LA rewrite
  rules over normalized (join-produced) matrices (§9.2);
* :mod:`repro.constraints.views` — encoding of materialized LA views as
  constraints (V_IO / V_OI, Figure 3).

:func:`default_constraints` bundles the constraint sets the optimizer uses
out of the box.
"""

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from repro.constraints.core import Constraint, TGD, EGD, tgd, egd, parse_atoms
from repro.constraints.matrix_model import matrix_model_constraints
from repro.constraints.la_properties import la_property_constraints
from repro.constraints.decompositions import decomposition_constraints
from repro.constraints.systemml_rules import systemml_rule_constraints
from repro.constraints.morpheus_rules import morpheus_rule_constraints


@lru_cache(maxsize=None)
def _shipped_constraints(
    include_decompositions: bool, include_systemml: bool, include_morpheus: bool
) -> Tuple[Constraint, ...]:
    """The shipped rules, parsed once per process.

    Constraints are frozen, so every session shares these objects — and with
    them the kernels the chase compiles onto them on first use
    (:func:`repro.chase.kernel.kernel_for`)."""
    constraints: List[Constraint] = []
    constraints.extend(matrix_model_constraints())
    constraints.extend(la_property_constraints())
    if include_decompositions:
        constraints.extend(decomposition_constraints())
    if include_systemml:
        constraints.extend(systemml_rule_constraints())
    if include_morpheus:
        constraints.extend(morpheus_rule_constraints())
    return tuple(constraints)


def default_constraints(
    include_decompositions: bool = True,
    include_systemml: bool = True,
    include_morpheus: bool = False,
    extra: Optional[Sequence[Constraint]] = None,
) -> List[Constraint]:
    """The MMC constraint set used by the optimizer by default.

    MMC = MMC_m ∪ MMC_LAprop ∪ MMC_StatAgg (§6.3); the Morpheus rules are
    only added when optimizing pipelines over normalized matrices because
    they reference the factorization relations.  The list is the caller's
    own; the constraint objects in it are shared process-wide.
    """
    constraints = list(
        _shipped_constraints(
            bool(include_decompositions), bool(include_systemml), bool(include_morpheus)
        )
    )
    if extra:
        constraints.extend(extra)
    return constraints


__all__ = [
    "Constraint",
    "TGD",
    "EGD",
    "tgd",
    "egd",
    "parse_atoms",
    "matrix_model_constraints",
    "la_property_constraints",
    "decomposition_constraints",
    "systemml_rule_constraints",
    "morpheus_rule_constraints",
    "default_constraints",
]
