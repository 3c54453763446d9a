"""HADAD's core: extraction, chain ordering and the rewrite result.

The rewrite realises the end-to-end reduction of Figure 1:

1. the input LA (or hybrid-LA) expression is encoded relationally on the
   VREM schema (:mod:`repro.vrem.encoder`);
2. the encoding is chased with the MMC constraints and the view constraints
   (:mod:`repro.chase.saturation`), with cost-threshold pruning;
3. the minimum-cost equivalent derivation of the root class is extracted
   (:mod:`repro.core.extraction`), which plays the role of the
   provenance-based enumeration + costing of PACB++;
4. the chosen derivation is decoded back into an LA expression
   (:mod:`repro.vrem.decoder`) that any backend can execute unchanged.

The public entry point is :class:`repro.api.Engine`; the staged
:class:`repro.planner.PlanSession` (re-exported here) owns the long-lived
state (compiled constraint program, saturation engine, fingerprint-keyed
rewrite cache).
"""

from repro.constraints.views import LAView
from repro.core.result import RewriteResult
from repro.core.extraction import extract_best_expression, enumerate_equivalent_expressions
from repro.core.matchain import optimize_matmul_chains
from repro.planner.session import PlanSession

__all__ = [
    "LAView",
    "PlanSession",
    "RewriteResult",
    "extract_best_expression",
    "enumerate_equivalent_expressions",
    "optimize_matmul_chains",
]
