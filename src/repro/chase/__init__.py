"""The chase.

:mod:`repro.chase.saturation` is the chase of the relationally encoded LA
expression with the MMC / view constraints (§6.3, §7.3).  It operates on a
:class:`~repro.vrem.instance.VremInstance` (equivalence classes + atoms) and
supports the cost-threshold pruning of Prune_prov.  One production engine
(serial, trigger-indexed, semi-naive); ``use_index=False`` builds the
linear-scan reference engine the tests compare it against.

:mod:`repro.chase.program` compiles constraint lists into reusable, indexed
:class:`~repro.chase.program.ConstraintProgram` objects so long-lived
planner sessions never re-analyse their constraints per rewrite;
:mod:`repro.chase.kernel` holds the compiled form of a single constraint
(slot-addressed premise joins, keyed conclusion probes) the production
engine runs on; :mod:`repro.chase.homomorphism` is the generic matcher kept
as the reference.
"""

from repro.chase.saturation import SaturationEngine, SaturationResult, CostThresholdPruner
from repro.chase.homomorphism import find_instance_matches
from repro.chase.program import CompiledConstraint, ConstraintProgram

__all__ = [
    "SaturationEngine",
    "SaturationResult",
    "CostThresholdPruner",
    "CompiledConstraint",
    "ConstraintProgram",
    "find_instance_matches",
]
