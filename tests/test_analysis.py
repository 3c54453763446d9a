"""Tests for :mod:`repro.analysis` — the constraint-program verifier, the
concurrency/spawn-safety linter, the waiver workflow, the CLI, and
verification of a session's compiled program."""

import dataclasses
import json
import os
import textwrap
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    ERROR,
    RULES,
    Finding,
    Waiver,
    apply_waivers,
    failing,
    lint_source,
    load_waivers,
    verify_constraints,
    verify_program,
)
from repro.analysis.cli import main as analysis_main
from repro.analysis.cli import shipped_programs, verify_shipped
from repro.chase.program import ConstraintProgram
from repro.constraints.core import EGD, TGD, egd, tgd
from repro.exceptions import ConfigError
from repro.planner.session import PlanSession
from repro.vrem.atoms import Atom, Const, Var

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WAIVER_FILE = os.path.join(REPO_ROOT, "tools", "analysis_waivers.json")


def codes(findings):
    return {f.code for f in findings}


# ---------------------------------------------------------------------------
# Shipped programs
# ---------------------------------------------------------------------------

class TestShippedPrograms:
    @pytest.mark.parametrize("name", sorted(shipped_programs()))
    def test_no_error_findings(self, name):
        findings = verify_shipped([name])
        errors = [f for f in findings if f.severity == ERROR]
        assert errors == []

    def test_strict_clean_with_shipped_waivers(self):
        findings = verify_shipped()
        waivers = load_waivers(WAIVER_FILE)
        report = apply_waivers(findings, waivers)
        assert failing(report, strict=True) == []

    def test_shipped_waivers_all_used(self):
        findings = verify_shipped()
        waivers = [w for w in load_waivers(WAIVER_FILE) if w.code.startswith("RPA0")]
        report = apply_waivers(findings, waivers)
        assert report.unused == []

    def test_conclusion_test_split_is_reported_per_program(self):
        findings = [f for f in verify_shipped(["default", "views"]) if f.code == "RPA011"]
        assert [(f.target, f.severity) for f in findings] == [
            ("default", "info"),
            ("views", "info"),
        ]
        assert findings[0].message == "114 TGD conclusions keyed, 0 searched"
        assert findings[1].message.startswith(
            "126 TGD conclusions keyed, 12 searched: view-oi:V1, view-oi:V2, "
        )
        # Info findings are reported beside the rest: never failing, not waivable.
        report = apply_waivers(findings, [Waiver("RPA011", "*", "nothing to accept")])
        assert report.info == findings and not report.active and not report.waived
        assert failing(report, strict=True) == []

    def test_repo_lint_clean(self):
        from repro.analysis.lint import lint_paths

        findings = lint_paths([os.path.join(REPO_ROOT, "src", "repro")], base=REPO_ROOT)
        assert findings == []


# ---------------------------------------------------------------------------
# Injected constraint violations, one per rule code
# ---------------------------------------------------------------------------

class TestConstraintRules:
    def test_rpa001_duplicate_name(self):
        constraints = [
            tgd("dup", "add_m(M, N, R) -> add_m(N, M, R)"),
            tgd("dup", "tr(M, T) -> tr(T, M)"),
        ]
        findings = verify_constraints(constraints, "t")
        assert any(f.code == "RPA001" and f.target == "t:dup" for f in findings)

    def test_rpa002_unbound_equality_variable(self):
        bad = EGD(
            name="bad-egd",
            premise=(Atom("name", (Var("M"), Var("n"))),),
            equalities=((Var("M"), Var("ghost")),),
        )
        findings = verify_constraints([bad], "t")
        assert any(f.code == "RPA002" and "ghost" in f.message for f in findings)

    def test_rpa002_distinct_constants(self):
        bad = EGD(
            name="bad-consts",
            premise=(Atom("name", (Var("M"), Var("n"))),),
            equalities=((Const(1), Const(2)),),
        )
        assert "RPA002" in codes(verify_constraints([bad], "t"))

    def test_rpa003_unknown_relation_and_arity(self):
        unknown = TGD(
            name="bad-rel",
            premise=(Atom("no_such_rel", (Var("M"),)),),
            conclusion=(Atom("tr", (Var("M"), Var("T"))),),
        )
        wrong_arity = TGD(
            name="bad-arity",
            premise=(Atom("tr", (Var("M"),)),),
            conclusion=(Atom("tr", (Var("M"), Var("T"))),),
        )
        findings = verify_constraints([unknown, wrong_arity], "t")
        assert sum(1 for f in findings if f.code == "RPA003") == 2

    def test_rpa004_disconnected_conclusion(self):
        bad = TGD(
            name="floating",
            premise=(Atom("name", (Var("M"), Var("n"))),),
            conclusion=(Atom("tr", (Var("X"), Var("Y"))),),
        )
        assert "RPA004" in codes(verify_constraints([bad], "t"))

    def test_rpa005_missing_trigger_relation(self):
        constraint = tgd("ok", "tr(M, T) & name(M, n) -> name(T, n)")
        program = ConstraintProgram([constraint])
        crippled = dataclasses.replace(
            program.compiled[0], trigger_relations=("tr",)
        )
        tampered = types.SimpleNamespace(
            constraints=program.constraints, compiled=[crippled]
        )
        findings = verify_program(tampered, "t")
        assert any(f.code == "RPA005" and "name" in f.message for f in findings)

    def test_rpa005_missing_shape_stamp(self):
        constraint = tgd("shape", "size(M, 1, j) & tr(M, T) -> size(T, j, 1)")
        program = ConstraintProgram([constraint])
        assert program.compiled[0].uses_shapes
        crippled = dataclasses.replace(program.compiled[0], uses_shapes=False)
        tampered = types.SimpleNamespace(
            constraints=program.constraints, compiled=[crippled]
        )
        assert "RPA005" in codes(verify_program(tampered, "t"))

    def test_rpa006_order_sensitive_commutative_premise(self):
        bad = tgd(
            "order-sensitive",
            "multi_e(M, N, R) & size(N, i, 1) -> tr(M, R2)",
        )
        findings = verify_constraints([bad], "t")
        assert any(f.code == "RPA006" and "multi_e" in f.message for f in findings)

    def test_rpa006_silenced_by_repair_rule(self):
        sensitive = tgd(
            "order-sensitive",
            "multi_e(M, N, R) & size(N, i, 1) -> tr(M, R2)",
        )
        repair = tgd("multi-e-commutes", "multi_e(M, N, R) -> multi_e(N, M, R)")
        assert "RPA006" not in codes(verify_constraints([sensitive, repair], "t"))

    def test_rpa006_symmetric_premise_is_fine(self):
        # add-commutes itself: swapping M and N maps the premise onto itself.
        ok = tgd("add-commutes", "add_m(M, N, R) -> add_m(N, M, R)")
        assert "RPA006" not in codes(verify_constraints([ok], "t"))

    def test_rpa007_constant_in_commutative_slot(self):
        bad = TGD(
            name="const-operand",
            premise=(Atom("add_m", (Var("M"), Const("Z.csv"), Var("R"))),),
            conclusion=(Atom("tr", (Var("M"), Var("T"))),),
        )
        assert "RPA007" in codes(verify_constraints([bad], "t"))

    def test_rpa008_cyclic_tgd_set(self):
        # tr(M, T) -> tr(T, F) with F existential: tr.1 feeds tr.0 which
        # feeds a fresh null back into tr.1 — the classic non-terminating
        # chase.
        cyclic = tgd("spin", "tr(M, T) -> tr(T, F)")
        findings = verify_constraints([cyclic], "t")
        assert any(
            f.code == "RPA008" and f.target == "t:spin" for f in findings
        )

    def test_weakly_acyclic_set_has_no_rpa008(self):
        layered = [
            tgd("down", "tr(M, T) -> name(T, n)"),
            egd("key", 'name(M, n) & name(N, n) -> M = N'),
        ]
        assert "RPA008" not in codes(verify_constraints(layered, "t"))

    def test_rpa009_existential_reaching_cycle(self):
        # Regular-edge cycle between tr.0/tr.1 (no existential inside it),
        # plus a TGD whose existential lands in the cycle: weakly acyclic
        # but not richly acyclic.
        constraints = [
            tgd("swap", "tr(M, T) -> tr(T, M)"),
            tgd("feed", "name(M, n) -> tr(M, F)"),
        ]
        findings = verify_constraints(constraints, "t")
        assert "RPA008" not in codes(findings)
        assert any(f.code == "RPA009" and f.target == "t:feed" for f in findings)

    def test_rpa010_trigger_outside_recordable_set(self):
        # Selective delta revalidation is sound only while every compiled
        # trigger relation is part of the VREM schema the plan footprints
        # record; a rogue trigger relation must be an ERROR finding.
        constraint = tgd("ok", "tr(M, T) & name(M, n) -> name(T, n)")
        program = ConstraintProgram([constraint])
        entry = program.compiled[0]
        tampered_entry = dataclasses.replace(
            entry, trigger_relations=tuple(entry.trigger_relations) + ("rogue_rel",)
        )
        tampered = types.SimpleNamespace(
            constraints=program.constraints, compiled=[tampered_entry]
        )
        findings = verify_program(tampered, "t")
        hits = [f for f in findings if f.code == "RPA010"]
        assert hits and hits[0].severity == ERROR
        assert "rogue_rel" in hits[0].message

    def test_rpa010_schema_triggers_are_clean(self):
        constraint = tgd("ok", "tr(M, T) & name(M, n) -> name(T, n)")
        program = ConstraintProgram([constraint])
        assert "RPA010" not in codes(verify_program(program, "t"))


# ---------------------------------------------------------------------------
# Linter rules
# ---------------------------------------------------------------------------

class TestLintRules:
    def test_rpa101_unguarded_cache_mutation(self):
        source = textwrap.dedent(
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cache = {}

                def get(self, key):
                    with self._lock:
                        return self._cache.get(key)

                def put(self, key, value):
                    self._cache[key] = value
            """
        )
        findings = lint_source(source, "mod.py")
        assert any(f.code == "RPA101" and "_cache" in f.message for f in findings)

    def test_rpa101_guarded_mutation_is_clean(self):
        source = textwrap.dedent(
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cache = {}

                def put(self, key, value):
                    with self._lock:
                        self._cache[key] = value
            """
        )
        assert lint_source(source, "mod.py") == []

    def test_rpa101_locked_suffix_methods_exempt(self):
        source = textwrap.dedent(
            """
            import threading

            class Pool:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._slots = []

                def grow(self):
                    with self._lock:
                        self._grow_locked()

                def _grow_locked(self):
                    self._slots.append(object())
            """
        )
        assert lint_source(source, "mod.py") == []

    def test_rpa101_inline_ignore(self):
        source = textwrap.dedent(
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cache = {}

                def get(self, key):
                    with self._lock:
                        return self._cache.get(key)

                def put(self, key, value):
                    self._cache[key] = value  # repro-lint: ignore[RPA101]
            """
        )
        assert lint_source(source, "mod.py") == []

    def test_rpa102_time_sleep_in_async(self):
        source = textwrap.dedent(
            """
            import time

            async def handler():
                time.sleep(0.1)
            """
        )
        findings = lint_source(source, "server.py")
        assert any(f.code == "RPA102" and "time.sleep" in f.message for f in findings)

    def test_rpa102_pipe_recv_in_async(self):
        source = textwrap.dedent(
            """
            async def pump(conn):
                return conn.recv()
            """
        )
        assert "RPA102" in codes(lint_source(source, "server.py"))

    def test_rpa102_nested_sync_def_excluded(self):
        source = textwrap.dedent(
            """
            import asyncio
            import time

            async def handler(loop):
                def blocking():
                    time.sleep(0.1)
                await loop.run_in_executor(None, blocking)
            """
        )
        assert lint_source(source, "server.py") == []

    def test_rpa103_lambda_process_target(self):
        source = textwrap.dedent(
            """
            import multiprocessing as mp

            def start():
                ctx = mp.get_context("spawn")
                return ctx.Process(target=lambda: None)
            """
        )
        findings = lint_source(source, "mod.py")
        assert any(f.code == "RPA103" and "lambda" in f.message for f in findings)

    def test_rpa103_lambda_worker_factory(self):
        source = textwrap.dedent(
            """
            def build(supervisor_cls):
                return supervisor_cls(worker_factory=lambda: make_session())
            """
        )
        assert "RPA103" in codes(lint_source(source, "mod.py"))

    def test_rpa103_closure_target(self):
        source = textwrap.dedent(
            """
            import multiprocessing as mp

            def start():
                def child():
                    pass
                return mp.Process(target=child)
            """
        )
        findings = lint_source(source, "mod.py")
        assert any(f.code == "RPA103" and "child" in f.message for f in findings)

    def test_rpa103_module_level_target_is_clean(self):
        source = textwrap.dedent(
            """
            import multiprocessing as mp

            def child_main():
                pass

            def start():
                return mp.Process(target=child_main, args=(1, 2))
            """
        )
        assert lint_source(source, "mod.py") == []


# ---------------------------------------------------------------------------
# Waivers
# ---------------------------------------------------------------------------

class TestWaivers:
    def test_missing_reason_rejected(self, tmp_path):
        path = tmp_path / "waivers.json"
        path.write_text(json.dumps(
            {"waivers": [{"code": "RPA008", "target": "core:*"}]}
        ))
        with pytest.raises(ConfigError, match="reason"):
            load_waivers(str(path))

    def test_glob_matching_and_unused_tracking(self):
        findings = [
            Finding(code="RPA008", target="core:add-assoc-fwd", message="m"),
            Finding(code="RPA008", target="views:view-oi:V1", message="m"),
        ]
        waivers = [
            Waiver(code="RPA008", target="core:*", reason="budgeted"),
            Waiver(code="RPA006", target="core:*", reason="never fires"),
        ]
        report = apply_waivers(findings, waivers)
        assert [f.target for f in report.active] == ["views:view-oi:V1"]
        assert len(report.waived) == 1
        assert [w.code for w in report.unused] == ["RPA006"]

    def test_failing_severity_split(self):
        findings = [
            Finding(code="RPA002", target="t:a", message="m"),   # error
            Finding(code="RPA008", target="t:b", message="m"),   # warning
        ]
        report = apply_waivers(findings, [])
        assert [f.code for f in failing(report, strict=False)] == ["RPA002"]
        assert {f.code for f in failing(report, strict=True)} == {"RPA002", "RPA008"}

    def test_every_code_documented(self):
        for code, (title, severity, description) in RULES.items():
            assert code.startswith("RPA")
            assert title and description
            assert severity in ("error", "warning", "info")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCli:
    def test_constraints_strict_exits_zero(self, capsys):
        rc = analysis_main(["constraints", "--strict", "--waive", WAIVER_FILE])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s) active" in out

    def test_constraints_json_output(self, capsys):
        rc = analysis_main(["constraints", "core", "--json", "--waive", WAIVER_FILE])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["waived"]

    def test_unknown_program_is_usage_error(self):
        assert analysis_main(["constraints", "nope"]) == 2

    def test_lint_flags_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import time\n\nasync def f():\n    time.sleep(1)\n"
        )
        rc = analysis_main(["lint", str(bad), "--waive", WAIVER_FILE])
        assert rc == 1
        assert "RPA102" in capsys.readouterr().out

    def test_lint_src_repro_clean(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        rc = analysis_main(["lint", os.path.join("src", "repro"), "--strict"])
        assert rc == 0


# ---------------------------------------------------------------------------
# Verifying a session's compiled program
# ---------------------------------------------------------------------------

def _const_operand_tgd():
    return TGD(
        name="const-operand",
        premise=(Atom("add_m", (Var("M"), Const("Z.csv"), Var("R"))),),
        conclusion=(Atom("tr", (Var("M"), Var("T"))),),
    )


class TestProgramVerification:
    def test_verify_reports_error_finding(self):
        program = ConstraintProgram([_const_operand_tgd()], validate=False)
        errors = [f for f in program.verify("session") if f.severity == ERROR]
        assert "RPA007" in codes(errors)

    def test_session_with_bad_program_constructs_and_verifies(self, small_catalog):
        session = PlanSession(catalog=small_catalog, constraints=[_const_operand_tgd()])
        assert len(session.program) == 1
        assert "RPA007" in codes(session.program.verify("session"))

    def test_default_session_program_has_no_errors(self, small_catalog):
        session = PlanSession(catalog=small_catalog)
        findings = session.program.verify("session")
        assert not [f for f in findings if f.severity == ERROR]

    def test_benchkit_plans_identical_after_verification(self):
        """Verification reads the program and never rewrites it."""
        from repro.benchkit.datasets import ROLE_BINDINGS_DENSE, benchmark_catalog
        from repro.benchkit.pipelines import build_pipeline, default_roles, pipeline_names

        catalog = benchmark_catalog()
        roles = default_roles(ROLE_BINDINGS_DENSE)
        plans = {}
        for verify in (False, True):
            session = PlanSession(catalog=catalog)
            if verify:
                session.program.verify("session")
            for name in pipeline_names():
                result = session.rewrite(build_pipeline(name, roles))
                plans.setdefault(name, []).append(str(result.best))
        assert len(plans) == 57
        assert all(first == second for first, second in plans.values())


# ---------------------------------------------------------------------------
# Property: layered (acyclic-by-construction) programs pass weak acyclicity
# ---------------------------------------------------------------------------

_RELATIONS = ["tr", "inv_m", "adj", "exp", "cho"]  # arity-2 VREM relations


@st.composite
def layered_tgds(draw):
    """TGDs whose premise relation index is strictly below the conclusion's.

    Every position-graph edge then goes from a lower-indexed relation to a
    higher-indexed one, so the graph is a DAG: weak acyclicity must hold
    whatever the variable/existential pattern is.
    """
    count = draw(st.integers(min_value=1, max_value=6))
    constraints = []
    for index in range(count):
        src = draw(st.integers(min_value=0, max_value=len(_RELATIONS) - 2))
        dst = draw(st.integers(min_value=src + 1, max_value=len(_RELATIONS) - 1))
        propagate = draw(st.booleans())
        existential = draw(st.booleans()) or not propagate
        left = Var(f"x{index}")
        right = Var(f"y{index}")
        head_args = [
            left if propagate else Var(f"e{index}a"),
            Var(f"e{index}b") if existential else right,
        ]
        constraints.append(TGD(
            name=f"gen-{index}",
            premise=(Atom(_RELATIONS[src], (left, right)),),
            conclusion=(Atom(_RELATIONS[dst], tuple(head_args)),),
        ))
    return constraints


class TestWeakAcyclicityProperty:
    @settings(max_examples=60, deadline=None)
    @given(layered_tgds())
    def test_layered_programs_are_weakly_acyclic(self, constraints):
        findings = verify_constraints(constraints, "gen")
        assert "RPA008" not in codes(findings)
