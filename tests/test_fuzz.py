"""The fuzz subsystem's own tests: generator, oracle, shrinker, corpus, sweep.

The unmarked tests here are tier-1 smoke coverage — small budgets, fast.
The deep 300-expression sweep (the CI fuzz job's acceptance) is marked
``fuzz`` and runs via ``pytest -m fuzz``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigError, ShapeError, UnknownMatrixError
from repro.fuzz import (
    CatalogSpec,
    CorpusCase,
    DifferentialOracle,
    ExpressionGenerator,
    FuzzConfig,
    expr_size,
    generate_catalog,
    load_cases,
    run_fuzz,
    save_case,
    shrink,
    spawn_rng,
)
from repro.fuzz.__main__ import main as fuzz_main
from repro.fuzz.oracle import Violation, _commute_once, tolerance_for
from repro.fuzz.runner import _leaf_factory
from repro.lang import matrix_expr as mx
from repro.lang.shapes import shape_of


@pytest.fixture(scope="module")
def small_spec():
    return CatalogSpec(seed=7, dims=(2, 3, 5))


@pytest.fixture(scope="module")
def small_synthetic(small_spec):
    return generate_catalog(small_spec)


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


class TestGenerator:
    def test_catalog_is_deterministic(self, small_spec):
        catalog_a, inv_a = generate_catalog(small_spec)
        catalog_b, inv_b = generate_catalog(small_spec)
        assert catalog_a.matrix_names() == catalog_b.matrix_names()
        for name in catalog_a.matrix_names():
            if not catalog_a.has_matrix_values(name):
                continue
            left = catalog_a.matrix(name).values
            right = catalog_b.matrix(name).values
            if hasattr(left, "toarray"):
                left, right = left.toarray(), right.toarray()
            np.testing.assert_array_equal(np.asarray(left), np.asarray(right))
        assert inv_a.by_shape == inv_b.by_shape

    def test_every_shape_has_a_leaf(self, small_synthetic):
        _, inventory = small_synthetic
        axes = inventory.axes
        for r in axes:
            for c in axes:
                if (r, c) == (1, 1):
                    continue
                assert inventory.by_shape.get((r, c)), f"no leaf of shape {(r, c)}"

    def test_expressions_are_deterministic_and_shape_valid(self, small_synthetic):
        catalog, inventory = small_synthetic
        first = [
            ExpressionGenerator(inventory, spawn_rng(7, 0, i), max_depth=5).generate()
            for i in range(30)
        ]
        second = [
            ExpressionGenerator(inventory, spawn_rng(7, 0, i), max_depth=5).generate()
            for i in range(30)
        ]
        assert [e.fingerprint() for e in first] == [e.fingerprint() for e in second]
        for expr in first:
            shape_of(expr, catalog)  # must not raise: generation is conformable

    def test_views_are_materializable(self, small_synthetic):
        from repro.benchkit.harness import materialize_views

        catalog, inventory = small_synthetic
        generator = ExpressionGenerator(inventory, spawn_rng(7, 9), max_depth=3)
        views = generator.generate_views(3)
        assert len({view.name for view in views}) == 3
        materialize_views(views, catalog)
        for view in views:
            assert catalog.has_matrix_values(view.name)

    def test_invertible_subtrees_are_well_conditioned(self, small_synthetic):
        from repro.backends import NumpyBackend

        catalog, inventory = small_synthetic
        backend = NumpyBackend(catalog)
        generator = ExpressionGenerator(inventory, spawn_rng(7, 5), max_depth=4)
        for _ in range(20):
            expr = mx.Inverse(generator.gen_invertible(3))
            value = backend.evaluate(expr)
            assert np.all(np.isfinite(np.asarray(value)))

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            CatalogSpec(seed=0, dims=(1, 3))

    def test_spec_json_round_trip(self, small_spec):
        assert CatalogSpec.from_json(small_spec.to_json()) == small_spec


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


class TestOracle:
    @pytest.fixture(scope="class")
    def oracle(self, small_synthetic):
        catalog, _ = small_synthetic
        return DifferentialOracle(catalog)

    @pytest.mark.parametrize("name", ["mnc", "naive"])
    def test_plans_under_its_estimator(self, small_synthetic, name):
        catalog, _ = small_synthetic
        oracle = DifferentialOracle(catalog, estimator_name=name)
        assert oracle.engine.workspace().config.estimator == name

    def test_unknown_estimator_fails_at_construction(self, small_synthetic):
        catalog, _ = small_synthetic
        with pytest.raises(ConfigError, match="mnc"):
            DifferentialOracle(catalog, estimator_name="mcn")

    def test_clean_expression_passes(self, oracle):
        expr = mx.Add(
            mx.MatMul(mx.MatrixRef("D3x5"), mx.MatrixRef("D5x3")), mx.MatrixRef("D3x3")
        )
        report = oracle.check(expr)
        assert report.ok, report.violations
        assert set(report.timings) == {"numpy", "systemml_like", "morpheus"}

    def test_sabotaged_plan_is_flagged(self, oracle):
        expr = mx.Add(
            mx.MatMul(mx.MatrixRef("D3x5"), mx.MatrixRef("D5x3")), mx.MatrixRef("D3x3")
        )
        real = oracle.engine.rewrite(expr)
        bad = real.copy()
        bad.best = mx.Sub(
            mx.MatMul(mx.MatrixRef("D3x5"), mx.MatrixRef("D5x3")), mx.MatrixRef("D3x3")
        )

        class FakeEngine:
            def rewrite(self, _):
                return bad

        sabotaged = DifferentialOracle.__new__(DifferentialOracle)
        sabotaged.__dict__.update(oracle.__dict__)
        sabotaged.engine = FakeEngine()
        report = sabotaged.check(expr)
        kinds = {violation.kind for violation in report.violations}
        assert "numeric" in kinds

    def test_shape_mismatch_is_flagged(self, oracle):
        expr = mx.Transpose(mx.MatrixRef("D3x5"))
        real = oracle.engine.rewrite(expr)
        bad = real.copy()
        bad.best = mx.MatrixRef("D3x5")  # (3,5) instead of (5,3)

        class FakeEngine:
            def rewrite(self, _):
                return bad

        sabotaged = DifferentialOracle.__new__(DifferentialOracle)
        sabotaged.__dict__.update(oracle.__dict__)
        sabotaged.engine = FakeEngine()
        report = sabotaged.check(expr)
        kinds = {violation.kind for violation in report.violations}
        assert "shape" in kinds

    def test_commuted_fingerprint_is_stable(self):
        expr = mx.Add(mx.MatrixRef("D3x3"), mx.MatMul(mx.MatrixRef("D3x5"), mx.MatrixRef("D5x3")))
        commuted = _commute_once(expr)
        assert commuted is not None
        assert commuted != expr
        assert commuted.canonical_fingerprint() == expr.canonical_fingerprint()
        assert _commute_once(mx.Transpose(mx.MatrixRef("D3x5"))) is None

    def test_tolerance_is_operator_aware(self):
        benign = mx.Add(mx.MatrixRef("A"), mx.MatrixRef("B"))
        risky = mx.Inverse(mx.MatrixRef("C"))
        assert tolerance_for(risky)[0] > tolerance_for(benign)[0]

    def test_sparse_kernel_diverging_from_dense_is_flagged(self, oracle, monkeypatch):
        """A kernel that goes wrong on the sparse catalog alone agrees with
        the reference on every LA backend (they share it); only the dense
        twin tells."""
        from repro.backends.numpy_backend import NumpyBackend

        real_add = NumpyBackend._eval_add_m

        def wrong_sparse_add(backend, expr):
            value = real_add(backend, expr)
            return value + 1.0 if backend.catalog is oracle.catalog else value

        monkeypatch.setattr(NumpyBackend, "_eval_add_m", wrong_sparse_add)
        report = oracle.check(mx.Add(mx.MatrixRef("S5x3"), mx.MatrixRef("D5x3")))
        assert [v.kind for v in report.violations] == ["numeric"]
        assert "numpy/dense-twin diverges" in report.violations[0].detail

    def test_planner_crash_is_a_violation(self, oracle):
        class CrashEngine:
            def rewrite(self, _):
                raise RuntimeError("boom")

        crashing = DifferentialOracle.__new__(DifferentialOracle)
        crashing.__dict__.update(oracle.__dict__)
        crashing.engine = CrashEngine()
        report = crashing.check(mx.MatrixRef("D3x3"))
        assert [v.kind for v in report.violations] == ["planner"]


# ---------------------------------------------------------------------------
# Shrinker
# ---------------------------------------------------------------------------


class TestShrinker:
    def test_shrinks_to_failing_core(self, small_synthetic):
        catalog, inventory = small_synthetic
        # The "bug" is any expression containing an Inverse node: the
        # minimal repro is inv(leaf) regardless of the noise around it.
        expr = mx.Add(
            mx.MatMul(mx.Inverse(mx.MatrixRef("Q3")), mx.MatrixRef("D3x3")),
            mx.Hadamard(mx.MatrixRef("D3x3"), mx.MatrixRef("P3x3")),
        )

        def still_fails(candidate):
            return "inv_m" in {node.op for _, node in _walk(candidate)}

        minimized = shrink(expr, still_fails, catalog, leaf_factory=_leaf_factory(inventory))
        assert still_fails(minimized)
        assert expr_size(minimized) < expr_size(expr)
        assert expr_size(minimized) == 2  # Inverse over one leaf

    def test_returns_input_when_nothing_smaller_fails(self, small_synthetic):
        catalog, inventory = small_synthetic
        expr = mx.MatrixRef("D3x3")
        minimized = shrink(expr, lambda e: True, catalog, leaf_factory=_leaf_factory(inventory))
        assert minimized == expr

    def test_result_is_shape_preserving(self, small_synthetic):
        catalog, inventory = small_synthetic
        expr = mx.Transpose(mx.MatMul(mx.MatrixRef("D3x5"), mx.MatrixRef("D5x2")))
        minimized = shrink(expr, lambda e: True, catalog, leaf_factory=_leaf_factory(inventory))
        assert shape_of(minimized, catalog) == shape_of(expr, catalog)


def _walk(expr, path=()):
    yield path, expr
    for index, child in enumerate(expr.children):
        yield from _walk(child, path + (index,))


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------


class TestCorpus:
    def test_round_trip_and_replay(self, tmp_path, small_spec):
        case = CorpusCase(
            case_id="unit-round-trip",
            expr=mx.Add(mx.MatrixRef("D3x3"), mx.MatrixRef("P3x3")),
            catalog_spec=small_spec,
            seed=7,
            violations=(Violation("numeric", "example"),),
            notes="unit test case",
        )
        path = save_case(tmp_path, case)
        assert path.name == "unit-round-trip.json"
        loaded = load_cases(tmp_path)
        assert len(loaded) == 1
        restored = loaded[0]
        assert restored.expr == case.expr
        assert restored.catalog_spec == small_spec
        assert restored.violations == case.violations
        report = restored.replay()
        assert report.ok, report.violations

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            CorpusCase.from_json({"format": 99, "case_id": "x"})

    def test_load_cases_on_missing_directory(self, tmp_path):
        assert load_cases(tmp_path / "nope") == []


# ---------------------------------------------------------------------------
# Sweep runner + CLI
# ---------------------------------------------------------------------------


class TestRunner:
    def test_small_sweep_is_clean_and_deterministic(self):
        config = FuzzConfig(budget=12, seed=101, expressions_per_catalog=6)
        first = run_fuzz(config)
        second = run_fuzz(config)
        assert first.checked + first.skipped == 12
        assert first.violations == 0, [c.violations for c in first.cases]
        assert first.checked == second.checked
        assert first.skipped == second.skipped

    def test_summary_shape(self):
        outcome = run_fuzz(FuzzConfig(budget=4, seed=5, expressions_per_catalog=4))
        summary = outcome.summary()
        assert summary["benchmark"] == "fuzz_sweep"
        assert "--seed 5" in summary["repro_command"]
        assert summary["acceptance"]["budget_exhausted"]
        json.dumps(summary)  # must be JSON-serializable

    def test_cli_exit_codes_and_artifacts(self, tmp_path, capsys):
        exit_code = fuzz_main(
            ["--budget", "6", "--seed", "9", "--per-catalog", "6", "--out", str(tmp_path)]
        )
        summary = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert summary["violations"] == 0
        assert list(tmp_path.glob("*.json")) == []

    def test_cli_sweeps_under_the_named_estimator(self, capsys):
        exit_code = fuzz_main(
            ["--budget", "4", "--seed", "9", "--per-catalog", "4", "--estimator", "naive"]
        )
        summary = json.loads(capsys.readouterr().out)
        assert exit_code == 0 and summary["violations"] == 0
        assert summary["estimator"] == "naive"
        assert summary["repro_command"].endswith("--estimator naive")

    def test_cli_rejects_unknown_estimator(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            fuzz_main(["--budget", "1", "--estimator", "mcn"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "mcn" in err and "'mnc'" in err and "'naive'" in err


# ---------------------------------------------------------------------------
# Property test routed through the pinned Hypothesis profile (satellite a)
# ---------------------------------------------------------------------------


@settings(max_examples=15)
@given(case=st.integers(min_value=0, max_value=10_000))
def test_generated_expressions_are_conformable_and_canonical(case):
    """Any generated expression is shape-valid and commute-stable."""
    catalog, inventory = generate_catalog(CatalogSpec(seed=13, dims=(2, 3, 4)))
    expr = ExpressionGenerator(inventory, spawn_rng(13, case), max_depth=5).generate()
    try:
        shape_of(expr, catalog)
    except (ShapeError, UnknownMatrixError) as exc:  # pragma: no cover - a bug
        pytest.fail(f"generated non-conformable expression {expr!r}: {exc}")
    commuted = _commute_once(expr)
    if commuted is not None:
        assert commuted.canonical_fingerprint() == expr.canonical_fingerprint()


# ---------------------------------------------------------------------------
# Deep sweep: the CI fuzz job's acceptance, opt-in via `pytest -m fuzz`
# ---------------------------------------------------------------------------


@pytest.mark.fuzz
def test_deep_sweep_300_expressions_no_violations(tmp_path):
    outcome = run_fuzz(FuzzConfig(budget=300, out_dir=tmp_path))
    assert outcome.checked + outcome.skipped >= 300
    assert outcome.violations == 0, (
        f"equivalence violations found; minimized repros in {tmp_path}: "
        f"{[case.case_id for case in outcome.cases]}"
    )
