"""The vectorised relational engine against row-at-a-time references.

The engine joins by sorting the right keys and searching them, and filters
string columns with NumPy's string ufuncs.  The references below do the same
work one row at a time, the way the engine once did: a dict-of-lists hash
join keyed by ``float(key)``, and Python's ``in`` / ``==`` per value.  Every
result must match them row for row and column for column.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.backends.relational import RelationalEngine
from repro.data.catalog import Catalog
from repro.data.table import Table
from repro.exceptions import TypeMismatchError
from repro.lang.builder import join, select, table, to_matrix
from repro.lang.relational_expr import Predicate


def reference_join(left: Table, right: Table, left_key: str, right_key: str) -> dict:
    """Columns of the equi-join, computed row by row with a hash index."""
    index: dict = {}
    for position, key in enumerate(right.column(right_key)):
        index.setdefault(float(key), []).append(position)
    left_rows, right_rows = [], []
    for position, key in enumerate(left.column(left_key)):
        for match in index.get(float(key), ()):
            left_rows.append(position)
            right_rows.append(match)
    columns = {name: [left.column(name)[i] for i in left_rows] for name in left.columns}
    for name in right.columns:
        target = name if name not in columns else f"{name}_r"
        columns[target] = [right.column(name)[i] for i in right_rows]
    return columns


def _engine(*tables: Table) -> RelationalEngine:
    catalog = Catalog()
    for stored in tables:
        catalog.register_table(stored)
    return RelationalEngine(catalog)


def assert_join_matches_reference(left: Table, right: Table, left_key="k", right_key="k"):
    engine = _engine(left, right)
    joined = engine.evaluate(join(table(left.name), table(right.name), left_key, right_key))
    expected = reference_join(left, right, left_key, right_key)
    assert joined.columns == tuple(expected)
    for name, values in expected.items():
        got = joined.column(name)
        assert len(got) == len(values), name
        if got.dtype.kind == "U":
            assert got.tolist() == [str(value) for value in values], name
        else:
            want = np.asarray(values, dtype=got.dtype)
            # Bit for bit: NaN payloads and the sign of zero survive the join.
            assert got.tobytes() == want.tobytes(), name
    return joined


# Keys drawn from a small pool so that duplicates, misses, NaN and both zeros
# are all common.
KEY_POOL = [0.0, -0.0, 1.0, 1.5, 2.0, 3.0, -4.25, math.nan, 1e300]


class TestJoinAgainstReference:
    def test_duplicate_keys_are_left_major_in_right_position_order(self):
        left = Table("L", {"k": [2.0, 1.0, 2.0, 7.0], "a": [10.0, 11.0, 12.0, 13.0]})
        right = Table("R", {"k": [2.0, 5.0, 2.0, 1.0, 2.0], "b": [0.0, 1.0, 2.0, 3.0, 4.0]})
        joined = assert_join_matches_reference(left, right)
        assert joined.column("a").tolist() == [10.0, 10.0, 10.0, 11.0, 12.0, 12.0, 12.0]
        assert joined.column("b").tolist() == [0.0, 2.0, 4.0, 3.0, 0.0, 2.0, 4.0]

    def test_unmatched_keys_on_both_sides_drop_out(self):
        left = Table("L", {"k": [1.0, 2.0, 3.0], "a": [1.0, 2.0, 3.0]})
        right = Table("R", {"k": [4.0, 5.0], "b": [1.0, 2.0]})
        joined = assert_join_matches_reference(left, right)
        assert joined.n_rows == 0

    def test_nan_keys_never_match(self):
        left = Table("L", {"k": [math.nan, 1.0, math.nan], "a": [1.0, 2.0, 3.0]})
        right = Table("R", {"k": [math.nan, 1.0, math.nan], "b": [4.0, 5.0, 6.0]})
        joined = assert_join_matches_reference(left, right)
        assert joined.column("a").tolist() == [2.0] and joined.column("b").tolist() == [5.0]

    def test_negative_zero_matches_zero(self):
        left = Table("L", {"k": [-0.0, 0.0], "a": [1.0, 2.0]})
        right = Table("R", {"k": [0.0, -0.0], "b": [3.0, 4.0]})
        joined = assert_join_matches_reference(left, right)
        assert joined.n_rows == 4
        assert np.signbit(joined.column("k")).tolist() == [True, True, False, False]
        assert np.signbit(joined.column("k_r")).tolist() == [False, True, False, True]

    def test_integer_keys_match_float_keys(self):
        left = Table("L", {"k": np.asarray([1, 2, 3], dtype=np.int64), "a": [1.0, 2.0, 3.0]})
        right = Table("R", {"k": [3.0, 1.0], "b": [4.0, 5.0]})
        assert_join_matches_reference(left, right).n_rows == 2

    def test_clashing_column_names_get_the_r_suffix(self):
        left = Table("L", {"k": [1.0, 2.0], "x": [1.0, 2.0], "s": ["a", "b"]})
        right = Table("R", {"k": [2.0, 1.0], "x": [5.0, 6.0], "s": ["c", "d"], "y": [7.0, 8.0]})
        joined = assert_join_matches_reference(left, right)
        assert joined.columns == ("k", "x", "s", "k_r", "x_r", "s_r", "y")
        assert joined.column("s").tolist() == ["a", "b"]
        assert joined.column("s_r").tolist() == ["d", "c"]

    def test_different_key_names(self):
        left = Table("L", {"lk": [1.0, 1.0, 2.0], "a": [1.0, 2.0, 3.0]})
        right = Table("R", {"rk": [1.0, 2.0, 2.0], "b": [4.0, 5.0, 6.0]})
        assert_join_matches_reference(left, right, "lk", "rk")

    def test_empty_sides(self):
        empty = Table("L", {"k": np.zeros(0), "a": np.zeros(0)})
        right = Table("R", {"k": [1.0, 2.0], "b": [4.0, 5.0]})
        assert assert_join_matches_reference(empty, right).n_rows == 0
        other = Table("R", {"k": np.zeros(0), "b": np.zeros(0)})
        left = Table("L", {"k": [1.0], "a": [2.0]})
        assert assert_join_matches_reference(left, other).n_rows == 0

    @given(
        st.lists(st.sampled_from(KEY_POOL), max_size=30),
        st.lists(st.sampled_from(KEY_POOL), max_size=30),
    )
    def test_random_keys(self, left_keys, right_keys):
        left = Table(
            "L",
            {
                "k": np.asarray(left_keys, dtype=np.float64),
                "a": np.arange(len(left_keys), dtype=np.float64),
                "tag": np.asarray([f"l{i}" for i in range(len(left_keys))], dtype=np.str_),
            },
        )
        right = Table(
            "R",
            {
                "k": np.asarray(right_keys, dtype=np.float64),
                "a": -np.arange(len(right_keys), dtype=np.float64),
            },
        )
        assert_join_matches_reference(left, right)


TEXT = ["covid a", "", "other", "COVID", "covid", "x covid y", "vid", "cov id", "ünïcode covid"]
COUNTRY = ["US", "FR", "US", "UK", "us", "US", "", "FR", "US"]


@pytest.fixture()
def facts() -> Table:
    return Table(
        "Facts",
        {
            "id": np.arange(len(TEXT), dtype=np.float64),
            "text": TEXT,
            "country": COUNTRY,
            "other": ["US", "FR", "FR", "UK", "US", "US", "", "UK", "US"],
        },
    )


def _selected(facts: Table, *predicates: Predicate) -> list:
    result = _engine(facts).evaluate(select(table("Facts"), *predicates))
    return result.column("id").astype(int).tolist()


class TestStringPredicates:
    @pytest.mark.parametrize("needle", ["covid", "", "vid", "COVID", "ünï", "absent"])
    def test_like_is_a_substring_search(self, facts, needle):
        expected = [i for i, text in enumerate(TEXT) if needle in text]
        assert _selected(facts, Predicate("text", "like", needle)) == expected

    @pytest.mark.parametrize("comparator", ["==", "!="])
    @pytest.mark.parametrize("value", ["US", "us", "", "DE"])
    def test_equality_against_a_constant(self, facts, comparator, value):
        expected = [
            i for i, country in enumerate(COUNTRY) if (country == value) == (comparator == "==")
        ]
        assert _selected(facts, Predicate("country", comparator, value)) == expected

    @pytest.mark.parametrize("comparator", ["==", "!="])
    def test_equality_against_another_column(self, facts, comparator):
        others = facts.column("other").tolist()
        expected = [
            i
            for i, (country, other) in enumerate(zip(COUNTRY, others))
            if (country == other) == (comparator == "==")
        ]
        predicate = Predicate("country", comparator, "other", is_column_rhs=True)
        assert _selected(facts, predicate) == expected

    def test_like_against_another_column(self, facts):
        expected = [i for i, (t, c) in enumerate(zip(TEXT, COUNTRY)) if c in t]
        predicate = Predicate("text", "like", "country", is_column_rhs=True)
        assert _selected(facts, predicate) == expected

    def test_conjunction(self, facts):
        expected = [
            i for i, (t, c) in enumerate(zip(TEXT, COUNTRY)) if "covid" in t and c == "US"
        ]
        predicates = (Predicate("text", "like", "covid"), Predicate("country", "==", "US"))
        assert _selected(facts, *predicates) == expected

    def test_like_on_a_numeric_column_is_a_type_mismatch(self, facts):
        with pytest.raises(TypeMismatchError):
            _selected(facts, Predicate("id", "like", "1"))

    def test_like_against_a_numeric_column_is_a_type_mismatch(self, facts):
        with pytest.raises(TypeMismatchError):
            _selected(facts, Predicate("text", "like", "id", is_column_rhs=True))


class TestStringColumns:
    def test_strings_are_stored_as_a_unicode_array(self, facts):
        assert facts.column("text").dtype.kind == "U"
        assert facts.column("text").tolist() == TEXT

    def test_take_keeps_order_and_repeats(self, facts):
        taken = facts.take([4, 0, 4, 8])
        assert taken.column("text").tolist() == [TEXT[4], TEXT[0], TEXT[4], TEXT[8]]
        assert taken.column("id").tolist() == [4.0, 0.0, 4.0, 8.0]
        assert facts.take([]).n_rows == 0

    def test_to_matrix_of_a_string_column_is_a_type_mismatch(self, facts):
        with pytest.raises(TypeMismatchError):
            facts.to_matrix(["id", "text"])
        engine = _engine(facts)
        with pytest.raises(TypeMismatchError):
            engine.evaluate_to_matrix(to_matrix(table("Facts"), ["country"]))

    def test_to_matrix_casts_numeric_kinds_to_float64(self):
        stored = Table(
            "T",
            {
                "i": np.asarray([1, 2], dtype=np.int32),
                "b": np.asarray([True, False]),
                "f": [0.5, -0.0],
            },
        )
        values = stored.to_matrix(["f", "i", "b"])
        assert values.dtype == np.float64 and values.flags.c_contiguous
        assert values.tolist() == [[0.5, 1.0, 1.0], [-0.0, 2.0, 0.0]]
