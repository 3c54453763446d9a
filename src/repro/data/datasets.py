"""Synthetic hybrid datasets: Twitter-like and MIMIC-like.

The micro-hybrid benchmark of §9.2.2 runs ten queries whose RA part joins
relational tables into a dense feature matrix **M** and builds an
ultra-sparse matrix **N** from a filtered fact table, and whose LA part runs
one of the pipelines of Table 7 over M, N and a few synthetic dense inputs.

The original datasets (16 GB of tweets from the Twitter API; the MIMIC-III
clinical database) cannot be shipped, so these generators produce relational
tables with the same schemas, key relationships and (scaled) cardinalities,
plus value distributions that preserve what the queries observe:

* the PK-FK join of the two entity tables yields a dense matrix M with the
  paper's feature count (12 for Twitter, 82 for MIMIC),
* the fact table filtered on the benchmark's selection predicate yields an
  ultra-sparse N with roughly the paper's sparsity, and
* the selection attribute (``filter_level`` / ``outcome``) takes small
  integer values so the "< 4" / "== 2" filters of the queries are selective
  in the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy import sparse

from repro.data.catalog import Catalog
from repro.data.matrix import MatrixData
from repro.data.table import Table

TWITTER_USER_FEATURES = (
    "followers_count",
    "friends_count",
    "listed_count",
    "protected",
    "verified",
)

TWITTER_TWEET_FEATURES = (
    "favorite_count",
    "quote_count",
    "reply_count",
    "retweet_count",
    "favorited",
    "possibly_sensitive",
    "retweeted",
)

MIMIC_PATIENT_FEATURES_COUNT = 20
MIMIC_ADMISSION_FEATURES_COUNT = 62


@dataclass(frozen=True)
class HybridDatasetSpec:
    """Sizes of a generated hybrid dataset (after scaling)."""

    n_entities: int
    n_features_left: int
    n_features_right: int
    n_fact_columns: int
    fact_density: float

    @property
    def n_features(self) -> int:
        return self.n_features_left + self.n_features_right


def _entity_tables(
    rng: np.random.Generator,
    n_entities: int,
    left_name: str,
    left_features: Tuple[str, ...],
    right_name: str,
    right_features: Tuple[str, ...],
    key: str = "id",
) -> Tuple[Table, Table]:
    """Two tables linked 1-1 by ``key`` whose numeric columns form M."""
    ids = np.arange(n_entities, dtype=np.float64)
    left_columns = {key: ids}
    for idx, feature in enumerate(left_features):
        left_columns[feature] = rng.integers(0, 100, size=n_entities).astype(np.float64) + idx
    right_columns = {key: ids.copy()}
    for idx, feature in enumerate(right_features):
        right_columns[feature] = rng.integers(0, 50, size=n_entities).astype(np.float64) + idx
    return Table(left_name, left_columns), Table(right_name, right_columns)


def _fact_table(
    rng: np.random.Generator,
    name: str,
    n_entities: int,
    n_items: int,
    density: float,
    entity_key: str,
    item_key: str,
    measure: str,
    measure_values: Tuple[int, ...],
    text_column: str = None,
    text_values: Tuple[str, ...] = (),
) -> Table:
    """A sparse fact table (entity, item, measure [, text]) used to build N."""
    n_facts = max(int(n_entities * n_items * density), 10)
    entity_ids = rng.integers(0, n_entities, size=n_facts).astype(np.float64)
    item_ids = rng.integers(0, n_items, size=n_facts).astype(np.float64)
    measures = rng.choice(np.asarray(measure_values, dtype=np.float64), size=n_facts)
    columns = {entity_key: entity_ids, item_key: item_ids, measure: measures}
    if text_column is not None:
        columns[text_column] = rng.choice(list(text_values), size=n_facts)
    return Table(name, columns)


def fact_table_to_sparse(
    table: Table,
    n_entities: int,
    n_items: int,
    entity_key: str,
    item_key: str,
    measure: str,
) -> sparse.csr_matrix:
    """Pivot a fact table into an (entities x items) sparse matrix of measures."""
    rows = np.asarray(table.column(entity_key), dtype=np.int64)
    cols = np.asarray(table.column(item_key), dtype=np.int64)
    vals = np.asarray(table.column(measure), dtype=np.float64)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n_entities, n_items))


def twitter_dataset(
    n_tweets: int = 20_000,
    n_hashtags: int = 1_000,
    density: float = 0.0005,
    seed: int = 7,
) -> Tuple[Catalog, HybridDatasetSpec]:
    """A synthetic Twitter-like dataset.

    Tables
    ------
    ``User``     (id + 5 numeric features)
    ``Tweet``    (id + 7 numeric features) — PK-FK joined with User on id
    ``TweetTag`` (id, hashtag_id, filter_level, text, country) — the fact
                 table from which the ultra-sparse matrix N is pivoted after
                 selecting tweets whose text mentions "covid" and whose
                 country is "US".
    """
    rng = np.random.default_rng(seed)
    user, tweet = _entity_tables(
        rng, n_tweets, "User", TWITTER_USER_FEATURES, "Tweet", TWITTER_TWEET_FEATURES
    )
    tweet_tag = _fact_table(
        rng,
        "TweetTag",
        n_entities=n_tweets,
        n_items=n_hashtags,
        density=density * 4,  # before the text/country selection
        entity_key="id",
        item_key="hashtag_id",
        measure="filter_level",
        measure_values=(1, 2, 3, 4, 5, 6),
        text_column="text",
        text_values=("covid vaccine news", "sports update", "covid cases rising", "weather"),
    )
    country = rng.choice(["US", "FR", "UK"], size=len(tweet_tag), p=[0.5, 0.25, 0.25])
    tweet_tag = Table(
        "TweetTag",
        {
            "id": tweet_tag.column("id"),
            "hashtag_id": tweet_tag.column("hashtag_id"),
            "filter_level": tweet_tag.column("filter_level"),
            "text": tweet_tag.column("text"),
            "country": country,
        },
    )
    catalog = Catalog()
    catalog.register_table(user)
    catalog.register_table(tweet)
    catalog.register_table(tweet_tag)
    spec = HybridDatasetSpec(
        n_entities=n_tweets,
        n_features_left=len(TWITTER_TWEET_FEATURES),
        n_features_right=len(TWITTER_USER_FEATURES),
        n_fact_columns=n_hashtags,
        fact_density=density,
    )
    return catalog, spec


def mimic_dataset(
    n_patients: int = 4_000,
    n_services: int = 3_000,
    density: float = 0.0008,
    seed: int = 11,
) -> Tuple[Catalog, HybridDatasetSpec]:
    """A synthetic MIMIC-like dataset.

    Tables
    ------
    ``Patients``   (id + 20 one-hot / numeric features)
    ``Admissions`` (id + 62 one-hot / numeric features) — joined on id
    ``Callout``    (id, service_id, outcome, care_unit) — the fact table from
                   which N is pivoted after selecting a care unit.
    """
    rng = np.random.default_rng(seed)
    patient_features = tuple(f"p_feat_{i}" for i in range(MIMIC_PATIENT_FEATURES_COUNT))
    admission_features = tuple(f"a_feat_{i}" for i in range(MIMIC_ADMISSION_FEATURES_COUNT))
    patients, admissions = _entity_tables(
        rng, n_patients, "Patients", patient_features, "Admissions", admission_features
    )
    callout = _fact_table(
        rng,
        "Callout",
        n_entities=n_patients,
        n_items=n_services,
        density=density * 3,
        entity_key="id",
        item_key="service_id",
        measure="outcome",
        measure_values=(1, 2, 3),
    )
    care_unit = rng.choice(["CCU", "TSICU", "MICU"], size=len(callout), p=[0.5, 0.3, 0.2])
    callout = Table(
        "Callout",
        {
            "id": callout.column("id"),
            "service_id": callout.column("service_id"),
            "outcome": callout.column("outcome"),
            "care_unit": care_unit,
        },
    )
    catalog = Catalog()
    catalog.register_table(patients)
    catalog.register_table(admissions)
    catalog.register_table(callout)
    spec = HybridDatasetSpec(
        n_entities=n_patients,
        n_features_left=MIMIC_ADMISSION_FEATURES_COUNT,
        n_features_right=MIMIC_PATIENT_FEATURES_COUNT,
        n_fact_columns=n_services,
        fact_density=density,
    )
    return catalog, spec


def register_hybrid_auxiliaries(
    catalog: Catalog, spec: HybridDatasetSpec, seed: int = 3
) -> None:
    """Register the synthetic dense auxiliaries (X, C, u, v, ...) of Table 7.

    Their sizes are derived from the dataset spec exactly as the paper
    derives them from M (n_entities x n_features) and N
    (n_entities x n_fact_columns).
    """
    rng = np.random.default_rng(seed)
    n = spec.n_entities
    f = spec.n_features
    h = spec.n_fact_columns
    catalog.register_dense("Xh", rng.random((h, n)))          # 1000 x 2M in the paper
    catalog.register_dense("Ch", rng.random((n, h)))          # 2M x 1000
    catalog.register_dense("u_feat", rng.random((n, 1)))      # 2M x 1
    catalog.register_dense("v_hash", rng.random((h, 1)))      # 1000 x 1
    catalog.register_dense("u_small", rng.random((f, 1)))     # 12 x 1
    catalog.register_dense("Xf", rng.random((f, n)))          # 12 x 2M
    catalog.register_dense("Cs", rng.random((h, h)))          # square h x h
