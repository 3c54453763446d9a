"""Gateway metrics: counters, gauges and histograms with a text exposition.

The gateway's observability surface is deliberately Prometheus-shaped —
monotonic :class:`Counter` series, point-in-time :class:`Gauge` values and
cumulative-bucket :class:`Histogram` distributions, rendered by
:meth:`MetricsRegistry.render` in the classic ``# TYPE`` / ``name value``
text format — but implemented on the stdlib only, because the gateway must
not pull in dependencies the planner does not already have.

Labels
------
Instruments may carry **labels** (``registry.counter(name, help,
labels={"workspace": "tenant-a"})``), which is how the multi-tenant gateway
keeps per-workspace series apart.  Label handling follows the Prometheus
exposition rules exactly:

* one instrument per *(metric name, label set)* — asking twice returns the
  same object, so no duplicate series can be created;
* labels are rendered **sorted by label name**, so the series identity is
  canonical regardless of dict ordering at the call site;
* label values are **escaped** (``\\`` → ``\\\\``, ``"`` → ``\\"``,
  newline → ``\\n``), so a hostile workspace name cannot corrupt the
  exposition;
* ``# HELP`` / ``# TYPE`` are emitted once per metric *family*, with every
  labeled series beneath, and one metric name cannot be registered as two
  different instrument kinds.

Thread safety: every instrument shares its registry's lock.  Observations
come both from the event loop (admission, protocol errors) and from worker
threads inside :meth:`repro.service.AnalyticsService.submit_many` (batch
hooks), so the lock is not optional.  All operations are O(1) and the lock
is held for nanoseconds; the registry is nowhere near the serving hot path's
critical section.
"""

from __future__ import annotations

import re
import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

#: Default latency buckets (seconds): 0.5ms .. 8s, doubling.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.002, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.0, 4.0, 8.0,
)

#: Default batch-size buckets (requests per service batch).
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: A normalized label set: ``((name, value), ...)`` sorted by label name.
LabelItems = Tuple[Tuple[str, str], ...]

Labels = Union[None, Mapping[str, object], Sequence[Tuple[str, object]]]

_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _normalize_labels(labels: Labels) -> LabelItems:
    """Sort, stringify and validate a label mapping into the canonical form.

    Sorting here makes the label set the series identity: two call sites
    naming the same labels in different orders get the same instrument, so
    the exposition can never contain the same series twice under two
    spellings.
    """
    if not labels:
        return ()
    pairs = labels.items() if isinstance(labels, Mapping) else labels
    items = tuple(sorted((str(key), str(value)) for key, value in pairs))
    seen = set()
    for key, _ in items:
        if not _LABEL_NAME.match(key):
            raise ValueError(f"invalid label name {key!r}")
        if key in seen:
            raise ValueError(f"duplicate label name {key!r}")
        seen.add(key)
    return items


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _label_string(labels: LabelItems, extra: str = "") -> str:
    """Render ``{a="x",b="y"}`` (labels are already sorted), or ``""``.

    ``extra`` appends one pre-rendered ``key="value"`` pair (the histogram
    ``le`` bound, which Prometheus renders last by convention).
    """
    parts = [f'{key}="{_escape_label_value(value)}"' for key, value in labels]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


def series_name(name: str, labels: LabelItems) -> str:
    """The canonical full series name, e.g. ``requests{workspace="a"}``."""
    return name + _label_string(labels)


class Counter:
    """A monotonically increasing counter (optionally labeled)."""

    def __init__(
        self, name: str, help_text: str, lock: threading.Lock, labels: LabelItems = ()
    ):
        self.name = name
        self.help_text = help_text
        self.labels = labels
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down, tracking its observed maximum.

    The maximum matters to the gateway: ``gateway_in_flight_requests`` is
    sampled at scrape time, but what a client storm is judged by is the
    *peak* concurrency sustained, which a scrape can miss entirely.
    """

    def __init__(
        self, name: str, help_text: str, lock: threading.Lock, labels: LabelItems = ()
    ):
        self.name = name
        self.help_text = help_text
        self.labels = labels
        self._lock = lock
        self._value = 0.0
        self._max = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value
            if value > self._max:
                self._max = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount
            if self._value > self._max:
                self._max = self._value

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    @property
    def max_value(self) -> float:
        with self._lock:
            return self._max


class Histogram:
    """A cumulative-bucket histogram (Prometheus semantics).

    ``buckets`` are upper bounds; an observation lands in every bucket whose
    bound is >= the value, plus the implicit ``+Inf`` bucket.  ``sum`` and
    ``count`` allow mean computation; ``max`` is kept because tail behaviour
    (the largest batch, the slowest request) is what the benchmarks
    assert on.
    """

    def __init__(
        self,
        name: str,
        help_text: str,
        lock: threading.Lock,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
        labels: LabelItems = (),
    ):
        self.name = name
        self.help_text = help_text
        self.labels = labels
        self._lock = lock
        self.buckets: Tuple[float, ...] = tuple(sorted(float(b) for b in buckets))
        self._counts = [0] * (len(self.buckets) + 1)  # +Inf last
        self._sum = 0.0
        self._max = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            if value > self._max:
                self._max = value
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[index] += 1
                    return
            self._counts[-1] += 1

    def snapshot(self) -> dict:
        """JSON-ready state: cumulative bucket counts, sum, count, max, mean."""
        with self._lock:
            cumulative: List[int] = []
            running = 0
            for raw in self._counts[:-1]:
                running += raw
                cumulative.append(running)
            total = running + self._counts[-1]
            return {
                "buckets": {
                    str(bound): cum for bound, cum in zip(self.buckets, cumulative)
                },
                "sum": self._sum,
                "count": total,
                "max": self._max,
                "mean": self._sum / total if total else 0.0,
            }


class _Family:
    """All series of one metric name: the kind, the help, the instruments."""

    __slots__ = ("kind", "help_text", "instruments")

    def __init__(self, kind: str, help_text: str):
        self.kind = kind
        self.help_text = help_text
        self.instruments: "Dict[LabelItems, object]" = {}


class MetricsRegistry:
    """Creates and renders the gateway's instruments.

    One registry per gateway; instruments are created idempotently by
    *(name, label set)* — asking twice returns the same object — so two
    components can reference one series without plumbing, and
    per-workspace series never duplicate.  One metric
    name is one instrument kind; re-registering a name as a different kind
    raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    # ------------------------------------------------------------- factories
    def _instrument(self, kind: str, name: str, help_text: str, labels: Labels, build):
        label_items = _normalize_labels(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(kind, help_text)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} is already registered as a "
                    f"{family.kind}, cannot re-register it as a {kind}"
                )
            elif not family.help_text and help_text:
                family.help_text = help_text
            instrument = family.instruments.get(label_items)
            if instrument is None:
                instrument = build(label_items)
                family.instruments[label_items] = instrument
            return instrument

    def counter(self, name: str, help_text: str = "", labels: Labels = None) -> Counter:
        return self._instrument(
            "counter",
            name,
            help_text,
            labels,
            lambda items: Counter(name, help_text, self._lock, labels=items),
        )

    def gauge(self, name: str, help_text: str = "", labels: Labels = None) -> Gauge:
        return self._instrument(
            "gauge",
            name,
            help_text,
            labels,
            lambda items: Gauge(name, help_text, self._lock, labels=items),
        )

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Optional[Sequence[float]] = None,
        labels: Labels = None,
    ) -> Histogram:
        return self._instrument(
            "histogram",
            name,
            help_text,
            labels,
            lambda items: Histogram(
                name,
                help_text,
                self._lock,
                buckets=buckets if buckets is not None else DEFAULT_TIME_BUCKETS,
                labels=items,
            ),
        )

    def remove_series(self, name: str, labels: Labels = None) -> bool:
        """Drop one series (the *(name, label set)* instrument) if present.

        Used on tenant churn: a removed workspace's labeled series must
        leave the exposition instead of rendering stale values forever.
        An emptied family disappears entirely (no orphan HELP/TYPE block).
        Returns whether a series was removed.
        """
        label_items = _normalize_labels(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return False
            removed = family.instruments.pop(label_items, None) is not None
            if removed and not family.instruments:
                del self._families[name]
            return removed

    # ------------------------------------------------------------- iteration
    def _sorted_families(self, kind: str) -> List[Tuple[str, _Family]]:
        return sorted(
            (item for item in self._families.items() if item[1].kind == kind),
            key=lambda item: item[0],
        )

    @staticmethod
    def _sorted_series(family: _Family) -> List[object]:
        return [family.instruments[key] for key in sorted(family.instruments)]

    # ------------------------------------------------------------- exposition
    def render(self) -> str:
        """Prometheus text exposition: one HELP/TYPE per family, sorted series."""
        lines: List[str] = []
        for name, family in self._sorted_families("counter"):
            lines.append(f"# HELP {name} {_escape_help(family.help_text)}")
            lines.append(f"# TYPE {name} counter")
            for counter in self._sorted_series(family):
                lines.append(
                    f"{name}{_label_string(counter.labels)} {_format(counter.value)}"
                )
        for name, family in self._sorted_families("gauge"):
            lines.append(f"# HELP {name} {_escape_help(family.help_text)}")
            lines.append(f"# TYPE {name} gauge")
            for gauge in self._sorted_series(family):
                label_string = _label_string(gauge.labels)
                lines.append(f"{name}{label_string} {_format(gauge.value)}")
                lines.append(f"{name}_max{label_string} {_format(gauge.max_value)}")
        for name, family in self._sorted_families("histogram"):
            lines.append(f"# HELP {name} {_escape_help(family.help_text)}")
            lines.append(f"# TYPE {name} histogram")
            for histogram in self._sorted_series(family):
                snap = histogram.snapshot()
                for bound, cumulative in snap["buckets"].items():
                    bucket_labels = _label_string(
                        histogram.labels, extra=f'le="{bound}"'
                    )
                    lines.append(f"{name}_bucket{bucket_labels} {cumulative}")
                inf_labels = _label_string(histogram.labels, extra='le="+Inf"')
                label_string = _label_string(histogram.labels)
                lines.append(f'{name}_bucket{inf_labels} {snap["count"]}')
                lines.append(f"{name}_sum{label_string} {_format(snap['sum'])}")
                lines.append(f"{name}_count{label_string} {snap['count']}")
                lines.append(f"{name}_max{label_string} {_format(snap['max'])}")
        return "\n".join(lines) + "\n"

    def as_dict(self) -> dict:
        """JSON-ready snapshot (the shape the benchmarks and tests consume).

        Unlabeled instruments keep their bare name as the key; labeled ones
        use the full canonical series name (``name{workspace="a"}``).
        """
        counters: Dict[str, float] = {}
        gauges: Dict[str, dict] = {}
        histograms: Dict[str, dict] = {}
        for name, family in self._sorted_families("counter"):
            for counter in self._sorted_series(family):
                counters[series_name(name, counter.labels)] = counter.value
        for name, family in self._sorted_families("gauge"):
            for gauge in self._sorted_series(family):
                gauges[series_name(name, gauge.labels)] = {
                    "value": gauge.value,
                    "max": gauge.max_value,
                }
        for name, family in self._sorted_families("histogram"):
            for histogram in self._sorted_series(family):
                histograms[series_name(name, histogram.labels)] = histogram.snapshot()
        return {"counters": counters, "gauges": gauges, "histograms": histograms}


def _format(value: float) -> str:
    """Render integers without a trailing ``.0`` (Prometheus style)."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


__all__ = [
    "Counter",
    "DEFAULT_SIZE_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "series_name",
]
