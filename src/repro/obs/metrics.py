"""Engine-wide metrics: named counters, gauges, and histograms.

Every engine counts into one :class:`MetricsRegistry` under dotted
metric names (``prove.sigma_goals``, ``model.cache_hits``, ...); the
registry is the only place work counters are read.

Design constraints (the hot paths run millions of increments):

* a :class:`Counter` is a ``__slots__`` cell; engines look it up once
  at construction and then do ``counter.value += 1`` — the cost of a
  plain attribute increment;
* the registry itself is only touched at setup, snapshot, and merge
  time, never inside evaluation loops;
* no dependencies beyond the standard library.

The canonical metric names are catalogued in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
from typing import Iterator, Mapping, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

Number = Union[int, float]


class Counter:
    """A monotonically growing count.  Increment via ``.value += n``
    on hot paths or :meth:`inc` elsewhere."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value (search depth, cache size, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def set(self, value: Number) -> None:
        self.value = value

    def set_max(self, value: Number) -> None:
        if value > self.value:
            self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Streaming summary of observed values (count/total/min/max).

    Deliberately not bucketed: the engines observe quantities like
    per-model fixpoint sizes where a four-number summary answers the
    tuning questions and costs O(1) memory.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = 0.0
        self.max = 0.0

    def observe(self, value: Number) -> None:
        if self.count == 0:
            self.min = self.max = float(value)
        else:
            if value < self.min:
                self.min = float(value)
            if value > self.max:
                self.max = float(value)
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}: n={self.count}, mean={self.mean:.3g})"


class MetricsRegistry:
    """A namespace of counters, gauges, and histograms.

    ``counter``/``gauge``/``histogram`` get-or-create by name, so
    independent components agreeing on a name share the instrument.
    A name may not be registered as two different kinds.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- registration --------------------------------------------------

    def counter(self, name: str) -> Counter:
        found = self._counters.get(name)
        if found is None:
            self._check_free(name, self._counters)
            found = self._counters[name] = Counter(name)
        return found

    def gauge(self, name: str) -> Gauge:
        found = self._gauges.get(name)
        if found is None:
            self._check_free(name, self._gauges)
            found = self._gauges[name] = Gauge(name)
        return found

    def histogram(self, name: str) -> Histogram:
        found = self._histograms.get(name)
        if found is None:
            self._check_free(name, self._histograms)
            found = self._histograms[name] = Histogram(name)
        return found

    def _check_free(self, name: str, own: Mapping[str, object]) -> None:
        for kind in (self._counters, self._gauges, self._histograms):
            if kind is not own and name in kind:
                raise ValueError(
                    f"metric {name!r} already registered as a different kind"
                )

    # -- reading -------------------------------------------------------

    def __iter__(self) -> Iterator[Union[Counter, Gauge, Histogram]]:
        yield from self._counters.values()
        yield from self._gauges.values()
        yield from self._histograms.values()

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def snapshot(self, *, zeros: bool = True) -> dict[str, object]:
        """All metric values keyed by name, sorted for stable output.

        Counters and gauges map to numbers, histograms to their summary
        dict.  ``zeros=False`` drops never-touched instruments.
        """
        values: dict[str, object] = {}
        for name, counter in self._counters.items():
            if zeros or counter.value:
                values[name] = counter.value
        for name, gauge in self._gauges.items():
            if zeros or gauge.value:
                values[name] = gauge.value
        for name, histogram in self._histograms.items():
            if zeros or histogram.count:
                values[name] = histogram.summary()
        return dict(sorted(values.items()))

    def to_json(self, **kwargs: object) -> str:
        return json.dumps(self.snapshot(**kwargs), indent=2, sort_keys=True)

    def render_table(self, *, zeros: bool = False) -> str:
        """Aligned two-column summary, the CLI/REPL metrics table."""
        rows: list[tuple[str, str]] = []
        for name, value in self.snapshot(zeros=zeros).items():
            if isinstance(value, dict):
                text = (
                    f"n={value['count']} mean={value['mean']:.3g} "
                    f"min={value['min']:.3g} max={value['max']:.3g}"
                )
            else:
                text = str(value)
            rows.append((name, text))
        if not rows:
            return "(no metrics recorded)"
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {text}" for name, text in rows)

    # -- lifecycle -----------------------------------------------------

    def reset(self) -> None:
        """Zero every instrument *in place* (engines keep their bound
        references, so the objects must survive)."""
        for counter in self._counters.values():
            counter.value = 0
        for gauge in self._gauges.values():
            gauge.value = 0
        for histogram in self._histograms.values():
            histogram.count = 0
            histogram.total = 0.0
            histogram.min = 0.0
            histogram.max = 0.0

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (counters add, gauges
        take the max, histograms combine)."""
        for name, counter in other._counters.items():
            self.counter(name).value += counter.value
        for name, gauge in other._gauges.items():
            self.gauge(name).set_max(gauge.value)
        for name, histogram in other._histograms.items():
            own = self.histogram(name)
            if histogram.count:
                if own.count == 0:
                    own.min, own.max = histogram.min, histogram.max
                else:
                    own.min = min(own.min, histogram.min)
                    own.max = max(own.max, histogram.max)
                own.count += histogram.count
                own.total += histogram.total

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self)} metrics)"
