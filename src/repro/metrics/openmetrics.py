"""OpenMetrics v1 text exposition, a minimal parser, and per-rank merging.

The registry's native output is Python objects; this module turns them
into the two interchange forms the tooling consumes:

* **OpenMetrics text** (:func:`render_openmetrics`): the standard
  scrape format -- ``# TYPE`` / ``# HELP`` metadata, ``_total`` counter
  samples, cumulative ``_bucket{le=...}`` histogram samples, terminated
  by ``# EOF``.  :func:`parse_openmetrics` is the matching minimal
  parser used by the round-trip property test and the aggregator.
* **JSON snapshots** (:func:`write_json_snapshot`): the registry's
  :meth:`~repro.metrics.registry.MetricsRegistry.snapshot` payload,
  which keeps gauge high-water marks and per-bucket histogram counts
  that the text format cannot carry.

:class:`MetricsAggregator` merges per-rank (or per-cell) snapshot files
in constant memory: counters and histogram buckets sum, gauges stream
through the same bounded-reservoir statistics the cluster rollup uses,
so merging a thousand rank files costs no more memory than merging two.
"""

from __future__ import annotations

import json
import os
import typing

from repro.metrics.registry import FamilySnapshot, Histogram, MetricsRegistry
from repro.telemetry.rollup import StreamStats

#: Suffix appended to counter sample names, per the OpenMetrics spec.
_COUNTER_SUFFIX = "_total"


def _fmt(value: float) -> str:
    """Exact float formatting: ``repr`` round-trips every finite float."""
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _labels_text(labels: typing.Sequence[tuple[str, str]],
                 extra: "tuple[str, str] | None" = None) -> str:
    items = list(labels)
    if extra is not None:
        items.append(extra)
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in items)
    return "{" + body + "}"


def render_openmetrics(registry: MetricsRegistry) -> str:
    """Render the registry as OpenMetrics v1 text (ending in ``# EOF``)."""
    lines: list[str] = []
    for family in registry.collect():
        lines.append(f"# TYPE {family.name} {family.kind}")
        if family.help:
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        for labels, value in family.samples:
            if isinstance(value, Histogram):
                cum = 0
                for bound, n in zip(value.bounds, value.counts):
                    cum += n
                    lines.append(
                        f"{family.name}_bucket"
                        f"{_labels_text(labels, ('le', _fmt(bound)))} {cum}"
                    )
                cum += value.counts[-1]
                lines.append(
                    f"{family.name}_bucket"
                    f"{_labels_text(labels, ('le', '+Inf'))} {cum}"
                )
                lines.append(
                    f"{family.name}_count{_labels_text(labels)} {value.count}"
                )
                lines.append(
                    f"{family.name}_sum{_labels_text(labels)} {_fmt(value.sum)}"
                )
            else:
                suffix = _COUNTER_SUFFIX if family.kind == "counter" else ""
                lines.append(
                    f"{family.name}{suffix}{_labels_text(labels)} {_fmt(value)}"
                )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(registry: MetricsRegistry,
                      path: "str | os.PathLike") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_openmetrics(registry))


def write_json_snapshot(registry: MetricsRegistry,
                        path: "str | os.PathLike") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(registry.snapshot(), fh, indent=1)


# ---------------------------------------------------------------------------
# Minimal parser (round-trip tests, aggregation of scraped files)
# ---------------------------------------------------------------------------
class ParsedSample(typing.NamedTuple):
    """One exposition line: resolved family, sample suffix, labels, value."""

    family: str
    suffix: str  # "", "_total", "_bucket", "_count", "_sum"
    labels: tuple[tuple[str, str], ...]
    value: float


def _parse_labels(text: str) -> tuple[tuple[str, str], ...]:
    out: list[tuple[str, str]] = []
    i = 0
    while i < len(text):
        eq = text.index("=", i)
        name = text[i:eq]
        if text[eq + 1] != '"':
            raise ValueError(f"malformed label value near {text[eq:]!r}")
        j = eq + 2
        buf: list[str] = []
        while text[j] != '"':
            ch = text[j]
            if ch == "\\":
                nxt = text[j + 1]
                buf.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, nxt))
                j += 2
            else:
                buf.append(ch)
                j += 1
        out.append((name, "".join(buf)))
        i = j + 1
        if i < len(text) and text[i] == ",":
            i += 1
    return tuple(out)


def parse_openmetrics(text: str) -> "dict[str, dict[str, object]]":
    """Parse exposition text back into ``{family: {kind, help, samples}}``.

    ``samples`` maps ``(suffix, labels)`` (labels sorted, ``le`` included
    for buckets) to the float value.  Only the subset of OpenMetrics the
    renderer emits is supported -- that is the point: the pair forms a
    round trip, which the hypothesis property test exercises.
    """
    families: dict[str, dict[str, object]] = {}
    saw_eof = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            families[name] = {"kind": kind, "help": "", "samples": {}}
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            if name in families:
                families[name]["help"] = (
                    help_text.replace("\\n", "\n").replace("\\\\", "\\")
                )
            continue
        if line.startswith("#"):
            continue
        # Sample line: name{labels} value
        if "{" in line:
            name_part, _, rest = line.partition("{")
            label_text, _, value_text = rest.rpartition("} ")
            labels = _parse_labels(label_text)
        else:
            name_part, _, value_text = line.rpartition(" ")
            labels = ()
        family, suffix = _resolve_family(name_part, families)
        value = float(value_text)
        samples = typing.cast("dict", families[family]["samples"])
        samples[(suffix, tuple(sorted(labels)))] = value
    if not saw_eof:
        raise ValueError("exposition text does not end with # EOF")
    return families


def _resolve_family(sample_name: str,
                    families: "dict[str, dict[str, object]]") -> tuple[str, str]:
    """Map a sample name to its (family, suffix) via the TYPE metadata."""
    if sample_name in families and (
        typing.cast("dict", families[sample_name])["kind"] == "gauge"
    ):
        return sample_name, ""
    for suffix in (_COUNTER_SUFFIX, "_bucket", "_count", "_sum"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if base in families:
                return base, suffix
    if sample_name in families:  # e.g. an untyped or gauge-like family
        return sample_name, ""
    raise ValueError(f"sample {sample_name!r} matches no declared family")


# ---------------------------------------------------------------------------
# Constant-memory per-rank aggregation
# ---------------------------------------------------------------------------
class MetricsAggregator:
    """Streaming merger of JSON metric snapshots (one file in memory at
    a time).

    Counters and histogram buckets add; gauges fold into
    :class:`~repro.telemetry.rollup.StreamStats` (bounded reservoir:
    min / max / mean / percentiles are exact up to ``sample_cap``
    contributors, constant memory beyond).  ``drop_labels`` (default:
    ``rank``) removes per-contributor labels before merging so the same
    metric from every rank lands in one aggregate row.
    """

    def __init__(self, sample_cap: int = 128,
                 drop_labels: typing.Sequence[str] = ("rank",)) -> None:
        self.sample_cap = sample_cap
        self.drop_labels = frozenset(drop_labels)
        self.nfiles = 0
        self._kinds: dict[str, str] = {}
        self._help: dict[str, str] = {}
        self._counters: dict[tuple, float] = {}
        self._gauges: dict[tuple, StreamStats] = {}
        self._gauge_hiwater: dict[tuple, float] = {}
        self._hists: dict[tuple, dict[str, object]] = {}

    def _key(self, name: str, labels: dict[str, str]) -> tuple:
        kept = tuple(sorted(
            (k, v) for k, v in labels.items() if k not in self.drop_labels
        ))
        return (name, kept)

    def add_snapshot(self, payload: dict[str, object], tag: int = -1) -> None:
        """Fold one registry snapshot in (``tag`` labels reservoir extrema)."""
        if payload.get("format_version") != 1:
            raise ValueError(
                f"unsupported metrics snapshot version "
                f"{payload.get('format_version')!r}"
            )
        self.nfiles += 1
        metrics = typing.cast("dict[str, dict]", payload["metrics"])
        for name, family in metrics.items():
            kind = family["kind"]
            known = self._kinds.setdefault(name, kind)
            if known != kind:
                raise ValueError(
                    f"metric {name!r} is {known} in one file, {kind} in another"
                )
            if family.get("help") and name not in self._help:
                self._help[name] = family["help"]
            for entry in family["samples"]:
                key = self._key(name, entry.get("labels", {}))
                if kind == "counter":
                    self._counters[key] = (
                        self._counters.get(key, 0.0) + float(entry["value"])
                    )
                elif kind == "gauge":
                    stats = self._gauges.get(key)
                    if stats is None:
                        stats = self._gauges[key] = StreamStats(self.sample_cap)
                    stats.add(float(entry["value"]), tag)
                    hw = float(entry.get("high_water", entry["value"]))
                    if hw > self._gauge_hiwater.get(key, float("-inf")):
                        self._gauge_hiwater[key] = hw
                else:  # histogram
                    hist = self._hists.get(key)
                    if hist is None:
                        hist = self._hists[key] = {
                            "bounds": list(entry["bounds"]),
                            "buckets": [0] * len(entry["buckets"]),
                            "sum": 0.0,
                            "count": 0,
                        }
                    if hist["bounds"] != list(entry["bounds"]):
                        raise ValueError(
                            f"histogram {name!r} bucket bounds differ "
                            "across files; cannot merge"
                        )
                    hist["buckets"] = [
                        a + b for a, b in zip(hist["buckets"], entry["buckets"])
                    ]
                    hist["sum"] = typing.cast(float, hist["sum"]) + float(
                        entry["sum"]
                    )
                    hist["count"] = typing.cast(int, hist["count"]) + int(
                        entry["count"]
                    )

    def add_file(self, path: "str | os.PathLike", tag: int = -1) -> None:
        with open(path, "r", encoding="utf-8") as fh:
            self.add_snapshot(json.load(fh), tag)

    def result(self) -> dict[str, object]:
        """Aggregate payload (JSON-ready): one row per merged metric."""
        if not self.nfiles:
            raise ValueError("no snapshots added to the aggregator")

        def rows(keys: typing.Iterable[tuple]) -> typing.Iterator[tuple]:
            for name, labels in sorted(keys):
                yield (name, labels)

        counters = [
            {"name": name, "labels": dict(labels),
             "value": self._counters[(name, labels)]}
            for name, labels in rows(self._counters)
        ]
        gauges = []
        for name, labels in rows(self._gauges):
            st = self._gauges[(name, labels)]
            p50, p95 = st.quantiles((0.5, 0.95))
            gauges.append({
                "name": name, "labels": dict(labels),
                "min": st.min, "max": st.max, "mean": st.mean,
                "p50": p50, "p95": p95,
                "high_water": self._gauge_hiwater[(name, labels)],
                "contributors": st.count,
            })
        histograms = [
            {"name": name, "labels": dict(labels),
             **self._hists[(name, labels)]}
            for name, labels in rows(self._hists)
        ]
        return {
            "format_version": 1,
            "nfiles": self.nfiles,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def save(self, path: "str | os.PathLike") -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.result(), fh, indent=1)


def aggregate_files(paths: typing.Sequence["str | os.PathLike"],
                    sample_cap: int = 128) -> MetricsAggregator:
    """Merge JSON snapshot files, one at a time (constant memory)."""
    agg = MetricsAggregator(sample_cap=sample_cap)
    for i, path in enumerate(paths):
        agg.add_file(path, tag=i)
    return agg
