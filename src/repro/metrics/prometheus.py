"""Prometheus text exposition v0.0.4: rendering and a validating parser.

:func:`render` turns the repro metric surfaces — monotone counters from
the resilience bus, point-in-time gauges from the serving daemon, and
the log-bucketed :class:`~repro.obs.histo.Histogram` distributions —
into the plain-text format every Prometheus scraper (and ``promtool``)
understands, with no client library. Rates are the scraper's job:
``rate()`` over the ``_total`` counters.

Histograms translate natively: our buckets are half-open geometric
intervals with fixed boundaries, so the cumulative ``_bucket{le="hi"}``
series is a running sum over the sparse buckets in index order, the
underflow bucket (samples ``<= 0``) becomes ``le="0"``, and ``+Inf``
closes the series at the total count — exactly the invariants
:func:`parse_exposition` checks. Dotted repro names map to the
Prometheus grammar by s/[.-]/_/ under a ``repro_`` namespace prefix.

:func:`parse_exposition` is the consumer-side half: a strict parser
used by the serve load harness, the serve tests, and CI to prove the
endpoint emits well-formed exposition (sample syntax, label escaping,
bucket monotonicity, ``+Inf`` == ``_count``) rather than merely
200-OK text.
"""

from __future__ import annotations

import math
import re

from repro.obs.histo import _UNDERFLOW, Histogram, bucket_bounds

#: Namespace prefix for every rendered metric family.
PREFIX = "repro_"

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<ts>-?\d+))?$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def metric_name(name: str) -> str:
    """Map a dotted repro metric name onto the Prometheus grammar."""
    clean = re.sub(r"[^a-zA-Z0-9_:]", "_", name.replace(".", "_"))
    if not clean.startswith(PREFIX):
        clean = PREFIX + clean
    return clean


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def _labels(labels: dict | None) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_escape(val)}"' for key, val in labels.items())
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render(
    counters: dict[str, int] | None = None,
    gauges: dict | None = None,
    histograms: dict[str, Histogram] | None = None,
    info: dict[str, str] | None = None,
) -> str:
    """One scrape body. All sections optional; families sorted by name.

    ``counters`` get the ``_total`` suffix and ``counter`` type;
    ``gauges`` map name → value, or name → list of ``(labels, value)``
    pairs for labeled series (job-state counts, per-tenant queue
    depths); ``histograms`` render as native cumulative ``_bucket``
    series; ``info`` becomes the conventional always-1 info gauge
    carrying identity labels (run id, version).
    """
    lines: list[str] = []

    if info:
        name = PREFIX + "serve_info"
        lines.append(f"# HELP {name} Serving daemon identity labels.")
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name}{_labels(info)} 1")

    for raw in sorted(counters or {}):
        name = metric_name(raw) + "_total"
        lines.append(f"# HELP {name} Monotone counter {raw}.")
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {_fmt(counters[raw])}")

    for raw in sorted(gauges or {}):
        value = gauges[raw]
        name = metric_name(raw)
        lines.append(f"# HELP {name} Gauge {raw}.")
        lines.append(f"# TYPE {name} gauge")
        if isinstance(value, list):
            for labels, point in value:
                lines.append(f"{name}{_labels(labels)} {_fmt(point)}")
        else:
            lines.append(f"{name} {_fmt(value)}")

    for raw in sorted(histograms or {}):
        histogram = histograms[raw]
        name = metric_name(raw)
        unit = f" ({histogram.unit})" if histogram.unit else ""
        lines.append(f"# HELP {name} Distribution {raw}{unit}.")
        lines.append(f"# TYPE {name} histogram")
        cumulative = 0
        for index in sorted(histogram.counts):
            cumulative += histogram.counts[index]
            le = "0" if index == _UNDERFLOW else _fmt(bucket_bounds(index)[1])
            lines.append(f'{name}_bucket{{le="{le}"}} {cumulative}')
        lines.append(f'{name}_bucket{{le="+Inf"}} {histogram.count}')
        lines.append(f"{name}_sum {_fmt(histogram.total)}")
        lines.append(f"{name}_count {histogram.count}")

    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# validating parser

def _parse_value(token: str) -> float:
    if token == "+Inf":
        return math.inf
    if token == "-Inf":
        return -math.inf
    if token == "NaN":
        return math.nan
    return float(token)


def parse_exposition(text: str) -> dict[str, dict]:
    """Parse a scrape body; raise ``ValueError`` on any malformation.

    Returns ``{family: {"type": ..., "help": ..., "samples":
    [(name, labels, value), ...]}}`` where histogram samples (bucket /
    sum / count) group under their base family name. Beyond syntax,
    enforces the histogram contract: bucket counts non-decreasing in
    ``le`` order, a ``+Inf`` bucket present and equal to ``_count``.
    """
    families: dict[str, dict] = {}

    def family_of(sample_name: str) -> str:
        for suffix in ("_bucket", "_sum", "_count", "_total"):
            base = sample_name.removesuffix(suffix)
            if base != sample_name and base in families:
                return base
        return sample_name

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(None, 3)
            if len(parts) < 3:
                raise ValueError(f"line {lineno}: malformed HELP")
            name = parts[2]
            families.setdefault(name, {"type": None, "help": None, "samples": []})
            families[name]["help"] = parts[3] if len(parts) > 3 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE")
            _, _, name, kind = parts
            if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                raise ValueError(f"line {lineno}: unknown type {kind!r}")
            family = name.removesuffix("_total") if kind == "counter" else name
            if name not in families and family in families:
                name = family
            families.setdefault(name, {"type": None, "help": None, "samples": []})
            families[name]["type"] = kind
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE.match(line.strip())
        if match is None:
            raise ValueError(f"line {lineno}: unparseable sample {line!r}")
        sample_name = match.group("name")
        if not _NAME_OK.match(sample_name):
            raise ValueError(f"line {lineno}: bad metric name {sample_name!r}")
        raw_labels = match.group("labels")
        labels: dict[str, str] = {}
        if raw_labels:
            consumed = 0
            for found in _LABEL.finditer(raw_labels):
                labels[found.group(1)] = (
                    found.group(2)
                    .replace(r"\n", "\n")
                    .replace(r"\"", '"')
                    .replace(r"\\", "\\")
                )
                consumed += len(found.group(0))
            stripped = re.sub(r"[,\s]", "", raw_labels)
            parsed = re.sub(r"[,\s]", "", "".join(
                found.group(0) for found in _LABEL.finditer(raw_labels)
            ))
            if stripped != parsed:
                raise ValueError(f"line {lineno}: malformed labels {raw_labels!r}")
        try:
            value = _parse_value(match.group("value"))
        except ValueError:
            raise ValueError(
                f"line {lineno}: bad value {match.group('value')!r}"
            ) from None
        base = None
        for suffix in ("_bucket", "_sum", "_count", "_total"):
            candidate = sample_name.removesuffix(suffix)
            if candidate != sample_name and candidate in families:
                base = candidate
                break
        if base is None:
            if sample_name in families:
                base = sample_name
            else:
                raise ValueError(
                    f"line {lineno}: sample {sample_name!r} has no TYPE"
                )
        families[base]["samples"].append((sample_name, labels, value))

    for name, family in families.items():
        if family["type"] == "histogram":
            buckets = [
                (labels.get("le"), value)
                for sample_name, labels, value in family["samples"]
                if sample_name == name + "_bucket"
            ]
            if not buckets:
                raise ValueError(f"histogram {name}: no buckets")
            if buckets[-1][0] != "+Inf":
                raise ValueError(f"histogram {name}: missing +Inf bucket")
            previous = -math.inf
            for le, value in buckets:
                if le is None:
                    raise ValueError(f"histogram {name}: bucket without le")
                if value < previous:
                    raise ValueError(
                        f"histogram {name}: bucket counts decrease at le={le}"
                    )
                previous = value
            counts = [
                value
                for sample_name, _labels, value in family["samples"]
                if sample_name == name + "_count"
            ]
            if not counts or counts[0] != buckets[-1][1]:
                raise ValueError(f"histogram {name}: _count != +Inf bucket")
    return families
