"""Metric names and timing summaries shared by every workload."""

from __future__ import annotations

import math
import re
import statistics
from typing import Dict, Optional, Sequence, Tuple

#: a metric name: starts with a letter or digit, at most 64 characters
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: tail percentiles tried, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

#: a percentile is reported only with at least this many samples above it
MIN_BEYOND = 10


def check_name(name: str) -> str:
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}: must match {METRIC_NAME.pattern}")
    return name


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def nearest_rank(sorted_values: Sequence[float], pct: float) -> Tuple[float, int]:
    """The *pct*-th percentile by nearest rank, and how many samples
    lie beyond its rank."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct * n / 100.0 - 1e-9))
    return float(sorted_values[rank - 1]), n - rank


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(pct, value)`` of the highest tail percentile with at least
    :data:`MIN_BEYOND` samples beyond it, or ``None`` when even the
    lowest candidate has too few."""
    ordered = sorted(values)
    for pct in TAIL_PERCENTILES:
        value, beyond = nearest_rank(ordered, pct)
        if beyond >= MIN_BEYOND:
            return pct, value
    return None


def pct_label(pct: float) -> str:
    return f"p{pct:g}".replace(".", "_")


def timing(prefix: str, unit: str, values: Sequence[float]) -> Dict[str, Dict[str, float]]:
    """``<prefix>_p50_<unit>`` plus the highest qualifying tail
    percentile, each with its sample count."""
    out = {f"{prefix}_p50_{unit}": {"value": median(values), "unit": unit, "n": len(values)}}
    t = tail(values)
    if t is not None:
        pct, value = t
        out[f"{prefix}_{pct_label(pct)}_{unit}"] = {"value": value, "unit": unit, "n": len(values)}
    return {check_name(k): v for k, v in out.items()}
