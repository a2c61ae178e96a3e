"""Compare the metrics of two benchmark records.

    python3 perfbench/compare.py perfbench/results/sweep-fifo-seed1-trace0.json other.json

Each record is a file ``run.py`` writes under ``perfbench/results/``.
Records of different workloads, or taken at different parallelism
(the host's ``comparable_key``: the ``jobs`` value and core count),
are reported as not comparable and no ratios are printed.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional, Sequence


def not_comparable(a: Dict[str, Any], b: Dict[str, Any]) -> Optional[str]:
    """Why records *a* and *b* cannot be compared, or ``None``."""
    if a["workload"] != b["workload"]:
        return f"workloads differ: {a['workload']} vs {b['workload']}"
    if a["trace"] != b["trace"]:
        return "one record is traced and the other is not"
    ka, kb = a["host"]["comparable_key"], b["host"]["comparable_key"]
    if ka != kb:
        return f"parallelism differs: {ka} vs {kb}"
    return None


def rows(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    out = []
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        out.append(f"{name:40s} {ma['value']:14.6g} {mb['value']:14.6g} {ratio:8.4f}  {ma['unit']}")
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = (json.loads(open(path).read()) for path in args)
    reason = not_comparable(a, b)
    if reason is not None:
        print(f"not comparable: {reason}")
        return 1
    print(f"{'metric':40s} {'first':>14s} {'second':>14s} {'ratio':>8s}")
    print("\n".join(rows(a, b)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
