"""``compare BASE.json NEW.json``: a verdict per workload and metric.

End-to-end metrics are judged against ``BENCHMARK.json``'s bounds.  A
metric whose run-to-run spread (interquartile distance over median) on
either side is wider than its bound is ``unresolved``, unless every run
of one side beats every run of the other.  Otherwise the medians decide:
``worse`` or ``improved`` past the bound, ``unchanged`` within it.
Per-layer counts must repeat exactly; any other per-layer metric is
shown, not judged.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from .stats import spread, summarize


def verdict(base: Sequence[float], new: Sequence[float], bound: float,
            better: str) -> Tuple[str, float]:
    """(verdict, signed change of the median as a share of the base's)."""
    b, n = summarize(base), summarize(new)
    change = (n["median"] - b["median"]) / abs(b["median"]) if b["median"] else 0.0
    worse_by = change if better == "lower" else -change

    def beats(x: float, y: float) -> bool:
        return x < y if better == "lower" else x > y

    if max(spread(b), spread(n)) > bound:
        if all(beats(x, y) for x in new for y in base):
            return "improved", change
        if all(beats(y, x) for x in new for y in base):
            return "worse", change
        return "unresolved", change
    if worse_by > bound:
        return "worse", change
    if worse_by < -bound:
        return "improved", change
    return "unchanged", change


def compare(base: Dict[str, Any], new: Dict[str, Any],
            bench: Dict[str, Any]) -> Tuple[List[str], int]:
    """Rendered rows and the number of regressions."""
    rows: List[str] = []
    regressions = 0
    for workload in sorted(set(base["workloads"]) & set(new["workloads"])):
        old_w, new_w = base["workloads"][workload], new["workloads"][workload]
        cells = []
        if not new_w["correct"] or new_w["failed"] > old_w["failed"]:
            regressions += 1
            cells.append(f"outputs WORSE (correct={new_w['correct']}, "
                         f"failed {old_w['failed']} -> {new_w['failed']})")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            if name not in old_w.get("metrics", {}) or name not in new_w.get("metrics", {}):
                continue
            result, change = verdict(
                old_w["metrics"][name]["values"], new_w["metrics"][name]["values"],
                metric["bound"], metric["better"],
            )
            regressions += result == "worse"
            cells.append(f"{name} {result} ({change:+.1%})")
        for metric in bench["per_layer"]:
            name = metric["name"]
            old_v = old_w.get("layers", {}).get(name)
            new_v = new_w.get("layers", {}).get(name)
            if metric["unit"] == "count" and old_v is not None and new_v is not None \
                    and old_v != new_v:
                cells.append(f"{name} changed ({old_v} -> {new_v})")
        rows.append(f"{workload}: " + "; ".join(cells))
    return rows, regressions
