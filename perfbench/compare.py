"""Compare two sets of benchmark records written by ``run.py --out``.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

For each workload in both sets it first says whether the environment
fingerprints differ -- a delta between different environments is not a
change of the code -- and then, per end-to-end metric, prints both
medians, the change, the base set's quartile spread and the verdict
against the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

from fingerprint import differences

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> Dict[str, List[dict]]:
    """Untraced records by workload."""
    records: Dict[str, List[dict]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            if not record["trace"]:
                records.setdefault(record["workload"], []).append(record)
    return records


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median (0 below two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def fingerprint_lines(base: List[dict], new: List[dict]) -> List[str]:
    lines = []
    for label, group in (("base", base), ("new", new)):
        for record in group[1:]:
            for diff in differences(group[0]["fingerprint"], record["fingerprint"]):
                lines.append(f"fingerprints differ within {label}: {diff}")
    for diff in differences(base[0]["fingerprint"], new[0]["fingerprint"]):
        lines.append(f"fingerprints differ between base and new: {diff}")
    return lines


def compare(base_path: str, new_path: str, spec: Optional[dict] = None) -> List[str]:
    spec = spec or json.loads(SPEC.read_text())
    base, new = load(base_path), load(new_path)
    out: List[str] = []
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in new:
            continue
        out.append(f"== {workload}: {len(base[workload])} base runs, {len(new[workload])} new runs")
        warnings = fingerprint_lines(base[workload], new[workload])
        out.extend(f"WARNING {line}" for line in warnings)
        if warnings:
            out.append("WARNING the deltas below mix environments")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in base[workload]]
            b = [r["metrics"][name]["value"] for r in new[workload]]
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma
            worse = change if metric["better"] == "lower" else -change
            base_spread = spread(a)
            if base_spread > bound:
                verdict = "unresolved (base spread above bound)"
            elif worse > bound:
                verdict = "WORSE than bound"
            else:
                verdict = "within bound"
            out.append(
                f"  {name:14s} {ma:12.5g} -> {mb:12.5g} {metric['unit']:4s} "
                f"{change:+8.2%}  spread {base_spread:6.2%}  bound {bound:.0%}  {verdict}"
            )
    return out


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    for line in compare(argv[0], argv[1]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
