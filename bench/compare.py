"""Compare two benchmark records, metric by metric and workload by workload.

    python3 bench/compare.py A.json B.json

``A`` is the parent, ``B`` the change; each is a result file written by
``bench/run.py --out``, or a directory of them, in which case every
metric is the median over the files.  For each pair of end-to-end metric
and workload it prints both values, the relative difference, the bound
from ``BENCHMARK.json`` and a verdict:

* ``worse``  — B is worse than A by more than the bound;
* ``better`` — B is better than A by more than the bound;
* ``same``   — within the bound either way;
* ``n/a``    — one side has no value.

Exits 1 when any pair is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path: Path) -> dict:
    """``{(workload, metric): value}`` from a result file or, by median,
    from every ``*.json`` in a directory."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"compare.py: no result files in {path}")
    seen: dict = {}
    for file in files:
        record = json.loads(file.read_text())
        for workload, passes in record["workloads"].items():
            metrics = passes.get("end_to_end", {}).get("metrics", {})
            for name, metric in metrics.items():
                seen.setdefault((workload, name), []).append(metric["value"])
    return {key: statistics.median(values) for key, values in seen.items()}


def verdict(a, b, better: str, bound: float) -> tuple[str, float]:
    """The verdict and the relative change, positive when B is worse."""
    if a is None or b is None or a == 0:
        return "n/a", 0.0
    worsening = (b - a) / abs(a)
    if better == "higher":
        worsening = -worsening
    if worsening > bound:
        return "worse", worsening
    if worsening < -bound:
        return "better", worsening
    return "same", worsening


def compare(a: dict, b: dict, spec: dict) -> list[tuple]:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            word, change = verdict(a.get(key), b.get(key),
                                   metric["better"], metric["bound"])
            rows.append((workload, metric["name"], a.get(key), b.get(key),
                         change, metric["bound"], word))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load(Path(argv[0])), load(Path(argv[1])), spec)

    def cell(value) -> str:
        return f"{value:14.4f}" if value is not None else f"{'-':>14}"

    print(f"{'workload':14} {'metric':22} {'A':>14} {'B':>14} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for workload, name, a, b, change, bound, word in rows:
        print(f"{workload:14} {name:22} {cell(a)} {cell(b)} "
              f"{change:+9.1%} {bound:6.0%}  {word}")
    worse = sum(row[-1] == "worse" for row in rows)
    print(f"{len(rows)} pairs compared; worse: {worse}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
