"""Metric names and units: the one list ``run.py`` emits from.

``BENCHMARK.json`` repeats these names with their direction and bounds;
``test_smoke.py`` checks the two agree.
"""

from __future__ import annotations

import statistics
from typing import Sequence

#: measured pass (tracing off); every workload reports every one, never 0
END_TO_END = {
    "answer_p50_ms": "ms",
    "answer_p95_ms": "ms",
    "answers_per_s": "1/s",
    "messages_per_answer": "count",
    "bytes_per_answer": "B",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: traced pass; named by module; 0 where a workload does not exercise it
PER_LAYER = {
    "core.spec_build_ms": "ms",
    "core.spec_rules": "count",
    "core.decode_ms": "ms",
    "core.solutions": "count",
    "core.intersect_ms": "ms",
    "core.session_warm_answer_ms": "ms",
    "core.rewrite_ms": "ms",
    "core.auto_probe_ms": "ms",
    "core.stage_coverage": "ratio",
    "datalog.prepare_ms": "ms",
    "datalog.ground_ms": "ms",
    "datalog.ground_atoms": "count",
    "datalog.ground_rules": "count",
    "datalog.solve_ms": "ms",
    "datalog.models": "count",
    "relational.parse_ms": "ms",
    "relational.instance_build_ms": "ms",
    "relational.eval_ms": "ms",
    "relational.answer_rows": "count",
    "net.gather_ms": "ms",
    "net.eval_ms": "ms",
    "net.max_hops": "count",
    "net.first_gather_ms": "ms",
    "net.first_gather_bytes": "B",
    "net.loopback_cold_ms": "ms",
    "net.retries": "count",
    "update_p50_ms": "ms",
    "update_p95_ms": "ms",
    "routing.subtrees_pruned_per_answer": "count",
    "routing.neighbours_pruned_per_answer": "count",
    "routing.neighbours_contacted_per_answer": "count",
    "routing.prune_ratio": "ratio",
    "storage.disk_bytes_per_update": "B",
    "storage.disk_bytes_end": "B",
    "wire.server_queue_wait_ms": "ms",
    "wire.server_execute_ms": "ms",
    "wire.server_requests": "count",
    "wire.server_shed": "count",
    "wire.server_bytes_out_per_answer": "B",
    "wire.transport_round_trip_ms": "ms",
    "wire.transport_dials": "count",
    "wire.transport_requests": "count",
    "wire.codec_encode_us_per_kb": "us/KB",
    "wire.codec_decode_us_per_kb": "us/KB",
    "wire.reply_frame_bytes": "B",
    "wire.client_overhead_ms": "ms",
    "wire.socket_factor": "ratio",
    "wire.restart_s": "s",
    "obs.tracing_overhead_frac": "ratio",
    "obs.spans_per_answer": "count",
    "obs.span_bytes_per_answer": "B",
    "host.ref_ms": "ms",
}


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile ``p`` (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    """Median, or 0.0 of no samples (a layer the workload never entered)."""
    return statistics.median(values) if values else 0.0
