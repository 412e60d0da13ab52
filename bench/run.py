"""One benchmark for the whole system.

    python3 bench/run.py --seed 0                  # every workload, both passes
    python3 bench/run.py --seed 0 --workload wire_cold
    python3 bench/run.py --workload wire_cold --seed 3 --seconds 10 --trace 0

Without ``--trace`` each selected workload runs twice: the measured pass
(tracing off, ``--seconds`` long) gives the end-to-end metrics, the
traced pass (a quarter as long) gives the per-layer metrics and the span
file.  Every metric is printed by name with its unit, and the results go
to ``--out`` stamped with commit, time, interpreter, cores and seed.

With ``--trace 0`` or ``--trace 1`` it makes that one pass of the one
``--workload`` for ``--seconds`` and prints, as the last line, the JSON
object the benchmark contract asks for.  The full run is made of exactly
these passes, each in a fresh interpreter.

Exits non-zero when any answer differed from the oracle, any op failed,
or a process it started outlived its workload.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

try:
    from bench import calibrate
    from bench.metrics import END_TO_END, PER_LAYER, median, percentile
    from bench.spans import SpanLog
    from bench.workloads import WORKLOADS
except ImportError as exc:  # a checkout without src/ has nothing to measure
    sys.exit(f"bench/run.py: cannot import the program under test: {exc}")

#: no workload pass may take longer, set-up and checks included
HARD_TIMEOUT_S = 150


def _on_alarm(signum, frame):
    raise TimeoutError(f"workload exceeded its {HARD_TIMEOUT_S}s limit")


def _children() -> list[int]:
    """Pids of live processes whose parent is this one."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # gone between listdir and read
        state, ppid = stat.rpartition(")")[2].split()[:2]
        if int(ppid) == me and state != "Z":
            found.append(int(entry))
    return found


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def run_pass(workload, seed: int, seconds: float, traced: bool,
             workdir: Path, spans: SpanLog) -> dict:
    """Set up, run one pass, tear down, and name the numbers."""
    ctx, setups = None, []

    def set_up() -> None:
        nonlocal ctx
        if ctx is not None:
            closing, ctx = ctx, None
            workload.close(closing)
        before = calibrate.steady_sample()
        t0 = time.perf_counter()
        ctx = workload.open(workload.generate(seed), workdir, traced)
        took = time.perf_counter() - t0
        if workload.in_process:  # reported at reference speed
            took *= 2 * calibrate.REF_NOMINAL_MS / (
                before + calibrate.steady_sample())
        setups.append(took)

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(HARD_TIMEOUT_S)
    try:
        # the measured pass sets up several times and reports the median.
        # Half the set-ups come after the ops: the host's speed drifts
        # over seconds, and set-ups made back to back would share one
        # drift
        repeats = 1 if traced else workload.setup_repeats
        for _ in range((repeats + 1) // 2):
            set_up()
        if traced:
            measured, layer = workload.trace(ctx, seconds, spans)
        else:
            measured, layer = workload.measure(ctx, seconds), {}
        for _ in range(repeats // 2):
            set_up()
    finally:
        try:
            if ctx is not None:
                workload.close(ctx)
        finally:
            signal.alarm(0)
    orphans = _children()
    for pid in orphans:
        os.kill(pid, signal.SIGKILL)

    answers = measured.answers
    n = len(answers.ms)
    if traced:
        layer["host.ref_ms"] = median(answers.ref)
        metrics = {name: {"value": float(layer.get(name, 0.0)),
                          "unit": unit, "samples": n}
                   for name, unit in PER_LAYER.items()}
        unknown = set(layer) - set(PER_LAYER)
        if unknown:
            raise KeyError(f"{workload.name} emitted unlisted layer "
                           f"metrics {sorted(unknown)}")
    else:
        # at reference speed on the in-process workloads, see calibrate.py
        latency = answers.scaled()
        timed_ms = measured.wall_s * 1e3 or (
            sum(latency) + sum(measured.updates.scaled()))
        correct = measured.attempted - measured.failed
        values = {
            "answer_p50_ms": (percentile(latency, 50), n),
            "answer_p95_ms": (percentile(latency, 95), n),
            "answers_per_s": (correct * 1e3 / timed_ms, n),
            "messages_per_answer":
                (measured.messages / measured.counted, measured.counted),
            "bytes_per_answer":
                (measured.bytes / measured.counted, measured.counted),
            "peak_rss_mb": (_peak_rss_mb(), 1),
            "setup_s": (median(setups), len(setups)),
        }
        metrics = {name: {"value": values[name][0], "unit": unit,
                          "samples": values[name][1]}
                   for name, unit in END_TO_END.items()}
    return {"correct": measured.failed == 0 and not orphans,
            "attempted": measured.attempted, "failed": measured.failed,
            "orphans": len(orphans), "metrics": metrics,
            # as the clock read them, before scaling to reference speed
            "raw": {"answer_p50_ms": percentile(answers.ms, 50),
                    "answer_p95_ms": percentile(answers.ms, 95),
                    "ref_ms": median(answers.ref)}}


def _commit() -> str:
    """HEAD's commit, read from ``.git`` (a ``git`` child would count in
    ``peak_rss_mb``); "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _stamp(seed: int, seconds: float) -> dict:
    return {"commit": _commit(),
            "utc": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds"),
            "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": seed, "seconds": seconds}


def _print(workload: str, result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{workload:14} {name:40} {metric['value']:14.4f} "
              f"{metric['unit']:6} n={metric['samples']}")
    frac = result["failed"] / result["attempted"]
    print(f"{workload:14} {'failed_frac':40} {frac:14.4f} {'ratio':6} "
          f"n={result['attempted']}", flush=True)


def run_all(names: list, seed: int, seconds: float, out: Path) -> int:
    """Both passes of every named workload, each in a fresh interpreter:
    a workload's heap, caches and peak RSS must not leak into the next,
    and this is how the driver runs them too."""
    out.parent.mkdir(parents=True, exist_ok=True)
    part = out.with_suffix(".part.json")
    span_file = out.with_suffix(".spans.jsonl")
    record = {"stamp": _stamp(seed, seconds), "workloads": {}}
    correct = True
    with open(span_file, "w", encoding="utf-8") as spans:
        for name in names:
            for trace, length in ((0, seconds), (1, seconds / 4)):
                part.unlink(missing_ok=True)
                subprocess.run(
                    [sys.executable, __file__, "--workload", name,
                     "--seed", str(seed), "--seconds", str(length),
                     "--trace", str(trace), "--out", str(part)],
                    stdout=subprocess.DEVNULL,
                    timeout=HARD_TIMEOUT_S + 30)
                if not part.exists():
                    raise SystemExit(f"bench/run.py: {name} --trace {trace} "
                                     f"died without a result")
                passes = json.loads(part.read_text())["workloads"][name]
                record["workloads"].setdefault(name, {}).update(passes)
                spans.write(part.with_suffix(".spans.jsonl").read_text())
                for result in passes.values():
                    _print(name, result)
                    correct = correct and result["correct"]
    part.unlink()
    part.with_suffix(".spans.jsonl").unlink()
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"results: {out}  spans: {span_file}")
    return 0 if correct else 1


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", type=Path,
                        help="result file (spans go beside it)")
    args = parser.parse_args(argv)
    if args.trace is None:
        return run_all(
            [args.workload] if args.workload else list(WORKLOADS),
            args.seed, args.seconds,
            args.out or ROOT / "bench" / "out" / f"seed{args.seed}.json")
    if args.workload is None:
        parser.error("--trace needs --workload")

    # everything the run writes stays inside the checkout: the cluster
    # supervisor parks its system file in the default temp directory
    workdir = ROOT / "bench" / ".work" / str(os.getpid())
    workdir.mkdir(parents=True)
    tempfile.tempdir = str(workdir)
    spans = SpanLog()
    try:
        result = run_pass(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), workdir, spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.out is not None:
        key = "per_layer" if args.trace else "end_to_end"
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "stamp": _stamp(args.seed, args.seconds),
            "workloads": {args.workload: {key: result}}}, indent=1) + "\n")
        spans.write(args.out.with_suffix(".spans.jsonl"),
                    workload=args.workload, traced=bool(args.trace))
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()}}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
