"""SC6 — the session cache on repeated-query workloads.

A production peer answers many queries against the same (slowly changing)
data, but the per-peer solutions — the expensive object behind Definition
5 — do not depend on the query.  A fresh :class:`PeerQuerySession` per
query recomputes them every time; one session memoizes them per
``(system version, peer, method)`` and reuses them across the whole
workload, including ``answer_many`` batches.

Expected series shape: the first session answer pays the same enumeration
cost as the per-query baseline; every further query is answered at
FO-evaluation cost, so the speedup over the per-query baseline grows
roughly linearly with the number of repeated queries.
"""

from repro.core import PeerQuerySession
from repro.relational import parse_query
from repro.workloads import import_star_system

QUERY_TEXTS = [
    "q(X, Y) := R0(X, Y)",
    "q(X) := exists Y R0(X, Y)",
    "q(Y) := exists X R0(X, Y)",
    "q(X) := R0(X, X)",
    "q(X, Y) := R0(X, Y) & R0(X, Y)",
    "q(X, Z) := exists Y (R0(X, Y) & R0(Z, Y))",
]
N_ROUNDS = 3  # each query family is posed this many times


def make_system(n=60):
    return import_star_system(n, n_neighbours=2, conflicts=2, seed=11)


def queries():
    return [parse_query(text) for text in QUERY_TEXTS] * N_ROUNDS


def run_session_per_query(system):
    """Baseline: a fresh session per query, no reuse."""
    return [set(PeerQuerySession(system).answer("P0", query,
                                                method="asp").answers)
            for query in queries()]


def run_session(system):
    """One session: solutions enumerated once, reused for every query."""
    session = PeerQuerySession(system, default_method="asp")
    return [set(r.answers) for r in session.answer_many(
        ("P0", query) for query in queries())]


def test_sc6_session_cached(benchmark):
    system = make_system()
    answers = benchmark(lambda: run_session(system))
    assert answers[0]
    benchmark.extra_info["queries"] = len(queries())


def test_sc6_per_query_baseline(benchmark):
    system = make_system()
    answers = benchmark(lambda: run_session_per_query(system))
    assert answers[0]
    benchmark.extra_info["queries"] = len(queries())


def test_sc6_same_answers():
    system = make_system(30)
    assert run_session(system) == run_session_per_query(system)


def test_sc6_cache_hits():
    system = make_system(30)
    session = PeerQuerySession(system, default_method="asp")
    session.answer_many(("P0", query) for query in queries())
    info = session.cache_info()
    assert info.misses == 1
    assert info.hits == len(queries()) - 1


def main() -> None:
    import time
    print("SC6 — one session vs a fresh session per query, import-star "
          f"family, {len(queries())} repeated queries")
    print(f"  {'n':>5s} {'fresh_ms':>10s} {'session_ms':>11s} "
          f"{'speedup':>8s} {'agree':>6s}")
    for n in (30, 60, 120):
        system = make_system(n)
        start = time.perf_counter()
        baseline = run_session_per_query(system)
        fresh_ms = (time.perf_counter() - start) * 1000
        start = time.perf_counter()
        cached = run_session(system)
        session_ms = (time.perf_counter() - start) * 1000
        speedup = fresh_ms / session_ms if session_ms else float("inf")
        print(f"  {n:5d} {fresh_ms:10.1f} {session_ms:11.1f} "
              f"{speedup:8.1f} {str(baseline == cached):>6s}")
    print("  expected: identical answers; the session amortises one "
          "solution\n  enumeration over the whole workload — speedup "
          "grows with the number of\n  repeated queries")


if __name__ == "__main__":
    main()
