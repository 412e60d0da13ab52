"""The six workloads: seeded inputs, a timed closed loop, an oracle check.

Every workload follows one shape:

* ``generate(seed)`` builds the system(s), a fixed-length op list and the
  expected answers.  It depends on nothing but the seed.
* ``open(inputs, workdir)`` starts whatever serves the ops (a cluster, a
  routed network) and lets caches fill; ``close(ctx)`` stops it.
  Set-up time is ``generate`` plus ``open``.
* ``measure(ctx, seconds)`` runs ops in order, cycling through the list,
  until ``seconds`` of wall clock have passed and at least ``min_ops``
  answers are in.  Only the program's own calls are timed; drawing the
  next op, preparing an updated system and checking answers against the
  oracle happen between timed regions.
* ``trace(ctx, seconds, spans)`` is the traced pass: the same ops, with
  spans recorded from here around calls into each layer, plus whatever
  the program publishes about itself.

``messages_per_answer`` and ``bytes_per_answer`` are taken over the first
``count_ops`` answers only (at most ``min_ops``), so the same seed gives the
same counts however many ops a run had time for.  On the in-process
workloads every timed region is paired with a reference-kernel timing taken
just before it (see ``calibrate.py``).
"""

from __future__ import annotations

import os
import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.core import PeerQuerySession, PeerSystem
from repro.net import NetworkSession, open_session
from repro.net.protocol import Answer
from repro.obs.metrics import Histogram, merge_snapshots
from repro.obs.trace import span_bytes
from repro.relational.constraints import EqualityGeneratingConstraint
from repro.relational.instance import Fact
from repro.relational.query import RelAtom
from repro.datalog.terms import Variable
from repro.wire.cluster import fetch_status
from repro.wire.codec import decode_message, encode_message
from repro.workloads import import_star_system, topology_system

from . import calibrate
from .metrics import median, percentile
from .spans import SpanLog
from .stages import replay_asp, replay_rewrite


@dataclass
class Inputs:
    """What ``generate`` returns.  ``ops`` is what makes two seeds differ."""
    ops: list
    systems: list
    expected: dict


@dataclass
class Series:
    """Timed regions.  On the in-process workloads each comes with the
    reference-kernel timing taken just before it, and ``scaled`` reports
    it at reference speed; the wire workloads keep wall-clock times."""
    ms: list = field(default_factory=list)
    ref: list = field(default_factory=list)

    def add(self, elapsed_s: float, ref_ms: Optional[float]) -> None:
        self.ms.append(elapsed_s * 1e3)
        if ref_ms is not None:
            self.ref.append(ref_ms)

    def scaled(self) -> list:
        if not self.ref:
            return list(self.ms)
        return calibrate.at_reference_speed(self.ms, self.ref)


@dataclass
class Measured:
    """What a timed loop hands back; ``run.py`` turns it into metrics."""
    answers: Series = field(default_factory=Series)
    updates: Series = field(default_factory=Series)
    #: wall clock of the serving window where clients overlap
    #: (``wire_serve``); elsewhere throughput divides by the sum of the
    #: answer and update times
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: sums over the first ``counted`` answers
    messages: int = 0
    bytes: int = 0
    counted: int = 0

    def record(self, elapsed_s: float, ref_ms: Optional[float],
               ok: bool) -> None:
        self.answers.add(elapsed_s, ref_ms)
        self.attempted += 1
        self.failed += not ok

    def count(self, messages: int, nbytes: int, window: int) -> None:
        if self.counted < window:
            self.messages += messages
            self.bytes += nbytes
            self.counted += 1


def _running(start: float, seconds: float, done: int, min_ops: int) -> bool:
    return done < min_ops or time.perf_counter() - start < seconds


def _ok(result, expected) -> bool:
    return result.error is None and result.answers == expected


# ----------------------------------------------------------------------
# asp_search, asp_ground, rewrite_scan: a fresh local session per op
# ----------------------------------------------------------------------

def seeded_conflict_system(seed: int, n_conflicts: int = 6,
                           n_clean: int = 50) -> PeerSystem:
    """``n_conflicts`` independent same-trust EGD conflicts between P1 and
    P3 (2^n solutions) plus ``n_clean`` undisputed rows, with seeded
    values and row order.  ``repro.workloads.conflict_chain_system`` is
    the unseeded original."""
    rng = random.Random(f"conflict:{seed}")
    tag = rng.randrange(10 ** 5, 10 ** 6)  # fixed width: equal bytes
    r1 = [(f"k{tag}_{i}", f"v{i}") for i in range(n_conflicts)]
    r3 = [(f"k{tag}_{i}", f"w{i}") for i in range(n_conflicts)]
    r1 += [(f"c{tag}_{i}", f"cv{i}") for i in range(n_clean)]
    rng.shuffle(r1)
    rng.shuffle(r3)
    x, y, z = Variable("X"), Variable("Y"), Variable("Z")
    egd = EqualityGeneratingConstraint(
        antecedent=[RelAtom("R1", [x, y]), RelAtom("R3", [x, z])],
        equalities=[(y, z)], name="conflict")
    return (PeerSystem.builder()
            .peer("P1", {"R1": 2}, instance={"R1": r1})
            .peer("P3", {"R3": 2}, instance={"R3": r3})
            .exchange("P1", "P3", egd)
            .trust("P1", "same", "P3")
            .build())


def conflict_expected(system: PeerSystem) -> set:
    """A disputed key survives in only half the solutions, so the
    certain answers are exactly the undisputed rows."""
    disputed = {key for key, _ in system.instances["P3"].tuples("R3")}
    return {row for row in system.instances["P1"].tuples("R1")
            if row[0] not in disputed}


def import_expected(system: PeerSystem) -> set:
    """Full inclusions from more-trusted peers and no conflicts: P0 ends
    up with its own rows plus every neighbour's."""
    rows = set()
    for instance in system.instances.values():
        for relation in instance.relations():
            rows |= instance.tuples(relation)
    return rows


class EvalWorkload:
    """Cold answers on a local session: each op opens a fresh
    ``PeerQuerySession`` on one of three seeded variants of the system
    and asks for the whole relation, heads in either order (equal cost,
    so the latency distribution has one mode)."""

    in_process = True
    setup_repeats = 7
    n_ops = 240
    n_variants = 3

    def __init__(self, name, why, *, build, expected, peer, relation,
                 method, resolves_to, cross_method, min_ops):
        self.name, self.why = name, why
        self._build, self._expected = build, expected
        self.peer, self.method = peer, method
        self.resolves_to, self.cross_method = resolves_to, cross_method
        self.min_ops = self.count_ops = min_ops
        self.queries = (f"q(X, Y) := {relation}(X, Y)",
                        f"q(Y, X) := {relation}(X, Y)")

    def generate(self, seed: int) -> Inputs:
        rng = random.Random(f"{self.name}:{seed}")
        systems = [self._build(seed * 1000 + v)
                   for v in range(self.n_variants)]
        ops = [(rng.randrange(self.n_variants), rng.choice(self.queries))
               for _ in range(self.n_ops)]
        expected = {}
        for v, system in enumerate(systems):
            rows = self._expected(system)
            expected[v, self.queries[0]] = rows
            expected[v, self.queries[1]] = {(b, a) for a, b in rows}
        return Inputs(ops, systems, expected)

    def open(self, inputs: Inputs, workdir: Path, traced: bool = False):
        # one untimed answer per variant: content fingerprints and
        # relation indexes are cached on the system objects, and every
        # later op of the run would find them warm anyway
        for system in inputs.systems:
            PeerQuerySession(system).answer(self.peer, self.queries[0],
                                            method=self.method)
        return inputs

    def close(self, ctx) -> None:
        pass

    def measure(self, inputs: Inputs, seconds: float) -> Measured:
        out = Measured()
        start = time.perf_counter()
        while _running(start, seconds, out.attempted, self.min_ops):
            variant, query = inputs.ops[out.attempted % len(inputs.ops)]
            system = inputs.systems[variant]
            ref = calibrate.sample()
            t0 = time.perf_counter()
            result = PeerQuerySession(system).answer(self.peer, query,
                                                     method=self.method)
            elapsed = time.perf_counter() - t0
            out.record(elapsed, ref,
                       _ok(result, inputs.expected[variant, query])
                       and result.method_used == self.resolves_to)
            out.count(result.exchange.requests,
                      result.exchange.bytes_estimate, self.count_ops)
        out.failed += self._cross_check(inputs)
        return out

    def _cross_check(self, inputs: Inputs) -> int:
        """The other mechanism must agree (outside the timed region)."""
        variant, query = inputs.ops[0]
        other = PeerQuerySession(inputs.systems[variant]).answer(
            self.peer, query, method=self.cross_method)
        return int(not _ok(other, inputs.expected[variant, query]))

    def trace(self, inputs: Inputs, seconds: float,
              spans: SpanLog) -> tuple[Measured, dict]:
        replay = replay_asp if self.resolves_to == "asp" else replay_rewrite
        out = Measured()
        stage_ms: dict[str, list] = {}
        counts: dict = {}
        covered, warm_ms = [], []
        start = time.perf_counter()
        while _running(start, seconds, out.attempted, 3):
            op = out.attempted
            variant, query = inputs.ops[op % len(inputs.ops)]
            system = inputs.systems[variant]
            expected = inputs.expected[variant, query]
            ref = calibrate.sample()
            with spans.span("client.answer", op) as whole:
                session = PeerQuerySession(system)
                result = session.answer(self.peer, query, method=self.method)
            other = self.queries[1 - self.queries.index(query)]
            t0 = time.perf_counter()
            session.answer(self.peer, other, method=self.method)
            warm_ms.append((time.perf_counter() - t0) * 1e3)

            first = len(spans.spans)
            with spans.span("replay", op) as replayed:
                answers, counts = replay(system, self.peer, query, spans, op)
            out.record(whole.duration, ref,
                       _ok(result, expected) and answers == expected)
            per_name: dict[str, float] = {}
            staged = 0.0
            for span in spans.spans[first + 1:]:
                per_name[span.name] = per_name.get(span.name, 0.0) \
                    + span.duration
                if span.parent == replayed.id:  # nested ones are inside
                    staged += span.duration
            for name, total in per_name.items():
                stage_ms.setdefault(name, []).append(total * 1e3)
            covered.append(staged / whole.duration)
        layer = {f"{name}_ms": median(values)
                 for name, values in stage_ms.items()}
        layer.update(counts)
        layer["core.session_warm_answer_ms"] = median(warm_ms)
        layer["core.stage_coverage"] = median(covered)
        return out, layer


# ----------------------------------------------------------------------
# wire_cold, wire_serve: one OS process per peer
# ----------------------------------------------------------------------

def _tree15(seed: int) -> PeerSystem:
    return topology_system(15, topology="tree", n_tuples=200, seed=seed)


def _oracle(system: PeerSystem, requests) -> dict:
    """Network answers must equal the local session's on the same system
    (Franconi et al.: answers do not depend on how peers are deployed)."""
    session = PeerQuerySession(system)
    return {(peer, query): session.answer(peer, query).answers
            for peer, query in requests}


@dataclass
class Cluster:
    inputs: Inputs
    session: object
    first_gather_ms: float
    first_gather_bytes: int
    #: one result per reply shape, for the codec timing
    samples: dict = field(default_factory=dict)


def _open_cluster(inputs: Inputs, warmup) -> Cluster:
    session = open_session(inputs.systems[0], network="wire")
    try:
        peer, query = warmup[0]
        t0 = time.perf_counter()
        first = session.answer(peer, query)
        cluster = Cluster(inputs, session,
                          (time.perf_counter() - t0) * 1e3,
                          first.exchange.bytes_estimate)
        for peer, query in warmup:
            result = session.answer(peer, query)
            if not _ok(result, inputs.expected[peer, query]):
                raise RuntimeError(f"warm-up answer wrong: {result!r}")
            cluster.samples[len(result.answers)] = result
        return cluster
    except BaseException:
        session.close()
        raise


def _unit_metrics(supervisor, skip=()) -> dict:
    """``{unit: metrics snapshot}`` over the wire (``GetStatus``)."""
    return {unit: fetch_status(address)["metrics"]
            for unit, address in supervisor.addresses().items()
            if unit not in skip}


def _window(before: dict, after: dict, extra=()) -> dict:
    """What the cluster did between two scrapes, merged over its units.
    ``extra`` adds whole snapshots (a restarted unit counts from zero)."""
    deltas = list(extra)
    for unit, late in after.items():
        early = before[unit]
        histograms = {}
        for name, data in late["histograms"].items():
            hist = Histogram.from_dict(data)
            old = early["histograms"].get(name)
            if old is not None:
                hist.counts = [a - b for a, b
                               in zip(hist.counts, old["counts"])]
                hist.count -= old["count"]
                hist.total -= old["sum"]
            histograms[name] = hist.to_dict()
        deltas.append({
            "counters": {name: value - early["counters"].get(name, 0)
                         for name, value in late["counters"].items()},
            "histograms": histograms})
    return merge_snapshots(deltas)


def _wire_layers(window: dict, answers: int) -> dict:
    counters, summaries = window["counters"], window["summaries"]

    def mean_ms(name: str) -> float:
        return summaries.get(name, {}).get("mean", 0.0) * 1e3

    return {
        "wire.server_queue_wait_ms": mean_ms("server.queue_wait_s"),
        "wire.server_execute_ms": mean_ms("server.execute_s"),
        "wire.server_requests": counters.get("server.requests_served", 0),
        "wire.server_shed": counters.get("server.shed_requests", 0),
        "wire.server_bytes_out_per_answer":
            counters.get("server.bytes_out", 0) / max(answers, 1),
        "wire.transport_round_trip_ms": mean_ms("transport.round_trip_s"),
        "wire.transport_dials": counters.get("transport.dials", 0),
        "wire.transport_requests": counters.get("transport.requests", 0),
        "net.retries": counters.get("network.retries", 0),
    }


def _codec_layers(frames: list, replies: list) -> dict:
    """Time ``encode_message``/``decode_message`` on the workload's own
    frames.  ``frames`` are messages; ``replies`` pairs each client reply
    frame with its share of the op mix."""
    encoded = [encode_message(message) for message in frames]
    kb = sum(len(line) for line in encoded) / 1024.0

    def us_per_kb(function, items) -> float:
        laps = 0
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.15:
            for item in items:
                function(item)
            laps += 1
        return (time.perf_counter() - t0) * 1e6 / (laps * kb)

    encode_us = us_per_kb(encode_message, frames)
    decode_us = us_per_kb(decode_message, encoded)
    return {
        "wire.codec_encode_us_per_kb": encode_us,
        "wire.codec_decode_us_per_kb": decode_us,
        "wire.reply_frame_bytes": sum(
            len(encode_message(message)) * weight
            for message, weight in replies),
    }


def _reply(result) -> Answer:
    return Answer(sender=result.peer, target="client", in_reply_to=1,
                  payload=result)


def _traced_layers(results: list, traced_ms: list, plain_ms: list) -> dict:
    """What tracing publishes (``QueryResult.timings``/``trace``) and
    what switching it on costs."""
    timed = [r.timings for r in results if r.timings]
    return {
        "net.gather_ms": median([t["gather_s"] * 1e3 for t in timed]),
        "net.eval_ms": median([t["eval_s"] * 1e3 for t in timed]),
        "obs.tracing_overhead_frac":
            median(traced_ms) / median(plain_ms) - 1.0,
        "obs.spans_per_answer":
            sum(len(r.trace) for r in results) / len(results),
        "obs.span_bytes_per_answer":
            sum(span_bytes(r.trace) for r in results) / len(results),
    }


class WireCold:
    """A restarted root gathers its whole sub-network over sockets."""

    name = "wire_cold"
    why = ("the restarted root has no view, so net gather, wire dials, "
           "codec on 200-row payloads and server relays all block the "
           "answer; evaluation is under 10%")
    in_process = False
    setup_repeats = 3
    n_ops = 60
    min_ops = 60    # a restart is 0.25 s: fewer ops leave the p95 to chance
    count_ops = 12
    root = "P0"
    queries = ("q(X, Y) := R0(X, Y)", "q(Y, X) := R0(X, Y)",
               "q(X) := exists Y R0(X, Y)", "q(Y) := exists X R0(X, Y)")

    def generate(self, seed: int) -> Inputs:
        rng = random.Random(f"{self.name}:{seed}")
        system = _tree15(seed)
        # whole permutations of the four shapes: the first ``count_ops``
        # answers hold each shape equally often, whatever the seed
        ops = [(self.root, query)
               for _ in range(self.n_ops // len(self.queries))
               for query in rng.sample(self.queries, len(self.queries))]
        return Inputs(ops, [system],
                      _oracle(system, [(self.root, q)
                                       for q in self.queries]))

    def open(self, inputs: Inputs, workdir: Path,
             traced: bool = False) -> Cluster:
        cluster = _open_cluster(inputs, [(self.root, self.queries[0])])
        try:
            self._restart(cluster)  # the first restart pays for page cache
            return cluster
        except BaseException:
            cluster.session.close()
            raise

    def close(self, cluster: Cluster) -> None:
        cluster.session.close()

    def _restart(self, cluster: Cluster) -> float:
        """Kill the root, bring it back, and probe it once: the probe
        absorbs the new interpreter's first-request warm-up, which is not
        what the timed answer is about."""
        supervisor = cluster.session.supervisor
        t0 = time.perf_counter()
        supervisor.kill(self.root)
        fetch_status(supervisor.restart(self.root))
        return time.perf_counter() - t0

    def _cold_answer(self, cluster: Cluster, out: Measured, op: int):
        peer, query = cluster.inputs.ops[op % self.n_ops]
        log = cluster.session.exchange_log
        mark = log.mark()
        t0 = time.perf_counter()
        result = cluster.session.answer(peer, query)
        elapsed = time.perf_counter() - t0
        out.record(elapsed, None,
                   _ok(result, cluster.inputs.expected[peer, query])
                   and not result.from_cache)
        client = log.stats_since(mark)
        out.count(result.exchange.requests + client.requests,
                  result.exchange.bytes_estimate + client.bytes_estimate,
                  self.count_ops)
        return result

    def measure(self, cluster: Cluster, seconds: float) -> Measured:
        out = Measured()
        start = time.perf_counter()
        while _running(start, seconds, out.attempted, self.min_ops):
            self._restart(cluster)
            self._cold_answer(cluster, out, out.attempted)
        return out

    def trace(self, cluster: Cluster, seconds: float,
              spans: SpanLog) -> tuple[Measured, dict]:
        system = cluster.inputs.systems[0]
        session, supervisor = cluster.session, cluster.session.supervisor
        loopback_ms = []
        for _ in range(3):
            with NetworkSession(system) as local:
                t0 = time.perf_counter()
                local.answer(self.root, self.queries[0])
                loopback_ms.append((time.perf_counter() - t0) * 1e3)

        out = Measured()
        restart_s, traced, root_snaps = [], [], []
        before = _unit_metrics(supervisor, skip=(self.root,))
        start = time.perf_counter()
        # alternate plain and traced ops so both see the same machine
        while _running(start, seconds, out.attempted, 6):
            op = out.attempted
            restart_s.append(self._restart(cluster))
            session.tracing = bool(op % 2)
            try:
                with spans.span("client.answer", op) as whole:
                    result = self._cold_answer(cluster, out, op)
            finally:
                session.tracing = False
            if result.trace:
                traced.append(result)
                spans.add_published(result.trace, op=op, parent=whole.id)
            root_snaps.append(fetch_status(
                supervisor.addresses()[self.root])["metrics"])
        window = _window(before,
                         _unit_metrics(supervisor, skip=(self.root,)),
                         extra=root_snaps)
        plain_ms, traced_ms = out.answers.ms[0::2], out.answers.ms[1::2]
        layer = _wire_layers(window, out.attempted)
        layer.update(_traced_layers(traced, traced_ms, plain_ms))
        full = cluster.samples[max(cluster.samples)]
        relation = Answer(
            sender="P1", target=self.root, in_reply_to=1,
            payload=tuple(sorted(system.instances["P1"].tuples("R1"))))
        layer.update(_codec_layers([_reply(full), relation],
                                   [(_reply(full), 1.0)]))
        layer.update({
            "net.max_hops": max(r.exchange.max_hops for r in traced),
            "net.first_gather_ms": cluster.first_gather_ms,
            "net.first_gather_bytes": cluster.first_gather_bytes,
            "net.loopback_cold_ms": median(loopback_ms),
            "wire.socket_factor": median(plain_ms) / median(loopback_ms),
            "wire.restart_s": median(restart_s),
        })
        return out, layer


class WireServe:
    """Two client threads against a warm cluster: every op is an answer-
    cache hit, 80% one-row replies and 20% 200-row replies."""

    name = "wire_serve"
    why = ("every op hits the answer cache, so only the admission queue, "
           "codec and sockets work, with small and large frames; 15 "
           "servers and 2 clients share 2 cores")
    in_process = False
    setup_repeats = 3
    min_ops = 400
    n_threads = 2
    n_laps = 50
    n_point, n_full = 64, 16

    def generate(self, seed: int) -> Inputs:
        rng = random.Random(f"{self.name}:{seed}")
        system = _tree15(seed)
        pool = []
        for drawn in rng.sample(range(15 * 200), self.n_point):
            peer, key = divmod(drawn, 200)
            pool.append((f"P{peer}",
                         f'q(Y) := R{peer}("p{peer}k{key}", Y)'))
        # leaves import nothing, so their whole relation is 200 rows
        for index in range(self.n_full):
            leaf = 7 + index % 8
            head = "X, Y" if index < 8 else "Y, X"
            pool.append((f"P{leaf}", f"q({head}) := R{leaf}(X, Y)"))
        # each lap is a permutation of the pool: the 80/20 mix is exact
        # over any whole number of laps
        ops = [[request for _ in range(self.n_laps)
                for request in rng.sample(pool, len(pool))]
               for _ in range(self.n_threads)]
        return Inputs(ops, [system], _oracle(system, pool))

    def open(self, inputs: Inputs, workdir: Path,
             traced: bool = False) -> Cluster:
        return _open_cluster(inputs, list(inputs.expected))  # one lap

    def close(self, cluster: Cluster) -> None:
        cluster.session.close()

    def _serve(self, cluster: Cluster, seconds: float,
               spans: Optional[SpanLog] = None) -> tuple[Measured, list]:
        """Run the client threads for ``seconds``; returns their merged
        samples and, when ``spans`` is given, every (traced) result."""
        session, inputs = cluster.session, cluster.inputs
        merged, kept, edges = Measured(), [], []
        lock = threading.Lock()
        barrier = threading.Barrier(self.n_threads)

        def client(index: int) -> None:
            ops, local, results = inputs.ops[index], Measured(), []
            barrier.wait(timeout=60)
            start = time.perf_counter()
            while _running(start, seconds, local.attempted,
                           self.min_ops // self.n_threads):
                peer, query = ops[local.attempted % len(ops)]
                t0 = time.perf_counter()
                result = session.answer(peer, query)
                t1 = time.perf_counter()
                local.record(t1 - t0, None,
                             _ok(result, inputs.expected[peer, query])
                             and result.from_cache)
                if spans is not None:
                    op = index * 10 ** 6 + local.attempted
                    parent = spans.add("client.answer", t0, t1, op=op)
                    spans.add_published(result.trace, op=op, parent=parent)
                    results.append(result)
            with lock:
                edges.extend((start, time.perf_counter()))
                merged.answers.ms += local.answers.ms
                merged.attempted += local.attempted
                merged.failed += local.failed
                kept.extend(results)

        threads = [threading.Thread(target=client, args=(i,), daemon=True)
                   for i in range(self.n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        merged.wall_s = max(edges) - min(edges)
        return merged, kept

    def measure(self, cluster: Cluster, seconds: float) -> Measured:
        log = cluster.session.exchange_log
        mark = log.mark()
        out, _ = self._serve(cluster, seconds)
        # answer-cache hits send no peer-to-peer message: the one message
        # behind each answer is the client's own query, with the exact
        # bytes of its reply frame
        client = log.stats_since(mark)
        out.messages, out.bytes = client.requests, client.bytes_estimate
        out.counted = out.attempted
        return out

    def trace(self, cluster: Cluster, seconds: float,
              spans: SpanLog) -> tuple[Measured, dict]:
        session, supervisor = cluster.session, cluster.session.supervisor
        before = _unit_metrics(supervisor)
        plain, _ = self._serve(cluster, seconds / 2)
        window = _window(before, _unit_metrics(supervisor))
        session.tracing = True
        try:
            traced, results = self._serve(cluster, seconds / 2, spans)
        finally:
            session.tracing = False

        layer = _wire_layers(window, plain.attempted)
        layer.update(_traced_layers(results, traced.answers.ms,
                                    plain.answers.ms))
        point, full = (_reply(cluster.samples[n])
                       for n in (min(cluster.samples), max(cluster.samples)))
        share = self.n_full / (self.n_point + self.n_full)
        layer.update(_codec_layers([point] * 4 + [full],
                                   [(point, 1 - share), (full, share)]))
        layer.update({
            "net.max_hops": max(r.exchange.max_hops for r in results),
            "net.first_gather_ms": cluster.first_gather_ms,
            "net.first_gather_bytes": cluster.first_gather_bytes,
            "wire.client_overhead_ms":
                sum(plain.answers.ms) / len(plain.answers.ms)
                - layer["wire.server_queue_wait_ms"]
                - layer["wire.server_execute_ms"],
        })
        plain.attempted += traced.attempted
        plain.failed += traced.failed
        return plain, layer


# ----------------------------------------------------------------------
# routed_update: writes beside reads on a routed, durable network
# ----------------------------------------------------------------------

def _disk_bytes(path: Path) -> int:
    return sum(os.path.getsize(os.path.join(folder, name))
               for folder, _dirs, names in os.walk(path) for name in names)


@dataclass
class Routed:
    inputs: Inputs
    session: NetworkSession
    data_dir: Path
    system: PeerSystem
    inserted: list
    round: int = 0


class RoutedUpdate:
    """One update then three constant-selecting queries, 800 times."""

    name = "routed_update"
    why = ("writes beside reads: the net, routing and storage code that "
           "serves gathers must also absorb deltas, refresh digests and "
           "compact the durable log")
    in_process = True
    setup_repeats = 7
    n_rounds = 800
    n_warmup = 8
    queries_per_round = 3
    min_ops = count_ops = 360           # 120 rounds
    check_every = 10
    keep_rows = 8
    n_peers, n_tuples = 31, 20
    root = "P0"

    def generate(self, seed: int) -> Inputs:
        rng = random.Random(f"{self.name}:{seed}")
        system = topology_system(self.n_peers, topology="tree",
                                 n_tuples=self.n_tuples, seed=seed)

        def cycling(items: list, length: int) -> list:
            # concatenated permutations: every peer is drawn equally
            # often, so counts barely depend on the seed
            drawn: list = []
            while len(drawn) < length:
                drawn += rng.sample(items, len(items))
            return drawn[:length]

        rounds = self.n_warmup + self.n_rounds
        leaves = cycling(list(range(self.n_peers // 2, self.n_peers)),
                         rounds)
        peers = cycling(list(range(self.n_peers)),
                        rounds * self.queries_per_round)
        ops = []
        for index, leaf in enumerate(leaves):
            asked = peers[index * self.queries_per_round:
                          (index + 1) * self.queries_per_round]
            ops.append((leaf, tuple(
                f'q(Y) := R0("p{peer}k{rng.randrange(self.n_tuples)}", Y)'
                for peer in asked)))
        return Inputs(ops, [system], {})

    def open(self, inputs: Inputs, workdir: Path,
             traced: bool = False) -> Routed:
        data_dir = workdir / f"{self.name}-data"
        shutil.rmtree(data_dir, ignore_errors=True)
        session = NetworkSession(inputs.systems[0], routing=True,
                                 data_dir=data_dir, tracing=traced)
        ctx = Routed(inputs, session, data_dir, inputs.systems[0], [])
        try:
            warm = Measured()
            for _ in range(self.n_warmup):
                self._round(ctx, warm, check=True)
            if warm.failed:
                raise RuntimeError("warm-up answers differ from the oracle")
            return ctx
        except BaseException:
            self.close(ctx)
            raise

    def close(self, ctx: Routed) -> None:
        try:
            ctx.session.close()
        finally:
            shutil.rmtree(ctx.data_dir, ignore_errors=True)

    def _round(self, ctx: Routed, out: Measured, *, check: bool) -> list:
        """Insert one row at a leaf, drop the row inserted ``keep_rows``
        rounds ago, then ask the round's queries at the root."""
        index = ctx.round
        ctx.round += 1
        leaf, queries = ctx.inputs.ops[index % len(ctx.inputs.ops)]
        fact = Fact(f"R{leaf}", (f"p{leaf}k{self.n_tuples + index}",
                                 f"u{index}"))
        ctx.inserted.append(fact)
        instance = ctx.system.global_instance().with_facts([fact])
        if len(ctx.inserted) > self.keep_rows:
            instance = instance.without_facts([ctx.inserted.pop(0)])
        ctx.system = ctx.system.with_global_instance(instance)

        ref = calibrate.sample()
        t0 = time.perf_counter()
        ctx.session.use_system(ctx.system)
        out.updates.add(time.perf_counter() - t0, ref)
        oracle = PeerQuerySession(ctx.system) if check else None
        results = []
        for query in queries:
            t0 = time.perf_counter()
            result = ctx.session.answer(self.root, query)
            elapsed = time.perf_counter() - t0
            ok = result.error is None and (
                oracle is None
                or result.answers == oracle.answer(self.root, query).answers)
            out.record(elapsed, ref, ok)
            out.count(result.exchange.requests,
                      result.exchange.bytes_estimate, self.count_ops)
            results.append(result)
        return results

    def measure(self, ctx: Routed, seconds: float) -> Measured:
        out = Measured()
        start = time.perf_counter()
        while _running(start, seconds, out.attempted, self.min_ops):
            self._round(ctx, out, check=len(out.updates.ms)
                        % self.check_every == 0)
        return out

    def trace(self, ctx: Routed, seconds: float,
              spans: SpanLog) -> tuple[Measured, dict]:
        out = Measured()
        results, grown = [], 0
        size = _disk_bytes(ctx.data_dir)
        start = time.perf_counter()
        while _running(start, seconds, out.attempted, 30):
            op = len(out.updates.ms)
            with spans.span("client.round", op) as whole:
                answered = self._round(
                    ctx, out, check=op % self.check_every == 0)
            for result in answered:
                spans.add_published(result.trace, op=op, parent=whole.id)
            results += answered
            now = _disk_bytes(ctx.data_dir)
            grown += max(0, now - size)  # compaction shrinks the log
            size = now
        n = len(results)
        pruned = sum(r.exchange.neighbours_pruned
                     + r.exchange.subtrees_pruned for r in results)
        contacted = sum(r.exchange.neighbours_contacted for r in results)
        timed = [r.timings for r in results if r.timings]
        layer = {
            "net.gather_ms": median([t["gather_s"] * 1e3 for t in timed]),
            "net.eval_ms": median([t["eval_s"] * 1e3 for t in timed]),
            "net.max_hops": max(r.exchange.max_hops for r in results),
            "net.retries":
                ctx.session.network.metrics.counter("network.retries"),
            "update_p50_ms": median(out.updates.scaled()),
            "update_p95_ms": percentile(out.updates.scaled(), 95),
            "routing.subtrees_pruned_per_answer":
                sum(r.exchange.subtrees_pruned for r in results) / n,
            "routing.neighbours_pruned_per_answer":
                sum(r.exchange.neighbours_pruned for r in results) / n,
            "routing.neighbours_contacted_per_answer": contacted / n,
            "routing.prune_ratio": pruned / max(pruned + contacted, 1),
            "storage.disk_bytes_per_update": grown / len(out.updates.ms),
            "storage.disk_bytes_end": size,
        }
        return out, layer


WORKLOADS = {w.name: w for w in (
    EvalWorkload(
        "asp_search",
        "64 stable models: datalog.stable search, model decoding and the "
        "Definition-5 intersection do nearly all the work; grounding is "
        "a few percent and the network does nothing",
        build=seeded_conflict_system, expected=conflict_expected,
        peer="P1", relation="R1", method="asp", resolves_to="asp",
        cross_method="rewrite", min_ops=24),
    EvalWorkload(
        "asp_ground",
        "one model and about 2000 ground atoms: datalog.grounding and "
        "spec building dominate and the stratified fast path skips the "
        "search, so it moves opposite to asp_search",
        build=lambda seed: import_star_system(250, 3, seed=seed),
        expected=import_expected,
        peer="P0", relation="R0", method="asp", resolves_to="asp",
        cross_method="rewrite", min_ops=24),
    EvalWorkload(
        "rewrite_scan",
        "the default path: method=auto resolves to rewrite, exercising "
        "core.fo_rewriting and the relational planner and never "
        "datalog, so it is the control for every datalog change",
        build=lambda seed: import_star_system(1600, 3, seed=seed),
        expected=import_expected,
        peer="P0", relation="R0", method="auto", resolves_to="rewrite",
        cross_method="asp", min_ops=60),
    WireCold(),
    WireServe(),
    RoutedUpdate(),
)}
