"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``query SYSTEM.json PEER QUERY [--method M] [--brave] [--json]``
    Answer a query posed to a peer of a JSON-defined system
    (see :mod:`repro.core.io` for the file format) in-process.
    ``--method auto`` (the default) picks FO rewriting when it applies
    and falls back to ASP; any registered answer method can be named.

``network SYSTEM.json PEER QUERY [--latency MS] [--drop P] [--seed N]
[--hops N] [--retries N] [--data-dir DIR] [--timeout S] [--routing]
[--tracing] [--method M] [--brave] [--json]``
    Answer a query over the in-process :mod:`repro.net` peer network
    runtime and print the exchange trace — the actual protocol messages
    that flowed.  ``--latency`` and
    ``--drop`` inject per-link delay and seeded message loss through a
    :class:`~repro.net.transport.ThreadedTransport`; without them the
    zero-overhead loopback transport is used.  ``--data-dir`` makes
    every node durable under ``DIR/<peer>/`` (facts in a delta-log +
    snapshot store, answers cached by content version): re-running the
    same query against the same directory answers from disk without a
    single message, and after editing the system file the nodes sync by
    versioned deltas.  ``--tracing`` also renders the distributed span
    tree — every hop's gather, per-neighbour fetches, and local
    evaluation, with durations and the critical path starred — plus the
    per-phase timing breakdown.  Network failures (peer down, hop budget
    exhausted) are reported as typed errors, exit 3.

``serve SYSTEM.json PEER [--host H] [--port N] [--peers SPEC]
[--data-dir DIR] [--hops N] [--retries N] [--timeout S] [--method M]
[--snapshot-every N]``
    Run one peer of the system as a standalone server process speaking
    the :mod:`repro.wire` frame protocol over TCP.  ``--peers`` names
    the other peers' addresses (``P2=host:port,P3=host:port``); the
    server prints ``READY <peer> <host>:<port>`` once listening and
    serves until SIGTERM/SIGINT, flushing durable state on the way out.
    ``--port 0`` picks a free port.  Normally launched by the
    ``cluster`` supervisor, but addresses can be wired by hand across
    machines.

``cluster SYSTEM.json PEER QUERY [--method M] [--brave] [--data-dir
DIR] [--hops N] [--retries N] [--timeout S] [--host H] [--json]``
    Launch every peer of the system as an independent OS process
    (``serve`` under a supervisor), answer the query at ``PEER``
    through a client session speaking only the wire protocol, print the
    result plus the client-observed exchange, and shut the cluster
    down.  With ``--data-dir`` the peer processes are durable: a
    re-run against the same directory restarts them warm and re-syncs
    by versioned deltas.

``metrics ADDR [--timeout S] [--json]``
    Ask one running peer server what it is doing: dial ``host:port``,
    send a ``GetStatus`` probe, and print the process's live counters,
    gauges, and latency-histogram summaries (connections, queue depth,
    sheds, retries, queue-wait/execute percentiles).

``store DATA_DIR [--json]``
    Inspect a ``--data-dir`` directory: per peer, the stored content
    version, delta-log sequence, pending (uncompacted) log entries, row
    counts, and cached answers.

``solutions SYSTEM.json PEER [--transitive]``
    Print the solutions for a peer (Definition 4, or the Section 4.3
    global solutions with ``--transitive``).

``methods``
    List the registered answer methods.

``examples``
    Run the bundled example scripts.  They are located relative to the
    installed package (``examples/`` lives next to the ``src`` tree in a
    source checkout) and loaded by file path — no ``sys.path`` mutation.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from pathlib import Path


def _script_dir() -> Path:
    """The repo-level ``examples`` directory, resolved relative to this
    package (``<root>/src/repro/__main__.py`` → ``<root>/examples``)."""
    root = Path(__file__).resolve().parent.parent.parent
    directory = root / "examples"
    if not directory.is_dir():
        raise FileNotFoundError(
            f"no examples/ directory next to the package "
            f"(looked at {directory}); run from a source checkout")
    return directory


def _load_script(name: str):
    path = _script_dir() / f"{name}.py"
    if not path.exists():
        return None, str(path)
    spec = importlib.util.spec_from_file_location(f"examples_{name}",
                                                  str(path))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, str(path)


def _print_result(result, args: argparse.Namespace,
                  extra: dict | None = None) -> int:
    import json as json_
    if args.json:
        payload = result.to_dict()
        if extra:
            payload.update(extra)
        print(json_.dumps(payload, indent=2, sort_keys=True))
        if result.failed:
            return 3
        return 1 if result.no_solutions else 0
    if result.failed:
        print(f"network failure [{result.error.code}] at "
              f"{result.error.peer or args.peer}: {result.error.message}")
        return 3
    if result.no_solutions:
        print(f"peer {args.peer} has NO solutions "
              f"(contradictory exchange constraints)")
        return 1
    kind = "possible" if args.brave else "peer consistent"
    print(f"{kind} answers to {result.query} at {args.peer} "
          f"(method={result.method_used}):")
    for row in sorted(result.answers):
        print("  " + ", ".join(str(v) for v in row))
    if not result.answers:
        print("  (none)")
    count = ("not counted (rewriting answers without enumerating "
             "solutions)" if result.solution_count is None
             else str(result.solution_count))
    print(f"solutions certifying: {count}")
    exchange = result.exchange
    hops = (f", max {exchange.max_hops} hop(s)"
            if exchange.max_hops > 1 else "")
    print(f"elapsed: {result.elapsed * 1000:.1f} ms; peer requests: "
          f"{exchange.requests} ({exchange.tuples_transferred} tuples, "
          f"~{exchange.bytes_estimate} B{hops})")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from .core import PeerQuerySession, load_system
    session = PeerQuerySession(load_system(args.system))
    semantics = "possible" if args.brave else "certain"
    # --brave --method rewrite is rejected by the method itself
    # (P2PError), rendered as a clean `error:` line by main()
    result = session.answer(args.peer, args.query,
                            method=args.method, semantics=semantics)
    return _print_result(result, args)


def _cmd_network(args: argparse.Namespace) -> int:
    from .core import load_system
    from .net import (LoopbackTransport, NetworkError, NetworkSession,
                      ThreadedTransport)
    if not 0.0 <= args.drop < 1.0:
        raise NetworkError("--drop must be in [0, 1)")
    if args.latency < 0:
        raise NetworkError("--latency must be >= 0")
    system = load_system(args.system)
    if args.latency or args.drop:
        transport = ThreadedTransport(latency=args.latency / 1000.0,
                                      drop_rate=args.drop,
                                      seed=args.seed)
    else:
        transport = LoopbackTransport()
    semantics = "possible" if args.brave else "certain"
    with NetworkSession(system, transport=transport,
                        hop_budget=args.hops, retries=args.retries,
                        timeout=args.timeout,
                        data_dir=args.data_dir,
                        routing=args.routing,
                        tracing=args.tracing) as session:
        if args.data_dir:
            # durable nodes resume from disk; the CLI treats the system
            # file as the operator's source of truth, so push its state
            # — a no-op when unchanged (caches stay warm), a logged
            # delta when the file was edited (neighbours then sync by
            # delta instead of re-fetching full relations)
            session.use_system(system)
        result = session.answer(args.peer, args.query,
                                method=args.method, semantics=semantics)
        trace = session.exchange_log.events()
        status = _print_result(result, args, extra={
            "exchange_trace": [
                {"requester": event.requester,
                 "provider": event.provider,
                 "relation": event.relation,
                 "tuples": event.tuples_transferred,
                 "bytes_estimate": event.bytes_estimate,
                 "purpose": event.purpose,
                 "hop": event.hop,
                 "timestamp": round(event.timestamp, 6)}
                for event in trace],
        })
        if not args.json:
            print(f"exchange trace ({len(trace)} message(s)):")
            for event in trace:
                print(f"  {event}")
            if not trace:
                print("  (no messages)")
            if result.trace:
                _print_trace(result)
    return status


def _print_trace(result) -> None:
    """Render a traced result's span tree, critical path, and
    per-phase timings (shared by `network` and `cluster`)."""
    from .obs import TraceCollector
    collector = TraceCollector(result.trace)
    print(f"trace ({len(result.trace)} span(s), "
          f"depth {collector.depth()}; * = critical path):")
    print(collector.render())
    critical = collector.critical_path()
    if critical:
        print("critical path: "
              + " -> ".join(f"{span.name}@{span.peer}"
                            for span in critical))
    if result.timings:
        parts = ", ".join(f"{name}={value * 1000:.1f} ms"
                          for name, value in result.timings.items())
        print(f"timings: {parts}")


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json as json_
    from .wire import fetch_status
    status = fetch_status(args.address, timeout=args.timeout)
    if args.json:
        print(json_.dumps(status, indent=2, sort_keys=True))
        return 0
    print(f"unit {status.get('unit', '?')} (peer "
          f"{status.get('peer', '?')}) at "
          f"{status.get('address', args.address)}:")
    metrics = status.get("metrics", {})
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    summaries = metrics.get("summaries", {})
    for name in sorted(counters):
        print(f"  {name} = {counters[name]}")
    for name in sorted(gauges):
        print(f"  {name} = {gauges[name]:g} (gauge)")
    for name in sorted(summaries):
        summary = summaries[name]
        print(f"  {name}: count={summary['count']} "
              f"mean={summary['mean'] * 1000:.2f}ms "
              f"p50={summary['p50'] * 1000:.2f}ms "
              f"p90={summary['p90'] * 1000:.2f}ms "
              f"p99={summary['p99'] * 1000:.2f}ms")
    if not (counters or gauges or summaries):
        print("  (no activity yet)")
    return 0


def _parse_peer_addresses(spec: str) -> dict:
    """``"P1=h:p,P2=h:p"`` → ``{"P1": "h:p", "P2": "h:p"}``."""
    from .wire import WireProtocolError
    addresses = {}
    for entry in filter(None, (part.strip()
                               for part in spec.split(","))):
        peer, sep, address = entry.partition("=")
        if not sep or not peer or not address:
            raise WireProtocolError(
                f"--peers entries must look like PEER=host:port, got "
                f"{entry!r}")
        addresses[peer.strip()] = address.strip()
    return addresses


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    from .core import load_system
    from .wire import PeerServer
    system = load_system(args.system)
    shard_map = None
    if args.shard_map:
        from .shard import ShardMap
        shard_map = ShardMap.from_json(args.shard_map)
    server = PeerServer(
        system, args.peer, host=args.host, port=args.port,
        addresses=_parse_peer_addresses(args.peers),
        data_dir=args.data_dir, hop_budget=args.hops,
        retries=args.retries, timeout=args.timeout,
        default_method=args.method,
        snapshot_every=args.snapshot_every,
        workers=args.workers, pending_limit=args.pending_limit,
        idle_timeout=args.idle_timeout,
        shard_map=shard_map, shard_index=args.shard,
        replica_index=args.replica,
        routing=args.routing, tracing=args.tracing)
    # SIGTERM (the supervisor's stop signal) must run the same cleanup
    # as Ctrl-C: a durable node flushes its caches only on a clean
    # shutdown, which is what makes the next start a warm restart
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    print(f"READY {server.unit} {server.address}", flush=True)
    try:
        server.serve_forever()
    except (KeyboardInterrupt, SystemExit):
        pass
    finally:
        server.shutdown()
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from .wire import open_wire_session
    semantics = "possible" if args.brave else "certain"
    with open_wire_session(args.system, host=args.host,
                           data_dir=args.data_dir,
                           hop_budget=args.hops, retries=args.retries,
                           timeout=args.timeout,
                           routing=args.routing,
                           tracing=args.tracing) as session:
        peers = session.peers()
        if not args.json:
            print(f"cluster up: {len(peers)} peer process(es) "
                  f"[{', '.join(peers)}]")
        result = session.answer(args.peer, args.query,
                                method=args.method,
                                semantics=semantics)
        status = _print_result(result, args)
        if not args.json:
            for event in session.exchange_log.events():
                print(f"  {event}")
            if result.trace:
                _print_trace(result)
    return status


def _cmd_store(args: argparse.Namespace) -> int:
    import json as json_
    from .storage import describe_data_dir
    described = describe_data_dir(args.data_dir)
    if args.json:
        print(json_.dumps(described, indent=2, sort_keys=True))
        return 0 if described else 1
    if not described:
        print(f"no peer stores under {args.data_dir}")
        return 1
    print(f"data directory: {args.data_dir}")
    for peer, info in described.items():
        relations = ", ".join(f"{name}={count}" for name, count
                              in info["relations"].items()) or "(empty)"
        print(f"  {peer}: version={info['version']} seq={info['seq']} "
              f"pending-log={info['pending_log_entries']} "
              f"answers={info['cached_answers']}")
        print(f"    relations: {relations}")
    return 0


def _cmd_solutions(args: argparse.Namespace) -> int:
    from .core import PeerQuerySession, load_system
    system = load_system(args.system)
    session = PeerQuerySession(system)
    method = "transitive" if args.transitive else "asp"
    solutions = session.solutions(args.peer, method=method)
    flavour = "global" if args.transitive else "direct"
    print(f"{len(solutions)} {flavour} solution(s) for {args.peer}:")
    for index, solution in enumerate(solutions, 1):
        print(f"  {index}: {solution}")
    return 0 if solutions else 1


def _cmd_methods(_args: argparse.Namespace) -> int:
    from .core import available_methods, get_method
    print("registered answer methods:")
    for name in available_methods():
        method = get_method(name)
        doc = ((method.__doc__ or "").strip().splitlines() or [""])[0]
        counted = ("enumerates solutions" if method.enumerates_solutions
                   else "does not enumerate solutions")
        print(f"  {name:10s} {doc} [{counted}]")
    return 0


def _cmd_examples(_args: argparse.Namespace) -> int:
    for name in ["quickstart", "referential_exchange",
                 "transitive_network", "trading_network"]:
        try:
            module, path = _load_script(name)
        except Exception as exc:
            print(f"[skip] {name}: {exc}")
            continue
        if module is None:
            print(f"[skip] {name}: not found at {path}")
            continue
        module.main()
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .core import available_methods
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Peer-to-peer data exchange query answering "
                    "(Bertossi & Bravo, EDBT 2004 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    query = sub.add_parser("query", help="answer a query at a peer")
    query.add_argument("system", help="JSON system definition")
    query.add_argument("peer")
    query.add_argument("query", help='e.g. "q(X, Y) := R1(X, Y)"')
    query.add_argument("--method", default="auto",
                       choices=list(available_methods()))
    query.add_argument("--brave", action="store_true",
                       help="possible (brave) answers instead of certain")
    query.add_argument("--json", action="store_true",
                       help="print the full QueryResult as JSON")
    query.set_defaults(func=_cmd_query)

    network = sub.add_parser(
        "network",
        help="answer a query over the peer network runtime and print "
             "the exchange trace")
    network.add_argument("system", help="JSON system definition")
    network.add_argument("peer")
    network.add_argument("query", help='e.g. "q(X, Y) := R1(X, Y)"')
    network.add_argument("--method", default="auto",
                         choices=list(available_methods()))
    network.add_argument("--brave", action="store_true",
                         help="possible (brave) answers instead of "
                              "certain")
    network.add_argument("--latency", type=float, default=0.0,
                         metavar="MS",
                         help="per-link delivery latency in ms "
                              "(ThreadedTransport)")
    network.add_argument("--drop", type=float, default=0.0, metavar="P",
                         help="seeded message drop probability in "
                              "[0, 1)")
    network.add_argument("--seed", type=int, default=0,
                         help="fault-injection RNG seed")
    network.add_argument("--hops", type=int, default=None, metavar="N",
                         help="hop budget for transitive gathers "
                              "(default: number of peers)")
    network.add_argument("--retries", type=int, default=2, metavar="N",
                         help="extra delivery attempts on transport "
                              "loss")
    network.add_argument("--data-dir", default=None, metavar="DIR",
                         help="make nodes durable under DIR/<peer>/ "
                              "(delta-log + snapshot store, persisted "
                              "answer cache, delta sync on re-runs)")
    network.add_argument("--timeout", type=float, default=None,
                         metavar="S",
                         help="end-to-end per-query budget in seconds "
                              "(expiry surfaces as a typed "
                              "deadline-exceeded error)")
    network.add_argument("--routing", default=False,
                         action=argparse.BooleanOptionalAction,
                         help="learn where the data is (content "
                              "digests + traffic mining) and skip or "
                              "shorten provably useless neighbour "
                              "exchanges; off by default — flooded "
                              "gathers are the reference behaviour")
    network.add_argument("--tracing", default=False,
                         action=argparse.BooleanOptionalAction,
                         help="record and render the distributed span "
                              "tree of the answer (gather, fetches, "
                              "local eval, per-hop serving)")
    network.add_argument("--json", action="store_true",
                         help="print the full QueryResult as JSON "
                              "including the exchange trace (and the "
                              "raw spans with --tracing)")
    network.set_defaults(func=_cmd_network)

    metrics = sub.add_parser(
        "metrics",
        help="scrape a running peer server's live metrics over the "
             "wire (GetStatus)")
    metrics.add_argument("address", metavar="ADDR",
                         help="the unit's host:port (any unit can be "
                              "probed by address alone)")
    metrics.add_argument("--timeout", type=float, default=5.0,
                         metavar="S", help="probe timeout in seconds")
    metrics.add_argument("--json", action="store_true",
                         help="print the raw status payload as JSON")
    metrics.set_defaults(func=_cmd_metrics)

    serve = sub.add_parser(
        "serve",
        help="run one peer as a wire-protocol server process")
    serve.add_argument("system", help="JSON system definition")
    serve.add_argument("peer", help="the peer this process hosts")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0, metavar="N",
                       help="listening port (0 picks a free one)")
    serve.add_argument("--peers", default="", metavar="SPEC",
                       help="other peers' addresses, e.g. "
                            "'P2=127.0.0.1:7002,P3=127.0.0.1:7003'")
    serve.add_argument("--data-dir", default=None, metavar="DIR",
                       help="durable node state under DIR/<peer>/")
    serve.add_argument("--hops", type=int, default=None, metavar="N",
                       help="hop budget for gathers (default: number "
                            "of peers in the system)")
    serve.add_argument("--retries", type=int, default=2, metavar="N",
                       help="extra delivery attempts on transport loss")
    serve.add_argument("--timeout", type=float, default=None,
                       metavar="S",
                       help="end-to-end budget for each served gather")
    serve.add_argument("--method", default="auto",
                       choices=list(available_methods()),
                       help="the node's default answer method")
    serve.add_argument("--snapshot-every", type=int, default=64,
                       metavar="N",
                       help="compact the durable delta log every N "
                            "deltas")
    serve.add_argument("--workers", type=int, default=8, metavar="N",
                       help="worker threads answering admitted "
                            "requests (the event loop itself never "
                            "blocks on one)")
    serve.add_argument("--pending-limit", type=int, default=64,
                       metavar="N",
                       help="max admitted requests queued+running at "
                            "once; beyond it requests are shed with a "
                            "retryable 'overloaded' failure")
    serve.add_argument("--idle-timeout", type=float, default=60.0,
                       metavar="S",
                       help="reclaim a connection with no traffic and "
                            "nothing in flight for this many seconds")
    serve.add_argument("--shard-map", default="", metavar="JSON",
                       help="serialized ShardMap; this process hosts "
                            "one shard slice and routes through the "
                            "sharded topology in --peers")
    serve.add_argument("--shard", type=int, default=0, metavar="S",
                       help="which shard of PEER this process hosts")
    serve.add_argument("--replica", type=int, default=0, metavar="R",
                       help="which replica of the shard this is")
    serve.add_argument("--routing", default=False,
                       action=argparse.BooleanOptionalAction,
                       help="maintain a routing index on this node and "
                            "advertise content digests to requesters")
    serve.add_argument("--tracing", default=False,
                       action=argparse.BooleanOptionalAction,
                       help="open a fresh trace for queries answered "
                            "at this node's root (traced *requests* "
                            "are always served with spans)")
    serve.set_defaults(func=_cmd_serve)

    cluster = sub.add_parser(
        "cluster",
        help="launch one process per peer and answer a query over the "
             "live cluster")
    cluster.add_argument("system", help="JSON system definition")
    cluster.add_argument("peer")
    cluster.add_argument("query", help='e.g. "q(X, Y) := R1(X, Y)"')
    cluster.add_argument("--method", default="auto",
                         choices=list(available_methods()))
    cluster.add_argument("--brave", action="store_true",
                         help="possible (brave) answers instead of "
                              "certain")
    cluster.add_argument("--host", default="127.0.0.1")
    cluster.add_argument("--data-dir", default=None, metavar="DIR",
                         help="durable peer processes under "
                              "DIR/<peer>/ (warm restarts, delta "
                              "re-sync)")
    cluster.add_argument("--hops", type=int, default=None, metavar="N")
    cluster.add_argument("--retries", type=int, default=2, metavar="N")
    cluster.add_argument("--timeout", type=float, default=None,
                         metavar="S",
                         help="end-to-end per-query budget in seconds")
    cluster.add_argument("--routing", default=False,
                         action=argparse.BooleanOptionalAction,
                         help="turn the routing index on in every "
                              "peer server process")
    cluster.add_argument("--tracing", default=False,
                         action=argparse.BooleanOptionalAction,
                         help="trace the query across every server "
                              "process and render the reassembled "
                              "span tree")
    cluster.add_argument("--json", action="store_true",
                         help="print the full QueryResult as JSON")
    cluster.set_defaults(func=_cmd_cluster)

    store = sub.add_parser(
        "store",
        help="inspect a durable node data directory (versions, logs, "
             "cached answers)")
    store.add_argument("data_dir", help="the --data-dir used by "
                                        "`network`")
    store.add_argument("--json", action="store_true",
                       help="print the description as JSON")
    store.set_defaults(func=_cmd_store)

    solutions = sub.add_parser("solutions",
                               help="print the solutions for a peer")
    solutions.add_argument("system")
    solutions.add_argument("peer")
    solutions.add_argument("--transitive", action="store_true")
    solutions.set_defaults(func=_cmd_solutions)

    methods = sub.add_parser("methods",
                             help="list the registered answer methods")
    methods.set_defaults(func=_cmd_methods)

    examples = sub.add_parser("examples",
                              help="run the bundled examples")
    examples.set_defaults(func=_cmd_examples)
    return parser


def main(argv: list[str] | None = None) -> int:
    import json
    from .core import P2PError
    from .relational.errors import RelationalError
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (P2PError, RelationalError, FileNotFoundError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
