"""Command line harness.

Subcommands:
  keygen         write node/client keypairs and pairwise MAC secrets
  node           run one TCP replica until signaled
  loadgen        drive TCP clients against a running deployment, emit CSVs
  simulate       run a .scn scenario in the deterministic simulator
  compare-modes  identical workload under the three crypto modes

Deployment file (JSON): {"n": 4, "f": 1, "mode": "mac_inter_node",
"keys": "keys", "nodes": {"0": "127.0.0.1:7000", ...}, "clients": [4, 5]}

Scenario file (.scn): one `key=value` per line, `#` comments. Keys: n, f,
seed, mode, num_clients, requests_per_client, drop, latency (min,max),
payload_size, batch_size, view_change_timeout, auth (true | false: every
message signed, or nothing), fault (none | crash:<node>:<time> |
mute:<node> | equivocate:<node> | forge_vc:<node>, repeatable with `;`),
expect_committed, expect_view, expect_max_view. Any other key, a value
that does not parse, or one the simulator or replica config rejects
(`batch_size=0`, a fault on a node outside 0..n-1) is an error: `simulate`
prints it and exits 2, as `node` does for a bad deployment file.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import signal
import sys
import time
from collections import deque

from .. import crypto
from ..replica import check_group
from ..simnet import (CRASH_AT, EQUIVOCATE, FORGE_VC, MUTE, NonQuiescent,
                      SimConfig, World, trace_line, trace_lines)

log = logging.getLogger("pbftkit")

_MODES = {m.value: m for m in crypto.CryptoMode}


def _load_deployment(path):
    try:
        with open(path) as fh:
            dep = json.load(fh)
        nodes = {int(k): tuple([v.rsplit(":", 1)[0],
                                int(v.rsplit(":", 1)[1])])
                 for k, v in dep["nodes"].items()}
        n, f = int(dep["n"]), int(dep["f"])
        check_group(n, f)
        return {
            "n": n,
            "f": f,
            "mode": _MODES[dep.get("mode", "mac_inter_node")],
            "keys": dep.get("keys"),
            "nodes": nodes,
            "clients": [int(c) for c in dep.get("clients", [])],
            "batch_size": int(dep.get("batch_size", 1)),
        }
    except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
        print(f"bad deployment file {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _keystores(dep, ids) -> dict:
    """{id: KeyStore or None without keys}; a bad key directory exits 2."""
    if not dep["keys"]:
        return dict.fromkeys(ids)
    try:
        return {i: crypto.load_keystore(dep["keys"], i) for i in ids}
    except (OSError, ValueError, crypto.KeyMissing) as exc:
        print(f"cannot load keys: {exc}", file=sys.stderr)
        raise SystemExit(2)


def cmd_keygen(args):
    try:
        crypto.generate_deployment_keys(args.n, args.clients, args.outdir,
                                        force=args.force)
    except FileExistsError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(f"wrote keys for {args.n} nodes and {args.clients} clients "
          f"to {args.outdir}")
    return 0


def cmd_node(args):
    from ..pipeline import PipelineConfig, run_pipeline
    from ..replica import Replica, ReplicaConfig
    from ..tcpnet import TcpFabric

    dep = _load_deployment(args.deployment)
    if args.id not in dep["nodes"]:
        print(f"node id {args.id} not in deployment", file=sys.stderr)
        return 2
    try:
        cfg = ReplicaConfig(n=dep["n"], f=dep["f"], self_id=args.id,
                            mode=dep["mode"], batch_size=dep["batch_size"],
                            batch_timeout=0.005, view_change_timeout=5.0)
    except ValueError as exc:
        print(f"bad deployment file {args.deployment}: {exc}", file=sys.stderr)
        return 2
    keystore = _keystores(dep, [args.id])[args.id]
    try:
        fabric = TcpFabric(args.id, dep["nodes"], client_ids=dep["clients"])
    except OSError as exc:
        print(f"cannot bind: {exc}", file=sys.stderr)
        return 2
    pipe = run_pipeline(PipelineConfig(), fabric,
                        Replica(cfg, keystore=keystore))
    stop = {"flag": False}

    def _sig(_s, _f):
        stop["flag"] = True

    signal.signal(signal.SIGTERM, _sig)
    signal.signal(signal.SIGINT, _sig)
    log.info("node %d serving (leader=%s)", args.id,
             args.id == 0)
    try:
        while not stop["flag"]:
            time.sleep(0.2)
    finally:
        pipe.stop()  # the table is whole once the loop has stopped
        if args.stages_out:
            pipe.metrics.write_csv(args.stages_out)
        fabric.close()
    return 0


def cmd_loadgen(args):
    from ..client import ClientSession
    from ..tcpnet import TcpFabric
    from .local import LoadClient, RunReport, run_clients

    dep = _load_deployment(args.deployment)
    n, f = dep["n"], dep["f"]
    keystores = _keystores(dep, dep["clients"] or [n])
    failed = 0
    fabrics, clients = [], []
    try:
        for cid, ks in keystores.items():
            fabric = TcpFabric(cid, dep["nodes"])
            fabrics.append(fabric)
            if not fabric.wait_connected(list(dep["nodes"]), timeout=10.0):
                reachable = sum(fabric.connected(i) for i in dep["nodes"])
                if reachable < f + 1:
                    print(f"client {cid}: only {reachable} replicas "
                          f"reachable", file=sys.stderr)
                    failed += 1
                    continue
            clients.append(LoadClient(
                ClientSession(cid, n, f, dep["mode"], keystore=ks), fabric))
        lat, window = run_clients(clients, args.value_size, args.outstanding,
                                  args.warmup, args.duration,
                                  args.request_timeout)
    finally:
        for fabric in fabrics:
            fabric.close()
    report = RunReport(completed=len(lat),
                       failed=failed + sum(c.failed for c in clients))
    report.add_latencies(lat, window, args.value_size)
    report.write_csv(args.out)
    print(f"completed={report.completed} throughput={report.throughput:.1f} "
          f"ops/s median={report.latency_median * 1e3:.2f} ms "
          f"p99={report.latency_p99 * 1e3:.2f} ms -> {args.out}/")
    return 0 if report.completed else 1


_FAULTS = {"crash": CRASH_AT, "mute": MUTE, "equivocate": EQUIVOCATE,
           "forge_vc": FORGE_VC}


def _faults(text) -> dict:
    faults = {}
    for spec in text.split(";"):
        spec = spec.strip()
        if spec and spec != "none":
            kind, node, *at = spec.split(":")  # only a crash takes a time
            if len(at) != (kind == "crash"):
                raise ValueError(f"bad fault {spec!r}")
            faults[int(node)] = (_FAULTS[kind], *map(float, at))
    return faults


def _latency(text) -> tuple:
    lo, hi = map(float, text.split(","))
    return lo, hi


# Scenario key -> (SimConfig field, parser); a key left out keeps the default.
_SCENARIO_FIELDS = {
    "n": ("n", int), "f": ("f", int), "seed": ("seed", int),
    "num_clients": ("num_clients", int), "drop": ("drop_prob", float),
    "requests_per_client": ("requests_per_client", int),
    "payload_size": ("payload_size", int), "batch_size": ("batch_size", int),
    "view_change_timeout": ("view_change_timeout", float),
    "mode": ("mode", _MODES.__getitem__), "latency": ("latency", _latency),
    "fault": ("faults", _faults),
    "auth": ("auth", lambda value: {"true": True, "false": False}[value])}
_EXPECT_KEYS = {"expect_committed", "expect_view", "expect_max_view"}


def parse_scenario(path) -> tuple:
    """Parse a .scn file; returns (SimConfig, expectations dict). Raises
    ValueError naming the first unknown key or value that does not parse."""
    opts, expect = {}, {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key in _EXPECT_KEYS:
                expect[key[7:]] = value
            elif key not in _SCENARIO_FIELDS:
                raise ValueError(f"unknown scenario key {key!r}")
            else:
                field, parse = _SCENARIO_FIELDS[key]
                try:
                    opts[field] = parse(value)
                except (KeyError, ValueError) as exc:
                    raise ValueError(f"bad {key!r} value {value!r}") from exc
    try:
        return SimConfig(**opts), expect
    except ValueError as exc:  # name the key as the scenario spells it
        message = str(exc)
        for key, (field, _) in _SCENARIO_FIELDS.items():
            message = message.replace(repr(field), repr(key))
        raise ValueError(message) from None


def evaluate_scenario(world: World, expect: dict):
    """Check a finished world against the expectations; returns problems."""
    problems = []
    try:
        world.check_agreement()
        world.check_validity()
        world.check_total_order()
        world.check_exactly_once()
    except AssertionError as exc:
        problems.append(f"safety: {exc}")
    live = [i for i in range(world.config.n)
            if not world.nodes[i].crashed and i not in world.config.faults]
    if "committed" in expect:
        want = int(expect["committed"])
        for i in live:
            got = world.total_requests_committed(i)
            if got != want:
                problems.append(f"node {i} committed {got} != {want}")
    if "view" in expect:
        want = int(expect["view"])
        views = {world.nodes[i].replica.view for i in live}
        if views != {want}:
            problems.append(f"live views {sorted(views)} != {{{want}}}")
    if "max_view" in expect:
        want = int(expect["max_view"])
        worst = max(world.nodes[i].replica.view for i in live)
        if worst > want:
            problems.append(f"view reached {worst} > {want}")
    return problems


def cmd_simulate(args):
    try:
        cfg, expect = parse_scenario(args.scenario)
        world = World(cfg)  # the replica config checks its own values
    except ValueError as exc:
        print(f"bad scenario {args.scenario}: {exc}", file=sys.stderr)
        return 2
    try:
        world.run(until=args.until)
    except NonQuiescent:
        print("FAIL: simulation did not quiesce", file=sys.stderr)
        return 1
    problems = evaluate_scenario(world, expect)
    if args.trace:
        with open(args.trace, "w") as fh:
            # The lines joined by newlines, plus one at the end.
            lines = map(trace_line, world.trace)
            fh.write(next(lines, ""))
            for line in lines:
                fh.write("\n" + line)
            fh.write("\n")
    if problems:
        print("FAIL:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        for line in trace_lines(deque(world.trace, maxlen=20)):
            print(f"  | {line}", file=sys.stderr)
        return 1
    committed = max(world.total_requests_committed(i)
                    for i in world.correct_nodes())
    print(f"PASS: {committed} requests committed, "
          f"max view {world.max_view()}")
    return 0


# Clients of a timed run, each with one request outstanding.
TIMED_CLIENTS = 20


def timed_run(n: int, f: int, mode: crypto.CryptoMode, total_requests: int,
              batch_size: int = 1, value_size: int = 512) -> dict:
    """Commit ``total_requests`` on a zero-latency World and time its run
    on the wall clock. Every hop pays the real codec and authenticators in
    one thread, so modes differ by their crypto work, not by scheduling.
    Client requests are signed before the window opens, the way a load
    generator's would arrive already signed."""
    if total_requests <= 0 or total_requests % TIMED_CLIENTS:
        raise ValueError(f"requests must be a positive multiple of "
                         f"{TIMED_CLIENTS}, not {total_requests}")
    world = World(SimConfig(
        n=n, f=f, mode=mode, latency=(0.0, 0.0),
        num_clients=TIMED_CLIENTS,
        requests_per_client=total_requests // TIMED_CLIENTS,
        payload_size=value_size, batch_size=batch_size, batch_timeout=0.002,
        view_change_timeout=30.0))
    for cl in world.clients.values():
        cl.requests = iter(list(cl.requests))
    t0 = time.perf_counter()
    world.run()
    elapsed = time.perf_counter() - t0
    completed = sum(len(cl.session.completions)
                    for cl in world.clients.values())
    return {
        "completed": completed,
        "elapsed": elapsed,
        "throughput": completed / elapsed if elapsed > 0 else 0.0,
        "pre_prepares": sum(node.replica.counters["pre_prepares"]
                            for node in world.nodes.values()),
    }


def compare_modes(n: int = 4, f: int = 1, value_size: int = 512,
                  total_requests: int = 2000, batch_size: int = 1) -> dict:
    """Identical workload under the three modes; returns per-mode results."""
    return {mode.name: timed_run(n, f, mode, total_requests,
                                 batch_size=batch_size, value_size=value_size)
            for mode in (crypto.CryptoMode.DOMAIN_OPTIMIZED,
                         crypto.CryptoMode.MAC_INTER_NODE,
                         crypto.CryptoMode.PK_ONLY)}


def cmd_compare_modes(args):
    try:
        res = compare_modes(n=args.n, f=args.f, value_size=args.value_size,
                            total_requests=args.requests,
                            batch_size=args.batch_size)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    d = res["DOMAIN_OPTIMIZED"]["throughput"]
    m = res["MAC_INTER_NODE"]["throughput"]
    p = res["PK_ONLY"]["throughput"]
    print(f"{'mode':<18}{'ops/s':>10}")
    for name, r in res.items():
        print(f"{name:<18}{r['throughput']:>10.1f}")
    print(f"measured ratios: domain/mac={d / m:.2f} mac/pk={m / p:.2f}")
    print("reference ratios at 15 nodes, 512 B: "
          "domain/mac=5.91 mac/pk=3.49")
    ok = d > m > p and d / m >= 2 and m / p >= 2
    print("ordering with >=2x spacing:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pbftkit", description="BFT replication benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate deployment keys")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--clients", type=int, default=1)
    p.add_argument("--outdir", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("node", help="run one TCP replica")
    p.add_argument("--deployment", required=True)
    p.add_argument("--id", type=int, required=True)
    p.add_argument("--stages-out", default=None,
                   help="write stage metrics CSV here on exit")
    p.set_defaults(func=cmd_node)

    p = sub.add_parser("loadgen", help="drive clients against a deployment")
    p.add_argument("--deployment", required=True)
    p.add_argument("--duration", type=float, default=30.0)
    p.add_argument("--warmup", type=float, default=10.0)
    p.add_argument("--value-size", type=int, default=512)
    p.add_argument("--outstanding", type=int, default=4)
    p.add_argument("--request-timeout", type=float, default=5.0)
    p.add_argument("--out", default="bench-out")
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser("simulate", help="run a .scn scenario")
    p.add_argument("scenario")
    p.add_argument("--until", type=float, default=None)
    p.add_argument("--trace", default=None,
                   help="write the full event trace here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare-modes",
                       help="same workload under all three crypto modes")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--f", type=int, default=1)
    p.add_argument("--value-size", type=int, default=512)
    p.add_argument("--requests", type=int, default=2000,
                   help="a positive multiple of 20")
    p.add_argument("--batch-size", type=int, default=1)
    p.set_defaults(func=cmd_compare_modes)

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=os.environ.get("PBFTKIT_LOG", "WARNING").upper())
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
