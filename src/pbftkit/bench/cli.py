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
payload_size, batch_size, view_change_timeout, auth, fault
(none | crash:<node>:<time> | mute:<node> | equivocate:<node>, repeatable
with `;`), expect_committed, expect_view, expect_max_view.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import signal
import sys
import time
from pathlib import Path

from .. import crypto
from ..simnet import (CRASH_AT, EQUIVOCATE, MUTE, NonQuiescent, SimConfig,
                      World)

log = logging.getLogger("pbftkit")

_MODES = {m.value: m for m in crypto.CryptoMode}


def _load_deployment(path):
    try:
        with open(path) as fh:
            dep = json.load(fh)
        nodes = {int(k): tuple([v.rsplit(":", 1)[0],
                                int(v.rsplit(":", 1)[1])])
                 for k, v in dep["nodes"].items()}
        return {
            "n": int(dep["n"]),
            "f": int(dep["f"]),
            "mode": _MODES[dep.get("mode", "mac_inter_node")],
            "keys": dep.get("keys"),
            "nodes": nodes,
            "clients": [int(c) for c in dep.get("clients", [])],
            "batch_size": int(dep.get("batch_size", 1)),
        }
    except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
        print(f"bad deployment file {path}: {exc}", file=sys.stderr)
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
    from ..pipeline import PipelineConfig, StageMetrics, run_pipeline
    from ..replica import Replica, ReplicaConfig
    from ..tcpnet import TcpFabric

    dep = _load_deployment(args.deployment)
    if args.id not in dep["nodes"]:
        print(f"node id {args.id} not in deployment", file=sys.stderr)
        return 2
    keystore = None
    if dep["keys"]:
        try:
            keystore = crypto.load_keystore(dep["keys"], args.id)
        except (OSError, crypto.KeyMissing) as exc:
            print(f"cannot load keys: {exc}", file=sys.stderr)
            return 2
    try:
        fabric = TcpFabric(args.id, dep["nodes"], client_ids=dep["clients"])
    except OSError as exc:
        print(f"cannot bind: {exc}", file=sys.stderr)
        return 2
    cfg = ReplicaConfig(n=dep["n"], f=dep["f"], self_id=args.id,
                        mode=dep["mode"], batch_size=dep["batch_size"],
                        batch_timeout=0.005, view_change_timeout=5.0)
    replica = Replica(cfg, keystore=keystore)
    metrics = StageMetrics()
    pipe = run_pipeline(PipelineConfig(), fabric, replica, mode=dep["mode"],
                        keystore=keystore, metrics=metrics)
    log.info("node %d serving (leader=%s)", args.id,
             args.id == 0)
    stop = {"flag": False}

    def _sig(_s, _f):
        stop["flag"] = True

    signal.signal(signal.SIGTERM, _sig)
    signal.signal(signal.SIGINT, _sig)
    try:
        while not stop["flag"]:
            time.sleep(0.2)
    finally:
        if args.stages_out:
            metrics.write_csv(args.stages_out)
        pipe.stop()
        fabric.close()
    return 0


def cmd_loadgen(args):
    from ..client import ClientSession
    from ..tcpnet import TcpFabric
    from .local import ClientDriver, RunReport, run_drivers

    dep = _load_deployment(args.deployment)
    n, f = dep["n"], dep["f"]
    failed = 0
    fabrics, drivers = [], []
    try:
        for cid in dep["clients"] or [n]:
            fabric = TcpFabric(cid, dep["nodes"], queue_capacity=4096)
            fabrics.append(fabric)
            if not fabric.wait_connected(list(dep["nodes"]), timeout=10.0):
                reachable = sum(fabric.connected(i) for i in dep["nodes"])
                if reachable < f + 1:
                    print(f"client {cid}: only {reachable} replicas "
                          f"reachable", file=sys.stderr)
                    failed += 1
                    continue
            ks = (crypto.load_keystore(dep["keys"], cid) if dep["keys"]
                  else None)
            drivers.append(ClientDriver(
                ClientSession(cid, n, f, dep["mode"], keystore=ks), fabric,
                args.value_size, outstanding=args.outstanding,
                request_timeout=args.request_timeout))
        lat, window = run_drivers(drivers, args.warmup, args.duration)
    finally:
        for fabric in fabrics:
            fabric.close()
    report = RunReport(completed=len(lat),
                       failed=failed + sum(d.failed for d in drivers))
    report.add_latencies(lat, window, args.value_size)
    report.write_csv(args.out)
    print(f"completed={report.completed} throughput={report.throughput:.1f} "
          f"ops/s median={report.latency_median * 1e3:.2f} ms "
          f"p99={report.latency_p99 * 1e3:.2f} ms -> {args.out}/")
    return 0 if report.completed else 1


def parse_scenario(path) -> tuple:
    """Parse a .scn file; returns (SimConfig, expectations dict)."""
    opts = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            opts[key.strip()] = value.strip()
    faults = {}
    for spec in opts.get("fault", "none").split(";"):
        spec = spec.strip()
        if not spec or spec == "none":
            continue
        parts = spec.split(":")
        kind = parts[0]
        node = int(parts[1])
        if kind == "crash":
            faults[node] = (CRASH_AT, float(parts[2]))
        elif kind == "mute":
            faults[node] = (MUTE,)
        elif kind == "equivocate":
            faults[node] = (EQUIVOCATE,)
        else:
            raise ValueError(f"unknown fault {kind!r}")
    lat = tuple(float(x) for x in opts.get("latency", "0.001,0.005").split(","))
    cfg = SimConfig(
        n=int(opts.get("n", 4)),
        f=int(opts.get("f", 1)),
        seed=int(opts.get("seed", 0)),
        mode=_MODES[opts.get("mode", "mac_inter_node")],
        latency=lat,
        drop_prob=float(opts.get("drop", 0.0)),
        faults=faults,
        auth=opts.get("auth", "true").lower() == "true",
        client_auth=opts.get("client_auth", "true").lower() == "true",
        num_clients=int(opts.get("num_clients", 1)),
        requests_per_client=int(opts.get("requests_per_client", 10)),
        payload_size=int(opts.get("payload_size", 32)),
        batch_size=int(opts.get("batch_size", 1)),
        view_change_timeout=float(opts.get("view_change_timeout", 1.0)),
    )
    expect = {k[7:]: v for k, v in opts.items() if k.startswith("expect_")}
    return cfg, expect


def evaluate_scenario(world: World, expect: dict):
    """Check a finished world against the expectations; returns problems."""
    problems = []
    try:
        world.check_agreement()
        world.check_validity()
        world.check_total_order()
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
    cfg, expect = parse_scenario(args.scenario)
    world = World(cfg)
    try:
        world.run(until=args.until)
    except NonQuiescent:
        print("FAIL: simulation did not quiesce", file=sys.stderr)
        return 1
    problems = evaluate_scenario(world, expect)
    from ..simnet import trace_lines
    lines = trace_lines(world.trace)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    if problems:
        print("FAIL:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        for line in lines[-20:]:
            print(f"  | {line}", file=sys.stderr)
        return 1
    committed = max(world.total_requests_committed(i)
                    for i in world.correct_nodes())
    print(f"PASS: {committed} requests committed, "
          f"max view {world.max_view()}")
    return 0


def cmd_compare_modes(args):
    from .inline import compare_modes
    res = compare_modes(n=args.n, f=args.f, value_size=args.value_size,
                        total_requests=args.requests,
                        batch_size=args.batch_size)
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
    p.add_argument("--requests", type=int, default=2000)
    p.add_argument("--batch-size", type=int, default=1)
    p.set_defaults(func=cmd_compare_modes)

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=os.environ.get("PBFTKIT_LOG", "WARNING").upper())
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
