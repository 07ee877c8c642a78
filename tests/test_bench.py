"""Benchmark harness: scenario files, CSV outputs, CDF math, CLI wiring."""

import csv
import json
import queue
import random
import socket
import time
from pathlib import Path

import pytest

from pbftkit import crypto, wire
from pbftkit.bench import cli
from pbftkit.bench.local import (LoadClient, LocalCluster, RunReport,
                                 build_cdf, percentile, run_clients)
from pbftkit.client import ClientSession
from pbftkit.crypto import CryptoMode
from pbftkit.pipeline import PipelineConfig, run_pipeline
from pbftkit.replica import Replica, ReplicaConfig
from pbftkit.simnet import (CRASH_AT, EQUIVOCATE, FORGE_VC, MUTE, SimConfig,
                            World, trace_lines)
from pbftkit.tcpnet import TcpFabric

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "pbftkit" / \
    "scenarios"


class TestScenarioParser:
    def test_full_scenario(self, tmp_path):
        scn = tmp_path / "x.scn"
        scn.write_text(
            "# comment line\n"
            "n = 7\n"
            "f = 2\n"
            "seed = 13\n"
            "mode = pk_only\n"
            "drop = 0.1   # trailing comment\n"
            "num_clients = 2\n"
            "requests_per_client = 25\n"
            "fault = crash:0:0.5; mute:3\n"
            "expect_committed = 50\n"
            "expect_view = 1\n")
        cfg, expect = cli.parse_scenario(scn)
        assert (cfg.n, cfg.f, cfg.seed) == (7, 2, 13)
        assert cfg.mode.name == "PK_ONLY"
        assert cfg.drop_prob == pytest.approx(0.1)
        assert cfg.faults == {0: (CRASH_AT, 0.5), 3: (MUTE,)}
        assert expect == {"committed": "50", "view": "1"}

    def test_defaults(self, tmp_path):
        scn = tmp_path / "min.scn"
        scn.write_text("seed=1\n")
        cfg, expect = cli.parse_scenario(scn)
        assert (cfg.n, cfg.f) == (4, 1)
        assert cfg.faults == {} and expect == {}

    def test_equivocate_fault(self, tmp_path):
        scn = tmp_path / "e.scn"
        scn.write_text("fault=equivocate:0\n")
        cfg, _ = cli.parse_scenario(scn)
        assert cfg.faults == {0: (EQUIVOCATE,)}

    def test_forge_vc_fault(self, tmp_path):
        scn = tmp_path / "v.scn"
        scn.write_text("fault=forge_vc:2\n")
        cfg, _ = cli.parse_scenario(scn)
        assert cfg.faults == {2: (FORGE_VC,)}

    def test_unknown_fault_rejected(self, tmp_path):
        scn = tmp_path / "bad.scn"
        scn.write_text("fault=meltdown:1\n")
        with pytest.raises(ValueError):
            cli.parse_scenario(scn)

    def test_bundled_scenarios_parse(self):
        files = sorted(SCENARIO_DIR.glob("*.scn"))
        assert {p.name for p in files} >= {"failfree_4.scn",
                                           "leader_crash.scn",
                                           "two_failures.scn",
                                           "equivocate.scn"}
        for path in files:
            cfg, expect = cli.parse_scenario(path)
            assert cfg.n >= 3 * cfg.f + 1
            assert expect  # every bundled scenario states expectations


class TestScenarioEvaluation:
    def test_clean_run_has_no_problems(self):
        world = World(SimConfig(auth=False, requests_per_client=5))
        world.run()
        assert cli.evaluate_scenario(world, {"committed": "5",
                                             "view": "0"}) == []

    def test_expectation_mismatch_reported(self):
        world = World(SimConfig(auth=False, requests_per_client=5))
        world.run()
        problems = cli.evaluate_scenario(world, {"committed": "99"})
        assert problems and "99" in problems[0]


class TestPercentiles:
    def test_ordering_on_random_data(self):
        rng = random.Random(3)
        vals = sorted(rng.random() for _ in range(1000))
        med = percentile(vals, 0.50)
        p95 = percentile(vals, 0.95)
        p99 = percentile(vals, 0.99)
        assert med <= p95 <= p99 <= vals[-1]

    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_nearest_rank(self):
        # The p99 of 1..100 is 99, not the maximum; the p50 of four is 2.
        assert percentile(list(range(1, 101)), 0.99) == 99
        assert percentile([1, 2, 3, 4], 0.50) == 2


class TestCdf:
    def test_monotone_and_complete(self):
        rng = random.Random(4)
        vals = sorted(rng.expovariate(1.0) for _ in range(5000))
        cdf = build_cdf(vals)
        fracs = [f for _, f in cdf]
        lats = [l for l, _ in cdf]
        assert fracs == sorted(fracs)
        assert lats == sorted(lats)
        assert fracs[-1] == 1.0
        assert lats[-1] == pytest.approx(vals[-1] * 1e6)

    def test_small_sample(self):
        cdf = build_cdf([0.001, 0.002])
        assert cdf[-1][1] == 1.0

    def test_empty(self):
        assert build_cdf([]) == []


class RecordingPort:
    """A client port for ``run_clients``, with one receive queue per
    replica (n = 4), that records every request sent. If ``answer``, it
    puts f+1 replies to each request on the receive queues of ``reply_via``
    (itself by default), then an undecodable frame and a REPLY that names
    an unknown client id."""

    def __init__(self, answer=False, reply_via=None):
        self.rx = {i: queue.Queue() for i in range(4)}
        self.answer = answer
        self.reply_via = reply_via or self
        self.sent = []

    def receive_queues(self):
        return self.rx

    def send(self, dest, frame):
        req = wire.request_from_envelope(wire.decode(frame))
        self.sent.append((dest, req.request_id))
        if not self.answer:
            return
        rx = self.reply_via.rx
        for sender, cid in ((0, req.client_id), (1, req.client_id),
                            (3, 99)):
            body = wire.ReplyBody(cid, req.request_id, 1, bytes(32))
            rx[sender].put(wire.encode(wire.WireEnvelope(
                wire.MessageKind.REPLY, 0, 1, sender, body.encode())))
        rx[2].put(b"\x00not a frame")


class TestLoadLoop:
    MODE = CryptoMode.DOMAIN_OPTIMIZED

    def test_unanswered_request_is_retransmitted_to_all_then_failed(self):
        port = RecordingPort()
        client = LoadClient(ClientSession(4, 4, 1, self.MODE,
                                          retransmit_limit=2), port)
        lat, _ = run_clients([client], value_size=8, outstanding=1,
                             warmup=0.0, duration=1.0, request_timeout=0.01)
        assert lat == []
        first = [dest for dest, rid in port.sent if rid == 0]
        # Sent to the leader, then twice to every replica; the third
        # timeout exhausts the budget.
        assert first == [0] + [0, 1, 2, 3] * 2
        assert 0 not in client.session.pending
        assert client.failed >= 1

    def test_replies_routed_by_client_id_on_the_shared_inbox(self):
        # Client 4's replies arrive on client 5's port, which the loop reads
        # through the same inbox; client 5's requests are never answered.
        port5 = RecordingPort()
        port4 = RecordingPort(answer=True, reply_via=port5)
        clients = [LoadClient(ClientSession(4, 4, 1, self.MODE), port4),
                   LoadClient(ClientSession(5, 4, 1, self.MODE), port5)]
        lat, window = run_clients(clients, value_size=8, outstanding=2,
                                  warmup=0.0, duration=0.3)
        done4, done5 = (c.session.completions for c in clients)
        assert len(lat) == len(done4) > 2 and done5 == []
        assert sorted(clients[1].session.pending) == [0, 1]
        assert all(c.failed == 0 for c in clients)
        assert 0.3 <= window < 1.0


class TestReportCsv:
    def report(self):
        lat = sorted([0.001, 0.002, 0.003, 0.004])
        return RunReport(throughput=250.0, latency_mean=0.0025,
                         latency_median=0.002, latency_p95=0.004,
                         latency_p99=0.004, cdf=build_cdf(lat),
                         goodput_gbps=250 * 512 * 8 / 1e9,
                         completed=1000, failed=0, rejected=2,
                         view_changes=0)

    def test_summary_schema_and_goodput(self, tmp_path):
        self.report().write_csv(tmp_path)
        with open(tmp_path / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        row = rows[0]
        assert float(row["throughput_ops"]) == 250.0
        assert int(row["completed"]) == 1000
        # goodput is committed payload bits per second
        assert float(row["goodput_gbps"]) == pytest.approx(
            250.0 * 512 * 8 / 1e9, rel=1e-3)

    def test_cdf_file_monotone(self, tmp_path):
        self.report().write_csv(tmp_path)
        with open(tmp_path / "latency_cdf.csv") as fh:
            rows = list(csv.DictReader(fh))
        fracs = [float(r["cumulative_fraction"]) for r in rows]
        assert fracs == sorted(fracs)
        assert fracs[-1] == 1.0


class TestCli:
    def test_simulate_passes_bundled_failfree(self, capsys):
        rc = cli.main(["simulate", str(SCENARIO_DIR / "failfree_4.scn")])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_simulate_fail_exit_code(self, tmp_path, capsys):
        scn = tmp_path / "impossible.scn"
        scn.write_text("auth=false\nrequests_per_client=5\n"
                       "expect_committed=9999\n")
        rc = cli.main(["simulate", str(scn)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "FAIL" in err
        # The failure ends with the world's last 20 trace lines.
        world = World(cli.parse_scenario(scn)[0])
        world.run()
        tail = [f"  | {line}" for line in trace_lines(world.trace)[-20:]]
        assert err.splitlines()[-20:] == tail

    def test_simulate_writes_trace(self, tmp_path):
        scn = tmp_path / "t.scn"
        scn.write_text("auth=false\nrequests_per_client=2\n"
                       "expect_committed=2\n")
        trace = tmp_path / "trace.txt"
        rc = cli.main(["simulate", str(scn), "--trace", str(trace)])
        assert rc == 0
        assert "event=committed" in trace.read_text()
        world = World(cli.parse_scenario(scn)[0])
        world.run()
        assert trace.read_text() == "\n".join(trace_lines(world.trace)) + "\n"

    # An unknown key, or a value that does not parse, is named, not raised.
    @pytest.mark.parametrize("key, value", [
        ("client_auth", "false"), ("reqests_per_client", "false"),
        ("mode", "pk"), ("fault", "crash:1"), ("fault", "mute"),
        ("latency", "0.001"), ("batch_size", "0"), ("auth", "ture"),
        ("fault", "crash:9:1.0"), ("fault", "mute:4"),
        ("latency", "-0.01,0.001"), ("payload_size", "-1"),
        ("num_clients", "-1"), ("view_change_timeout", "0"),
        ("drop", "1.5"), ("drop", "-0.5"), ("requests_per_client", "-3")],
        ids=["client_auth", "reqests_per_client", "mode=pk", "fault=crash:1",
             "fault=mute", "latency=0.001", "batch_size=0", "auth=ture",
             "fault=crash:9:1.0", "fault=mute:4", "latency=-0.01,0.001",
             "payload_size=-1", "num_clients=-1", "view_change_timeout=0",
             "drop=1.5", "drop=-0.5", "requests_per_client=-3"])
    def test_simulate_unknown_key_exits_2(self, tmp_path, capsys, key, value):
        scn = tmp_path / "typo.scn"
        scn.write_text(f"auth=false\n{key}={value}\nexpect_committed=10\n")
        assert cli.main(["simulate", str(scn)]) == 2
        assert repr(key) in capsys.readouterr().err

    def test_bad_deployment_exits_2(self, tmp_path):
        dep = tmp_path / "dep.json"
        dep.write_text("{not json")
        with pytest.raises(SystemExit) as exc:
            cli.main(["node", "--deployment", str(dep), "--id", "0"])
        assert exc.value.code == 2

    def test_node_rejects_bad_batch_size(self, tmp_path, capsys):
        # The config is checked before the node binds: with its port taken,
        # a node that bound first would fail on the port instead.
        with socket.create_server(("127.0.0.1", 0)) as taken:
            addr = f"127.0.0.1:{taken.getsockname()[1]}"
            dep = tmp_path / "dep.json"
            dep.write_text(json.dumps({"n": 4, "f": 1, "batch_size": 0,
                                       "nodes": {str(i): addr
                                                 for i in range(4)}}))
            assert cli.main(["node", "--deployment", str(dep),
                             "--id", "0"]) == 2
        assert "'batch_size'" in capsys.readouterr().err

    def test_loadgen_completes_against_tcp_replicas(self, tmp_path):
        keys = tmp_path / "keys"
        assert cli.main(["keygen", "--n", "4", "--clients", "1",
                         "--outdir", str(keys)]) == 0
        socks = [socket.create_server(("127.0.0.1", 0)) for _ in range(4)]
        nodes = {str(i): f"127.0.0.1:{s.getsockname()[1]}"
                 for i, s in enumerate(socks)}
        for s in socks:
            s.close()
        dep = tmp_path / "dep.json"
        dep.write_text(json.dumps({"n": 4, "f": 1, "mode": "mac_inter_node",
                                   "keys": str(keys), "nodes": nodes,
                                   "clients": [4]}))
        addrs = cli._load_deployment(dep)["nodes"]
        fabrics, pipes = [], []
        out = tmp_path / "out"
        try:
            for i in range(4):
                ks = crypto.load_keystore(keys, i)
                fabrics.append(TcpFabric(i, addrs, client_ids=[4]))
                rep = Replica(ReplicaConfig(
                    n=4, f=1, self_id=i, mode=CryptoMode.MAC_INTER_NODE,
                    batch_timeout=0.005, view_change_timeout=5.0),
                    keystore=ks)
                pipes.append(run_pipeline(PipelineConfig(), fabrics[-1],
                                          rep))
            rc = cli.main(["loadgen", "--deployment", str(dep),
                           "--duration", "2", "--warmup", "0.5",
                           "--out", str(out)])
        finally:
            for pipe in pipes:
                pipe.stop()
            for fabric in fabrics:
                fabric.close()
        assert rc == 0
        with open(out / "summary.csv") as fh:
            row = next(csv.DictReader(fh))
        assert int(row["completed"]) > 0
        assert int(row["failed"]) == 0

    def test_loadgen_bad_key_directory_exits_2(self, tmp_path, capsys):
        # Keys are loaded before any connection is awaited: with no replica
        # up, a missing pairwise.bin is reported at once, not after 10 s.
        keys = tmp_path / "keys"
        assert cli.main(["keygen", "--n", "4", "--clients", "1",
                         "--outdir", str(keys)]) == 0
        (keys / "pairwise.bin").unlink()
        with socket.create_server(("127.0.0.1", 0)) as taken:
            addr = f"127.0.0.1:{taken.getsockname()[1]}"
        dep = tmp_path / "dep.json"
        dep.write_text(json.dumps({"n": 4, "f": 1, "keys": str(keys),
                                   "nodes": {str(i): addr for i in range(4)},
                                   "clients": [4]}))
        t0 = time.monotonic()
        with pytest.raises(SystemExit) as exc:
            cli.main(["loadgen", "--deployment", str(dep), "--duration",
                      "0.2", "--warmup", "0.1", "--out",
                      str(tmp_path / "out")])
        assert exc.value.code == 2
        assert time.monotonic() - t0 < 5.0
        assert "pairwise.bin" in capsys.readouterr().err

    def test_keygen_writes_keys(self, tmp_path):
        out = tmp_path / "keys"
        rc = cli.main(["keygen", "--n", "4", "--clients", "1",
                       "--outdir", str(out)])
        assert rc == 0
        assert (out / "pairwise.bin").exists()
        rc = cli.main(["keygen", "--n", "4", "--clients", "1",
                       "--outdir", str(out)])
        assert rc == 1  # refuses to overwrite without --force

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("requests", ["30", "0", "-20"])
    def test_compare_modes_requests_not_multiple_of_clients_exits_2(
            self, requests, capsys):
        assert cli.main(["compare-modes", "--requests", requests]) == 2
        assert "multiple of 20" in capsys.readouterr().err


class TestViewChangeCount:
    """One view change at n=4 is reported as 1, not as the sum of the
    replicas' views (4)."""

    def test_local_cluster(self):
        mode = CryptoMode.DOMAIN_OPTIMIZED
        cluster = LocalCluster(4, 1, mode)
        try:
            # f+1 signed VIEW_CHANGEs for view 1, made by idle copies of
            # replicas 2 and 3 and sent through their ports: every replica
            # joins, and view 1 is installed.
            for i in (2, 3):
                copy = Replica(ReplicaConfig(n=4, f=1, self_id=i, mode=mode),
                               keystore=cluster.keystores[i])
                for dests, env in copy.start_view_change().outbound:
                    for dest in dests:
                        cluster.hub.port(i).send(dest, wire.encode(env))
            deadline = time.monotonic() + 10.0
            replicas = [cluster.pipelines[i].replica for i in range(4)]
            while (any(r.view != 1 for r in replicas)
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert {r.view for r in replicas} == {1}
            assert cluster.view_changes() == 1
        finally:
            cluster.stop()
