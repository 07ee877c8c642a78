"""Benchmark harness: scenario files, CSV outputs, CDF math, CLI wiring."""

import csv
import json
import random
import socket
import time
from collections import deque
from pathlib import Path

import pytest

from pbftkit import crypto
from pbftkit.bench import cli
from pbftkit.bench.inline import InlineCluster
from pbftkit.bench.local import LocalCluster, RunReport, build_cdf, percentile
from pbftkit.crypto import CryptoMode
from pbftkit.pipeline import PipelineConfig, run_pipeline
from pbftkit.replica import Replica, ReplicaConfig
from pbftkit.simnet import CRASH_AT, EQUIVOCATE, MUTE, SimConfig, World
from pbftkit.tcpnet import TcpFabric
from pbftkit.wire import decode, encode

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
        world = World(SimConfig(auth=False, client_auth=False,
                                requests_per_client=5))
        world.run()
        assert cli.evaluate_scenario(world, {"committed": "5",
                                             "view": "0"}) == []

    def test_expectation_mismatch_reported(self):
        world = World(SimConfig(auth=False, client_auth=False,
                                requests_per_client=5))
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


class TestReportCsv:
    def report(self):
        lat = sorted([0.001, 0.002, 0.003, 0.004])
        return RunReport(throughput=250.0, latency_mean=0.0025,
                         latency_median=0.002, latency_p95=0.004,
                         latency_p99=0.004, cdf=build_cdf(lat),
                         goodput_gbps=250 * 512 * 8 / 1e9,
                         completed=1000, failed=0, rejected=2,
                         view_changes=0,
                         stage_rows=[("decide", "PREPARE", 10, 5000, 500)])

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

    def test_stages_file_schema(self, tmp_path):
        self.report().write_csv(tmp_path)
        lines = (tmp_path / "stages.csv").read_text().splitlines()
        assert lines[0] == "stage,kind,count,total_ns,mean_ns"
        assert lines[1] == "decide,PREPARE,10,5000,500"


class TestCli:
    def test_simulate_passes_bundled_failfree(self, capsys):
        rc = cli.main(["simulate", str(SCENARIO_DIR / "failfree_4.scn")])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_simulate_fail_exit_code(self, tmp_path, capsys):
        scn = tmp_path / "impossible.scn"
        scn.write_text("auth=false\nclient_auth=false\n"
                       "requests_per_client=5\nexpect_committed=9999\n")
        rc = cli.main(["simulate", str(scn)])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().err

    def test_simulate_writes_trace(self, tmp_path):
        scn = tmp_path / "t.scn"
        scn.write_text("auth=false\nclient_auth=false\n"
                       "requests_per_client=2\nexpect_committed=2\n")
        trace = tmp_path / "trace.txt"
        rc = cli.main(["simulate", str(scn), "--trace", str(trace)])
        assert rc == 0
        assert "event=committed" in trace.read_text()

    def test_bad_deployment_exits_2(self, tmp_path):
        dep = tmp_path / "dep.json"
        dep.write_text("{not json")
        with pytest.raises(SystemExit) as exc:
            cli.main(["node", "--deployment", str(dep), "--id", "0"])
        assert exc.value.code == 2

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
                pipes.append(run_pipeline(
                    PipelineConfig(), fabrics[-1], rep,
                    mode=CryptoMode.MAC_INTER_NODE, keystore=ks))
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


class TestViewChangeCount:
    """One view change at n=4 is reported as 1, not as the sum of the
    replicas' views (4)."""

    def test_inline_cluster(self):
        cluster = InlineCluster(4, 1, CryptoMode.DOMAIN_OPTIMIZED, auth=False)
        reps = cluster.replicas
        pending = deque()

        def emit(out):
            pending.extend((d, env) for dests, env in out.outbound
                           for d in dests)

        for rep in reps.values():
            emit(rep.start_view_change())
        while pending:
            dest, env = pending.popleft()
            emit(reps[dest].on_envelope(decode(encode(env))))
        assert {rep.view for rep in reps.values()} == {1}
        result = cluster.run_closed_loop(20, value_size=16)
        assert result["completed"] == 20
        assert result["view_changes"] == 1

    def test_local_cluster(self):
        cluster = LocalCluster(4, 1, CryptoMode.DOMAIN_OPTIMIZED, auth=False)
        try:
            # A request timer that fires uncommitted on every replica.
            for pipe in cluster.pipelines.values():
                pipe.timers.start(("request", 99, 0), 0.0)
            deadline = time.monotonic() + 10.0
            while (any(r.view != 1 for r in cluster.replicas.values())
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert {r.view for r in cluster.replicas.values()} == {1}
            assert cluster.view_changes() == 1
        finally:
            cluster.stop()
