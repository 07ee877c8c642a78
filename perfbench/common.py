"""Shared pieces of the benchmark: the program import, keys, the load pool,
the correctness gate and the statistics every workload reports.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

N, F = 4, 1
PAYLOAD = 512
SETUP_REPEATS = 3


# CPUs left free by pin(); the set-up helper process runs there.
SPARE_CPUS: set = set()


class ProgramMissing(Exception):
    """The checkout holds no pbftkit sources to measure."""


def import_program():
    """Import pbftkit from this checkout's ``src`` and nowhere else, so an
    installed copy can never be measured in place of the checkout."""
    if not (SRC / "pbftkit" / "__init__.py").is_file():
        raise ProgramMissing(f"no pbftkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pbftkit
    if Path(pbftkit.__file__).resolve().parent != SRC / "pbftkit":
        raise ProgramMissing(f"pbftkit imported from {pbftkit.__file__}")
    return pbftkit


def pin() -> tuple:
    """Pin this process, and every thread it starts, to its last available
    CPU (README.md says why). Returns (CPUs available, the pinned CPU)."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    SPARE_CPUS.update(cpus[:-1])
    return len(cpus), cpus[-1]


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_keystores(n: int, client_ids, rng: random.Random) -> dict:
    """Fresh RSA keys for every principal and seeded pairwise MAC secrets.

    ``simnet.build_keystores`` pools RSA keys for the life of the process;
    the benchmark generates them anew on every set-up so that ``setup_s``
    keeps measuring key generation when set-up is repeated.
    """
    from pbftkit import crypto
    ids = list(range(n)) + list(client_ids)
    keys = {i: crypto.generate_keypair() for i in ids}
    pubs = {i: k.public_key() for i, k in keys.items()}
    macs = {i: {} for i in ids}
    for a in range(n):
        for b in ids:
            if b > a:
                secret = rng.randbytes(crypto.MAC_KEY_LEN)
                macs[a][b] = macs[b][a] = secret
    return {i: crypto.KeyStore(i, keys[i], dict(pubs), macs[i]) for i in ids}


@dataclass
class Pool:
    """Pre-signed requests of one client, in request-id order.

    A load generator stands in for remote clients whose requests arrive
    already signed, so signing happens before the measured window. When a
    run outlasts the pool, further requests are signed on demand and
    counted in ``shortfall``.
    """

    session: object
    payloads: random.Random
    frames: list = field(default_factory=list)  # (request id, frame)
    next: int = 0
    shortfall: int = 0

    @staticmethod
    def size(rate_cap: float, seconds: float, clients: int) -> int:
        """Requests per client for a run of ``seconds`` at up to
        ``rate_cap`` requests per second. It depends on the run length, not
        on measured speed, so set-up does the same work on every commit."""
        return int(rate_cap * seconds / clients) + 1

    def fill(self, count: int):
        from pbftkit import wire
        for _ in range(count):
            req, env, _ = self.session.make_request(
                self.payloads.randbytes(PAYLOAD), 0.0)
            self.frames.append((req.request_id, wire.encode(env)))

    def take(self):
        if self.next == len(self.frames):
            self.shortfall += 1
            self.fill(1)
        item = self.frames[self.next]
        self.next += 1
        return item


def presign(sessions: dict, keystores: dict, mode, seed: int,
            per_client: int) -> dict:
    """Pre-sign ``per_client`` requests for every client session; returns
    client id -> Pool.

    RSA signing is most of set-up and holds the interpreter lock. When pin()
    left a CPU spare, a helper process there signs the requests of every
    other client while this process signs the rest. Those sessions then
    make their requests as usual, each signature taken from the helper's
    results; a signature the helper did not make is made here.
    """
    pools = {c: Pool(s, random.Random(seed * 1000 + c))
             for c, s in sessions.items()}
    helped = sorted(sessions)[1::2] if SPARE_CPUS else []
    if not helped:
        for pool in pools.values():
            pool.fill(per_client)
        return pools
    from cryptography.hazmat.primitives import serialization
    jobs = [(c, keystores[c].signing_key.private_bytes(
        serialization.Encoding.DER, serialization.PrivateFormat.PKCS8,
        serialization.NoEncryption()), mode.name, seed * 1000 + c,
        per_client) for c in helped]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(SRC)]))
    with subprocess.Popen(
            [sys.executable, "-c", "import common; common.helper_main()"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env) as helper:
        try:
            pickle.dump((sorted(SPARE_CPUS), jobs), helper.stdin)
            helper.stdin.close()
            for c in sessions:
                if c not in helped:
                    pools[c].fill(per_client)
            made = pickle.load(helper.stdout)
        except BaseException:
            helper.kill()
            raise
    if helper.returncode != 0:
        raise RuntimeError(f"presign helper exited {helper.returncode}")
    for c in helped:
        keystore = keystores[c]
        keystore.sign = lambda data, own=keystore.sign, made=made[c]: (
            made.pop(data, None) or own(data))
        try:
            pools[c].fill(per_client)
        finally:
            del keystore.sign
    return pools


def helper_main():
    """The presign() helper process: read the jobs from standard input,
    make each client's pool as presign() would, and write back every
    signature made, keyed by client and by the signed bytes."""
    cpus, jobs = pickle.load(sys.stdin.buffer)
    os.sched_setaffinity(0, cpus)
    from cryptography.hazmat.primitives import serialization
    from pbftkit import crypto
    from pbftkit.client import ClientSession
    out = {}
    for client_id, key_der, mode_name, payload_seed, count in jobs:
        keystore = crypto.KeyStore(
            client_id, serialization.load_der_private_key(key_der, None))
        made = out[client_id] = {}
        keystore.sign = lambda data, own=keystore.sign, made=made: (
            made.setdefault(data, own(data)))
        session = ClientSession(client_id, N, F,
                                crypto.CryptoMode[mode_name],
                                keystore=keystore)
        Pool(session, random.Random(payload_seed)).fill(count)
    pickle.dump(out, sys.stdout.buffer)


def expected_result(request) -> bytes:
    """The reply digest a correct replica returns for ``request``."""
    return hashlib.sha256(request.canonical_bytes()).digest()


class Commits:
    """The correctness gate's record of what correct replicas commit,
    checked as each commit arrives.

    Each replica must commit seqs 1, 2, ... in order, with the same batch
    digest at every seq as the others, and no request twice. A seq is
    forgotten once every replica has committed it; a request keeps one
    entry (which replicas committed it, and its expected result) for the
    check of completions at the end. The benchmark so holds little per
    request, and peak memory does not grow with a faster program's extra
    requests (each replica decodes its own copy of every batch, and keeping
    the batches did). Pipeline threads call add() concurrently.
    """

    def __init__(self, nodes):
        from pbftkit import wire
        self.batch_digest = wire.batch_digest
        self.nodes = len(list(nodes))
        self.next_seq = {}  # replica -> the seq it must commit next
        self.open = {}  # seq -> [batch digest, replicas yet to commit it]
        self.requests = {}  # (client id, request id) -> [replica bits,
        #                                                  expected result]
        self.problems = []
        self.lock = threading.Lock()

    def add(self, node: int, seq: int, batch):
        digest = self.batch_digest(batch)
        bit = 1 << node
        with self.lock:
            if seq != self.next_seq.get(node, 1):
                self.problems.append(f"replica {node} committed seq {seq} "
                                     f"out of order")
            self.next_seq[node] = seq + 1
            entry = self.open.setdefault(seq, [digest, self.nodes])
            if entry[0] != digest:
                self.problems.append(f"replicas disagree at seq {seq}")
            entry[1] -= 1
            if entry[1] == 0:
                del self.open[seq]
            for req in batch:
                key = (req.client_id, req.request_id)
                rec = self.requests.get(key)
                if rec is None:
                    self.requests[key] = [bit, expected_result(req)]
                elif rec[0] & bit:
                    self.problems.append(f"replica {node} committed {key} "
                                         f"twice")
                else:
                    rec[0] |= bit


def check_outputs(commits: Commits, sessions, f: int) -> list:
    """The correctness gate: what Commits found, and every completed
    request committed on at least f+1 replicas with the expected result.
    Returns a list of problems; empty means the run is correct."""
    problems = list(commits.problems)
    for sess in sessions:
        for done in sess.completions:
            key = (sess.client_id, done.request_id)
            bits, expected = commits.requests.get(key, (0, None))
            holders = bin(bits).count("1")
            if holders < f + 1:
                problems.append(f"{key} completed but committed on "
                                f"{holders} replicas")
            elif done.result_digest != expected:
                problems.append(f"{key} completed with a wrong result")
    return problems[:20]


SLICE_S = 0.5


@dataclass
class Window:
    """What the load generator saw in one measured window.

    The window is cut into slices of about SLICE_S seconds at completion
    times. Throughput, CPU per request, p99 latency and the longest gap
    between completions are medians over the slices, so that a short stall
    from outside the process (the hypervisor taking the CPU away for 100 ms
    is common on small shared hosts) moves them less.
    """

    start: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    latencies: list = field(default_factory=list)  # seconds
    done_at: list = field(default_factory=list)  # completion times
    edges: list = field(default_factory=list)  # (time, cpu, completions)

    @property
    def completed(self) -> int:
        return len(self.latencies)

    def open(self, now: float):
        self.start = now
        self.edges = [(now, cpu_seconds(), 0)]

    def done(self, latency: float, now: float):
        self.latencies.append(latency)
        self.done_at.append(now)
        if now - self.edges[-1][0] >= SLICE_S:
            self.edges.append((now, cpu_seconds(), len(self.latencies)))

    def close(self, now: float):
        self.wall_s = now - self.start
        self.cpu_s = cpu_seconds() - self.edges[0][1]
        if now - self.edges[-1][0] >= SLICE_S / 2:  # keep a last part-slice
            self.edges.append((now, cpu_seconds(), len(self.latencies)))

    def slices(self) -> list:
        """Per full slice: (requests/s, CPU s/request, p99 latency s,
        longest gap between completions s)."""
        out = []
        for (t0, c0, a), (t1, c1, b) in zip(self.edges, self.edges[1:]):
            if b == a:
                continue
            times = [t0] + self.done_at[a:b]
            out.append(((b - a) / (t1 - t0), (c1 - c0) / (b - a),
                        percentile(sorted(self.latencies[a:b]), 0.99),
                        max(y - x for x, y in zip(times, times[1:]))))
        return out


def percentile(sorted_vals, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    n = len(sorted_vals)
    return sorted_vals[min(n - 1, max(0, int(q * n + 0.5) - 1))]


def longest_gap(start: float, times) -> float:
    """Longest stretch after ``start`` with no completion."""
    prev, gap = start, 0.0
    for t in sorted(times):
        if t >= start:
            gap = max(gap, t - prev)
            prev = t
    return gap


@dataclass
class Result:
    """One run of a workload, as run.py reports it."""

    window: Window  # the untraced measured window
    setup_s: float
    outage_s: float
    attempted: int  # requests sent over the whole run
    failed: int
    problems: list  # correctness gate findings; empty when correct
    ctx: dict
    traced: Window = None


def end_to_end(r: Result) -> dict:
    """The end-to-end metrics of an untraced run. A window with fewer than
    two slices (the simulator's) is summed up as a whole."""
    w = r.window
    lat = sorted(w.latencies)
    cuts = w.slices()
    if len(cuts) >= 2:
        rate, cpu, p99, _ = (statistics.median(col) for col in zip(*cuts))
    else:
        rate, cpu, p99 = (w.completed / w.wall_s, w.cpu_s / w.completed,
                          percentile(lat, 0.99))
    return {
        "throughput_ops": (rate, "ops/s"),
        "latency_p50_ms": (percentile(lat, 0.50) * 1e3, "ms"),
        "latency_p99_ms": (p99 * 1e3, "ms"),
        "cpu_ms_per_op": (cpu * 1e3, "ms"),
        "setup_s": (r.setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "outage_s": (r.outage_s, "s"),
    }


def window_context(w: Window) -> dict:
    """Sample counts and whole-window figures behind the slice medians."""
    lat = sorted(w.latencies)
    return {"latency_samples": len(lat), "slices": len(w.slices()),
            "window_s": w.wall_s,
            "window_throughput_ops": w.completed / w.wall_s,
            "window_latency_p99_ms": percentile(lat, 0.99) * 1e3}


def stall_s(w: Window) -> float:
    """The outage figure of a fault-free window: the median over slices of
    each slice's longest gap between completions."""
    return statistics.median(gap for *_, gap in w.slices())


def timed(fn, *args):
    t0 = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - t0, value


def median(values) -> float:
    return statistics.median(values)
