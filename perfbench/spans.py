"""Spans around the program's layer boundaries, recorded from outside.

A traced run installs wrappers around public functions and methods of the
layer modules. Each call becomes a span: name, start and end on the wall
clock and on the thread's CPU clock, and the span that was open on the same
thread when it began. Spans stay in per-thread arrays until the run ends;
then self times (CPU time minus the CPU time the span's children cover)
are summed per name and the spans are written out. Self times use the
thread CPU clock because in the threaded workload a span's wall time also
counts the time its thread waited for the interpreter lock. A wrapper's
own cost lands partly in its span (``own_cost_ns``) and partly in its
parent's self time (``child_cost_ns``); both are measured once per run
around a function that does nothing and taken off.

A wrapper replaces every name a caller looks up: ``pipeline`` imported
``encode``/``decode`` into its own namespace, so those are wrapped there
as well as in ``wire``.
"""

from __future__ import annotations

import gzip
import statistics
import threading
import time
from array import array
from collections import defaultdict

from pbftkit import client, crypto, pipeline, replica, wire


class _ThreadSpans:
    __slots__ = ("names", "starts", "ends", "cpu_starts", "cpu_ends",
                 "parents", "stack", "keys", "counts", "peaks")

    def __init__(self):
        self.names = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.cpu_starts = array("q")
        self.cpu_ends = array("q")
        self.parents = array("i")
        self.stack = []
        self.keys = {}  # span index -> (client id, request id)
        self.counts = defaultdict(int)
        self.peaks = defaultdict(int)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()
        self._names = []
        self._patches = []
        self.child_cost_ns = self.own_cost_ns = 0.0

    def spans(self) -> _ThreadSpans:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _ThreadSpans()
            with self._lock:
                self._threads.append(buf)
        return buf

    def wrap(self, owner, attr: str, name: str, on_exit=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_exit(spans, index, args, result)`` may add counts or a request
        key to the span after the call returns.
        """
        orig = getattr(owner, attr)
        nid = len(self._names)
        self._names.append(name)
        clock, cpu_clock = time.perf_counter_ns, time.thread_time_ns
        tracer = self

        def wrapper(*args, **kwargs):
            buf = tracer.spans()
            idx = len(buf.starts)
            stack = buf.stack
            buf.names.append(nid)
            buf.parents.append(stack[-1] if stack else -1)
            buf.ends.append(0)
            buf.cpu_ends.append(0)
            stack.append(idx)
            buf.starts.append(clock())
            buf.cpu_starts.append(cpu_clock())
            try:
                result = orig(*args, **kwargs)
            finally:
                buf.cpu_ends[idx] = cpu_clock()
                buf.ends[idx] = clock()
                stack.pop()
            if on_exit is not None:
                on_exit(buf, idx, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def counts(self) -> dict:
        total = defaultdict(int)
        for buf in self._threads:
            for k, v in buf.counts.items():
                total[k] += v
        return total

    def peaks(self) -> dict:
        top = defaultdict(int)
        for buf in self._threads:
            for k, v in buf.peaks.items():
                top[k] = max(top[k], v)
        return top

    def calibrate(self, children: int = 2000, repeats: int = 7):
        """Measure what one wrapped call adds to its own span and to its
        parent's self time, with a probe tracer around a function that
        does nothing."""
        probe = Tracer()
        holder = type("Probe", (), {})()
        holder.child = lambda: None

        def parent():
            for _ in range(children):
                holder.child()
        holder.parent = parent
        probe.wrap(holder, "child", "child")
        probe.wrap(holder, "parent", "parent")
        parent_ns, own_ns = [], []
        for _ in range(repeats):
            probe._threads.clear()
            probe._local = threading.local()
            holder.parent()
            rows = probe.summary()
            parent_ns.append(rows["parent"]["self_ns"] / children)
            own_ns.append(rows["child"]["self_ns"] / children)
        self.child_cost_ns = statistics.median(parent_ns)
        self.own_cost_ns = statistics.median(own_ns)

    def summary(self) -> dict:
        """Per span name: calls, summed CPU self ns, summed CPU ns, and
        calls per parent name."""
        out = {name: {"calls": 0, "self_ns": 0, "dur_ns": 0,
                      "by_parent": defaultdict(int)} for name in self._names}
        for buf in self._threads:
            names, starts, ends, parents = (buf.names, buf.cpu_starts,
                                            buf.cpu_ends, buf.parents)
            count = len(starts)
            child_ns = [0.0] * count
            for i in range(count):
                p = parents[i]
                if p >= 0:
                    child_ns[p] += ends[i] - starts[i] + self.child_cost_ns
            for i in range(count):
                row = out[self._names[names[i]]]
                dur = ends[i] - starts[i]
                row["calls"] += 1
                row["dur_ns"] += dur
                row["self_ns"] += dur - child_ns[i] - self.own_cost_ns
                p = parents[i]
                parent = self._names[names[p]] if p >= 0 else None
                row["by_parent"][parent] += 1
        return out

    def span_count(self) -> int:
        return sum(len(buf.starts) for buf in self._threads)

    def write(self, path):
        """One line per span: thread, index, name, wall start and end ns,
        thread CPU start and end ns, parent index on the same thread,
        client id, request id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("thread\tindex\tname\tstart_ns\tend_ns\tcpu_start_ns\t"
                     "cpu_end_ns\tparent\tclient\trequest\n")
            for t, buf in enumerate(self._threads):
                for i in range(len(buf.starts)):
                    cid, rid = buf.keys.get(i, ("", ""))
                    fh.write(f"{t}\t{i}\t{self._names[buf.names[i]]}\t"
                             f"{buf.starts[i]}\t{buf.ends[i]}\t"
                             f"{buf.cpu_starts[i]}\t{buf.cpu_ends[i]}\t"
                             f"{buf.parents[i]}\t{cid}\t{rid}\n")


def _count_bytes(buf, idx, args, frame):
    buf.counts["wire.bytes"] += len(frame)


def _count_verdict(buf, idx, args, ok):
    buf.counts["crypto.checked"] += 1
    if not ok:
        buf.counts["crypto.rejected"] += 1


def _replica_output(buf, idx, args, out):
    buf.counts["replica.out_msgs"] += sum(len(d) for d, _ in out.outbound)
    buf.counts["replica.batches"] += len(out.commits)
    buf.counts["replica.batched_ops"] += sum(len(b) for _, b in out.commits)
    replica = args[0]
    if len(replica.log) > buf.peaks["replica.log"]:
        buf.peaks["replica.log"] = len(replica.log)


def _replica_envelope(buf, idx, args, out):
    env = args[1]
    if env.kind == wire.MessageKind.REQUEST:
        try:
            req = wire.request_from_envelope(env)
        except wire.WireError:
            pass
        else:
            buf.keys[idx] = (req.client_id, req.request_id)
    _replica_output(buf, idx, args, out)


def _client_reply(buf, idx, args, done):
    if done is not None:
        buf.counts["client.completions"] += 1
        buf.keys[idx] = (args[0].client_id, done.request_id)


def _client_timeout(buf, idx, args, action):
    if action is not None:
        buf.counts["client.retransmits"] += 1


def install(tracer: Tracer, port_class=None, world_class=None):
    """Wrap every layer boundary the benchmark measures."""
    tracer.wrap(wire, "encode", "wire.encode", _count_bytes)
    tracer.wrap(wire, "decode", "wire.decode")
    tracer.wrap(pipeline, "encode", "wire.encode", _count_bytes)
    tracer.wrap(pipeline, "decode", "wire.decode")
    tracer.wrap(crypto.KeyStore, "sign", "crypto.rsa_sign")
    tracer.wrap(crypto.KeyStore, "verify", "crypto.rsa_verify")
    tracer.wrap(crypto.KeyStore, "mac", "crypto.mac")
    tracer.wrap(crypto, "digest", "crypto.digest")
    tracer.wrap(crypto, "envelope_digest", "crypto.envelope_digest")
    tracer.wrap(crypto, "verify_incoming", "crypto.verify_incoming",
                _count_verdict)
    tracer.wrap(crypto, "authenticate", "crypto.authenticate")
    tracer.wrap(replica.Replica, "on_envelope", "replica.on_envelope",
                _replica_envelope)
    tracer.wrap(replica.Replica, "on_timeout", "replica.on_timeout",
                _replica_output)
    tracer.wrap(client.ClientSession, "on_reply", "client.on_reply",
                _client_reply)
    tracer.wrap(client.ClientSession, "on_timeout", "client.on_timeout",
                _client_timeout)
    tracer.wrap(client.ClientSession, "make_request", "client.make_request")
    if port_class is not None:
        tracer.wrap(port_class, "send", "tcpnet.send")
    if world_class is not None:
        tracer.wrap(world_class, "run", "simnet.run")


STAGES = ("unmarshal", "hash_rx", "verify", "decide", "hash_tx", "sign",
          "marshal")


def layer_metrics(tracer: Tracer, ops: int, extra: dict) -> dict:
    """Per-layer metrics of one traced window, keyed by metric name.

    ``extra`` carries what the workload measured itself: replica counter
    deltas, pipeline stage costs per op, simulator wall and virtual time,
    failure counts and the tracing overhead. A layer that a workload does
    not run reports 0 calls and 0 time.
    """
    s = tracer.summary()
    counts = tracer.counts()
    per = max(ops, 1)

    def calls(name):
        return s[name]["calls"] if name in s else 0

    def self_us(name):
        c = calls(name)
        return s[name]["self_ns"] / c / 1e3 if c else 0.0

    env_digests = calls("crypto.envelope_digest")
    misses = s["crypto.digest"]["by_parent"].get("crypto.envelope_digest", 0)
    checked = counts["crypto.checked"] + extra.get("pipeline_checked", 0)
    rejected = counts["crypto.rejected"] + extra.get("pipeline_rejected", 0)
    replies = calls("client.on_reply")
    batches = counts["replica.batches"]
    run = s.get("simnet.run")
    sim_self_ns = run["self_ns"] if run else 0
    m = {
        "wire.encode.per_op": (calls("wire.encode") / per, "1/op"),
        "wire.encode.us": (self_us("wire.encode"), "us"),
        "wire.decode.per_op": (calls("wire.decode") / per, "1/op"),
        "wire.decode.us": (self_us("wire.decode"), "us"),
        "wire.bytes_per_op": (counts["wire.bytes"] / per, "B/op"),
        "crypto.rsa_sign.per_op": (calls("crypto.rsa_sign") / per, "1/op"),
        "crypto.rsa_sign.us": (self_us("crypto.rsa_sign"), "us"),
        "crypto.rsa_verify.per_op": (calls("crypto.rsa_verify") / per, "1/op"),
        "crypto.rsa_verify.us": (self_us("crypto.rsa_verify"), "us"),
        "crypto.mac.per_op": (calls("crypto.mac") / per, "1/op"),
        "crypto.mac.us": (self_us("crypto.mac"), "us"),
        "crypto.digest.per_op": (calls("crypto.digest") / per, "1/op"),
        "crypto.digest.us": (self_us("crypto.digest"), "us"),
        "crypto.digest.hit_ratio": (
            1.0 - misses / env_digests if env_digests else 0.0, "ratio"),
        "crypto.reject_ratio": (rejected / checked if checked else 0.0,
                                "ratio"),
        "replica.on_envelope.per_op": (calls("replica.on_envelope") / per,
                                       "1/op"),
        "replica.on_envelope.self_us": (self_us("replica.on_envelope"), "us"),
        "replica.on_timeout.per_op": (calls("replica.on_timeout") / per,
                                      "1/op"),
        "replica.out_msgs_per_op": (counts["replica.out_msgs"] / per, "1/op"),
        "replica.ops_per_batch": (
            counts["replica.batched_ops"] / batches if batches else 0.0,
            "ops"),
        "replica.rejected_per_op": (extra["replica_rejected"] / per, "1/op"),
        "replica.view_changes": (extra["view_changes"], "count"),
        "replica.log_peak": (tracer.peaks()["replica.log"], "entries"),
        "client.on_reply.per_op": (replies / per, "1/op"),
        "client.reply_useful_ratio": (
            counts["client.completions"] / replies if replies else 0.0,
            "ratio"),
        "client.retransmits_per_op": (counts["client.retransmits"] / per,
                                      "1/op"),
        "tcpnet.send.per_op": (calls("tcpnet.send") / per, "1/op"),
        "tcpnet.send.us": (self_us("tcpnet.send"), "us"),
        "simnet.self_us_per_op": (sim_self_ns / per / 1e3, "us"),
        "simnet.wall_per_virtual_s": (extra.get("wall_per_virtual_s", 0.0),
                                      "s/s"),
        "failed_frac": (extra["failed"] / extra["attempted"], "ratio"),
        "trace.overhead_frac": (extra["overhead_frac"], "ratio"),
    }
    stage_us = extra.get("stage_us_per_op", {})
    for stage in STAGES:
        m[f"pipeline.{stage}.cpu_us_per_op"] = (stage_us.get(stage, 0.0),
                                                "us")
    m["pipeline.cpu_per_wall"] = (extra.get("cpu_per_wall", 0.0), "ratio")
    return m
