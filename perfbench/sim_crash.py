"""The deterministic simulator with a leader crash: ``sim-leader-crash``.

Authenticators are off, as in the seeded safety sweeps, so the event heap,
the codec and the replica core take the time. Leader 0 crashes at virtual
2.0 s; the survivors change view, and checkpoints every 500 commits
garbage-collect the log many times over the run. Latency and outage are in
virtual time and repeat exactly for a seed.
"""

from __future__ import annotations

import time

from pbftkit.simnet import CRASH_AT, SimConfig, World

from common import (F, N, PAYLOAD, Commits, Result, Window, check_outputs,
                    cpu_seconds, longest_gap, median, timed)
from spans import install

CLIENTS = 8
REQUESTS_PER_CLIENT = 2000
CRASH_S = 2.0
# World construction takes about 0.1 ms; the median of many keeps setup_s
# steady.
BUILD_REPEATS = 25
WORLDS = 3


def config(seed: int) -> SimConfig:
    return SimConfig(n=N, f=F, seed=seed, auth=False, client_auth=False,
                     num_clients=CLIENTS,
                     requests_per_client=REQUESTS_PER_CLIENT,
                     payload_size=PAYLOAD, latency=(0.0005, 0.002),
                     batch_size=1, checkpoint_interval=500,
                     faults={0: (CRASH_AT, CRASH_S)})


def run_world(seed: int):
    """Build the world BUILD_REPEATS times, run the last one to quiescence
    and sum it up. Returns (facts, window, build seconds); the world itself
    is dropped so that a run holds one world at a time."""
    builds = [timed(World, config(seed)) for _ in range(BUILD_REPEATS)]
    world = builds[-1][1]
    builds = [t for t, _ in builds]
    error = None
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    try:
        world.run()
    except Exception as exc:  # e.g. wire.EncodeTooLarge out of World.run
        error = type(exc).__name__
    window = Window(wall_s=time.perf_counter() - t0,
                    cpu_s=cpu_seconds() - cpu0)
    for cl in world.clients.values():
        window.latencies.extend(d.latency for d in cl.session.completions)
    done_at = [r["t"] for r in world.trace if r["event"] == "client_done"]
    sent = sum(REQUESTS_PER_CLIENT - cl.remaining
               for cl in world.clients.values())
    if window.completed < sent:  # unserved until the run ended
        done_at.append(world.now)
    replicas = [node.replica for node in world.nodes.values()]
    facts = {
        "sent": sent, "error": error, "now": world.now,
        "outage_s": longest_gap(CRASH_S, done_at),
        "problems": problems(world),
        "events": len(world.trace),
        "commits": [len(world.committed[i]) for i in sorted(world.committed)],
        "retransmit_failures": sum(cl.failed for cl in world.clients.values()),
        "max_view": world.max_view(),
        "replica_rejected": sum(r.counters["rejected"] for r in replicas),
        "view_changes": max(r.counters["view_changes"] for r in replicas),
    }
    return facts, window, builds


def problems(world) -> list:
    found = []
    for check in (world.check_agreement, world.check_validity,
                  world.check_total_order):
        try:
            check()
        except AssertionError as exc:
            found.append(str(exc))
    commits = Commits(world.correct_nodes())
    for i in world.correct_nodes():
        for seq, _, batch in world.committed[i]:
            commits.add(i, seq, batch)
    sessions = [cl.session for cl in world.clients.values()]
    return found + check_outputs(commits, sessions, F)


def world_seeds(seed: int):
    """Seeds of the worlds one run simulates, derived from the run's seed."""
    return [seed * 1000 + k for k in range(WORLDS)]


def run(seed: int, seconds: float, tracer=None) -> Result:
    """Simulate WORLDS worlds, one per derived seed. The amount of work is
    fixed rather than bounded by ``seconds``, so that the virtual-time
    figures never depend on how fast the host is. A traced run repeats the
    first world with spans on."""
    total = Window()
    builds, worlds = [], []
    for world_seed in world_seeds(seed):
        facts, window, built = run_world(world_seed)
        worlds.append(facts)
        total.wall_s += window.wall_s
        total.cpu_s += window.cpu_s
        total.latencies += window.latencies
        builds += built
        if not worlds[1:]:
            first_wall_s = window.wall_s
    first = worlds[0]
    result = Result(
        window=total, setup_s=median(builds),
        # The outage is quantised by the client retransmit timeout, so the
        # median of a few worlds would still jump a whole quantum between
        # seeds; the mean moves by a fraction of one.
        outage_s=sum(w["outage_s"] for w in worlds) / WORLDS,
        attempted=sum(w["sent"] for w in worlds),
        failed=sum(w["sent"] for w in worlds) - total.completed,
        problems=[p for w in worlds for p in w["problems"]],
        ctx={"worlds": WORLDS, "world_seeds": world_seeds(seed),
             "outage_s_per_world": [w["outage_s"] for w in worlds],
             "virtual_end_s": [round(w["now"], 6) for w in worlds],
             "max_view": [w["max_view"] for w in worlds],
             "layer_exceptions": [w["error"] for w in worlds if w["error"]],
             "retransmit_failures": sum(w["retransmit_failures"]
                                        for w in worlds),
             "setup_samples": len(builds),
             "requests_per_world": CLIENTS * REQUESTS_PER_CLIENT,
             # Per-layer figures describe the first world, which a traced
             # run repeats with spans on.
             "wall_per_virtual_s": first_wall_s / first["now"],
             "replica_rejected": first["replica_rejected"],
             "view_changes": first["view_changes"]})
    if tracer is not None:
        install(tracer, world_class=World)
        try:
            facts, result.traced, _ = run_world(world_seeds(seed)[0])
        finally:
            tracer.uninstall()
        same = ("now", "events", "commits", "outage_s")
        if any(facts[k] != first[k] for k in same):
            result.problems.append("the traced world diverged from the "
                                   "untraced one")
    return result
