"""A guided tour of the simulator's fault adapters.

Four worlds run back to back: a clean one, a crashed leader, a mute
follower, and an equivocating leader. After each run the script reports
what committed, how far the view advanced, and whether the three safety
oracles held.
"""

from pbftkit.simnet import (CRASH_AT, EQUIVOCATE, MUTE, SimConfig, World)

BASE = dict(n=4, f=1, auth=False, num_clients=2,
            requests_per_client=25, view_change_timeout=0.5,
            client_timeout=2.0)


def report(title, world):
    try:
        world.check_agreement()
        world.check_total_order()
        safety = "held"
    except AssertionError as exc:
        safety = f"VIOLATED: {exc}"
    live = [i for i in range(world.config.n)
            if not world.nodes[i].crashed]
    committed = {i: world.total_requests_committed(i) for i in live}
    print(f"{title}")
    print(f"  committed per live node: {committed}")
    print(f"  highest view reached:    {world.max_view()}")
    print(f"  safety:                  {safety}")
    print()


def main():
    world = World(SimConfig(seed=42, **BASE))
    world.run()
    report("failure-free baseline", world)

    world = World(SimConfig(seed=7, faults={0: (CRASH_AT, 0.25)}, **BASE))
    world.run()
    report("leader crashes at t=0.25s", world)

    world = World(SimConfig(seed=11, faults={3: (MUTE,)}, **BASE))
    world.run()
    report("follower 3 receives but never sends", world)

    world = World(SimConfig(seed=3, faults={0: (EQUIVOCATE,)}, **BASE))
    world.run(until=120.0)
    report("leader shows different batches to odd and even followers",
           world)


if __name__ == "__main__":
    main()
