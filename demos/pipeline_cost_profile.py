"""Where does a replica's CPU actually go?

Spins up a four-node threaded cluster on the loopback fabric, pushes
4 KiB requests through it for a few seconds, then prints the leader's
per-stage cost table. The punchline: with MAC authenticators the verify
stage is a tag comparison, so unmarshaling and hashing dominate.
"""

from pbftkit.bench.local import BenchConfig, run_benchmark
from pbftkit.crypto import CryptoMode


def main():
    cfg = BenchConfig(mode=CryptoMode.DOMAIN_OPTIMIZED, n=4, f=1,
                      value_size=4096, clients=2, outstanding=4,
                      batch_size=4, duration=5.0, warmup=1.5)
    print("measuring for 5 seconds...")
    report = run_benchmark(cfg)
    print(f"committed {report.completed} requests "
          f"at {report.throughput:.0f} ops/s\n")
    print(f"{'stage':<11}{'kind':<13}{'count':>7}{'mean us':>9}")
    for stage, kind, count, total, mean in report.stage_rows:
        print(f"{stage:<11}{kind:<13}{count:>7}{mean / 1e3:>9.2f}")
    by_stage = {}
    for stage, _, _, total, _ in report.stage_rows:
        by_stage[stage] = by_stage.get(stage, 0) + total
    print()
    for stage, total in sorted(by_stage.items(), key=lambda kv: -kv[1]):
        print(f"{stage:<11}{total / 1e6:>8.1f} ms CPU total")


if __name__ == "__main__":
    main()
