"""Race the three authentication modes on the same workload.

Times a zero-latency simulator world on the wall clock, so the numbers
reflect signing and verification cost rather than thread scheduling.
Latency in that world is virtual, so only throughput is shown. Expect the
domain-optimized policy to lead, MACs everywhere next, and signatures on
every link last.
"""

from pbftkit.bench.cli import compare_modes


def main():
    print("running 600 requests of 512 B under each mode, batch size 1...")
    results = compare_modes(total_requests=600, batch_size=1)
    print()
    print(f"{'mode':<18}{'ops/s':>9}")
    for name, r in results.items():
        print(f"{name:<18}{r['throughput']:>9.1f}")
    d = results["DOMAIN_OPTIMIZED"]["throughput"]
    m = results["MAC_INTER_NODE"]["throughput"]
    p = results["PK_ONLY"]["throughput"]
    print()
    print(f"speedups: domain/mac = {d / m:.2f}x, mac/pk = {m / p:.2f}x")


if __name__ == "__main__":
    main()
