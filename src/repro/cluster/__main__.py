"""CLI: ``python -m repro.cluster --replicas 8 --rate 1e6 --smoke``.

Runs one open-loop campaign per (snapshot-wave strategy x fork flavour)
over the same arrival schedule and prints fleet-wide p50/p99/p999 SLO
latencies, snapshot-wave accounting, and NIC/DLM load.  The run fails
(exit 2) if the fleet headline ever inverts: staggered odfork waves must
beat simultaneous classic-fork waves on p999 — that is the paper's Redis
story at fleet scale, and CI asserts it on every push.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from ..analysis.tables import render_table
from ..trace.export import chrome_trace_recording
from .coordinator import STRATEGIES
from .fleet import FLEET_PERCENTILES, Fleet, FleetConfig

#: The acceptance pair: the strategy/flavour the fleet should run, and
#: the one it should beat.
HEADLINE = ("staggered", "odfork")
BASELINE = ("simultaneous", "fork")


def run_grid(base, strategies, flavors, trace=False):
    """One campaign per (strategy, flavour); returns [(s, f, result)]."""
    results = []
    for strategy in strategies:
        for flavor in flavors:
            config = dataclasses.replace(
                base, strategy=strategy, use_odfork=(flavor == "odfork"))
            fleet = Fleet(config)
            try:
                result = fleet.run()
            finally:
                fleet.shutdown()
            results.append((strategy, flavor, result,
                            fleet.trace_process_names() if trace else {}))
    return results


def grid_rows(results):
    """Render-ready rows: one per (strategy, flavour) config."""
    rows = []
    for strategy, flavor, result, _ in results:
        pct = result.percentiles_ms(FLEET_PERCENTILES)
        coord = result.coordinator_stats
        rows.append([
            f"{strategy}/{flavor}", strategy, flavor,
            round(pct.get(50, 0.0), 4),
            round(pct.get(99, 0.0), 4),
            round(pct.get(99.9, 0.0), 4),
            round(coord["max_block_ns"] / 1e6, 4),
            result.coordinator_stats["waves_completed"],
            result.dropped,
            result.gateway_stats["rerouted"],
        ])
    return rows


HEADERS = ["config", "strategy", "flavor", "p50_ms", "p99_ms", "p999_ms",
           "max_block_ms", "waves", "drops", "rerouted"]


def headline_check(results):
    """(ok, detail): staggered-odfork p999 strictly below simultaneous-fork."""
    p999 = {}
    for strategy, flavor, result, _ in results:
        pct = result.percentiles_ms((99.9,))
        if pct:
            p999[(strategy, flavor)] = pct[99.9]
    if HEADLINE not in p999 or BASELINE not in p999:
        return True, "headline pair not in this grid; check skipped"
    better, worse = p999[HEADLINE], p999[BASELINE]
    ok = better < worse
    detail = (f"p999 staggered/odfork {better:.4f} ms "
              f"{'<' if ok else '>='} simultaneous/fork {worse:.4f} ms")
    return ok, detail


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Fleet-wide rolling-snapshot SLO sweep "
                    "(strategy x fork flavour).")
    parser.add_argument("--replicas", type=int, default=4)
    parser.add_argument("--rate", type=float, default=1e6,
                        help="fleet-wide offered load, requests/s "
                             "(default 1e6)")
    parser.add_argument("--requests", type=int, default=None,
                        help="arrivals per campaign (default: rate-scaled)")
    parser.add_argument("--data-mb", type=int, default=None,
                        help="dataset per replica (default 256; smoke 48)")
    parser.add_argument("--policy", choices=("hash", "rr"), default="hash")
    parser.add_argument("--strategies", nargs="*", default=None,
                        choices=STRATEGIES,
                        help=f"wave strategies (default: all of "
                             f"{STRATEGIES})")
    parser.add_argument("--flavors", nargs="*", default=("fork", "odfork"),
                        choices=("fork", "odfork"))
    parser.add_argument("--stagger-k", type=int, default=1,
                        help="replicas per staggered sub-wave (default 1)")
    parser.add_argument("--waves", type=int, default=2)
    parser.add_argument("--wave-interval-ms", type=float, default=None,
                        help="fleet time between waves (default: spread "
                             "across the campaign)")
    parser.add_argument("--write-ratio", type=float, default=0.10)
    parser.add_argument("--queue-limit", type=int, default=None)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--smoke", action="store_true",
                        help="small dataset + short campaign (CI)")
    parser.add_argument("--json", metavar="PATH",
                        help="dump the grid results as JSON")
    parser.add_argument("--trace", metavar="PATH",
                        help="record fleet tracepoints and export "
                             "Chrome-trace JSON (gateway + one process "
                             "track per replica)")
    args = parser.parse_args(argv)

    data_mb = args.data_mb
    n_requests = args.requests
    if args.smoke:
        data_mb = data_mb or 48
        n_requests = n_requests or 24_000
    else:
        data_mb = data_mb or 256
        n_requests = n_requests or 200_000
    # Default wave spacing: both waves land while arrivals are flowing.
    campaign_ms = n_requests / args.rate * 1e3
    wave_interval_ms = args.wave_interval_ms
    if wave_interval_ms is None:
        wave_interval_ms = campaign_ms / (args.waves + 1)

    base = FleetConfig(
        replicas=args.replicas, policy=args.policy,
        rate_rps=args.rate, n_requests=n_requests,
        write_ratio=args.write_ratio, data_mb=data_mb,
        stagger_k=args.stagger_k, seed=args.seed,
        wave_interval_ms=wave_interval_ms, n_waves=args.waves,
        queue_limit=args.queue_limit)
    strategies = args.strategies or list(STRATEGIES)

    started = time.time()
    with chrome_trace_recording(args.trace, label="fleet") as recording:
        results = run_grid(base, strategies, args.flavors,
                           trace=recording is not None)
        if recording is not None:
            # Every campaign binds gateway + replicas in the same order,
            # so later grid cells only extend the pid -> name map.
            for *_rest, names in results:
                recording.process_names.update(names)

    rows = grid_rows(results)
    print()
    print(render_table(
        HEADERS, rows,
        title=f"[fleet] {args.replicas} replicas @ "
              f"{args.rate:.0f} req/s, {n_requests} arrivals, "
              f"{args.waves} snapshot wave(s) "
              f"({time.time() - started:.1f}s host time)"))
    for strategy, flavor, result, _ in results:
        assert result.conserved(), (
            f"fleet accounting broken for {strategy}/{flavor}")

    ok, detail = headline_check(results)
    print(f"\n  headline: {detail}")

    if args.json:
        payload = []
        for strategy, flavor, result, _ in results:
            payload.append({
                "strategy": strategy, "flavor": flavor,
                "percentiles_ms": {str(p): v for p, v in
                                   result.percentiles_ms().items()},
                "generated": result.generated,
                "completed": result.completed,
                "dropped": result.dropped,
                "gateway": result.gateway_stats,
                "dlm": result.dlm_stats,
                "coordinator": result.coordinator_stats,
            })
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"  wrote {len(payload)} fleet results to {args.json}")

    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
