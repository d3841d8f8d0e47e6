"""CLI: ``python -m repro.faas --smoke``.

Runs one farm campaign per fork flavour over the same arrival schedule
and prints the serverless headline numbers: cold-start p50/p99 (the fork
block off the warm template), end-to-end invocation p99 under burst,
density in functions/GB at the memory peak, and the reclaim/dedup
counters for overcommitted farms.  The run fails (exit 2) unless the
odfork cold-start p99 beats the classic-fork cold-start p99 — table-COW
on the request path is the paper's claim, and CI asserts it on every
push.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from ..analysis.tables import render_table
from ..trace.export import chrome_trace_recording
from .image import FunctionImage
from .invoker import DEFAULT_IMAGES, FarmConfig, Invoker

HEADERS = ["flavor", "cold_p50_us", "cold_p99_us", "e2e_p99_ms",
           "density_fn_per_gb", "cold", "warm", "resets", "drops",
           "failed", "pswpout"]


def run_flavors(base, flavors, trace=False):
    """One campaign per flavour; returns ``[(flavor, result, names)]``."""
    results = []
    for flavor in flavors:
        config = dataclasses.replace(base, use_odfork=(flavor == "odfork"))
        invoker = Invoker(config)
        try:
            result = invoker.run()
        finally:
            names = {}
            if trace:
                from ..trace import points as trace_points
                tracer = trace_points.current()
                bound = tracer.machines if tracer is not None else ()
                for node, machine in enumerate(invoker.machines):
                    if machine in bound:
                        names[bound.index(machine)] = \
                            f"node{node}/{flavor}"
            invoker.shutdown()
        results.append((flavor, result, names))
    return results


def result_rows(results):
    rows = []
    for flavor, result, _ in results:
        rows.append([
            flavor,
            round(result.percentile_us(result.cold_start_ns, 50), 2),
            round(result.percentile_us(result.cold_start_ns, 99), 2),
            round(result.percentile_us(result.latencies_ns, 99) / 1e3, 4),
            round(result.density_fn_per_gb, 2),
            len(result.cold_start_ns),
            result.warm_served,
            result.resets,
            result.dropped,
            result.failed,
            result.vmstat["pswpout"],
        ])
    return rows


def headline_check(results):
    """(ok, detail): odfork cold-start p99 strictly under classic fork's."""
    p99 = {flavor: result.percentile_us(result.cold_start_ns, 99)
           for flavor, result, _ in results}
    if "odfork" not in p99 or "fork" not in p99:
        return True, "both flavours not in this run; check skipped"
    ok = p99["odfork"] < p99["fork"]
    detail = (f"cold-start p99 odfork {p99['odfork']:.2f} us "
              f"{'<' if ok else '>='} classic fork {p99['fork']:.2f} us")
    return ok, detail


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.faas",
        description="Serverless snapshot-spawn farm: odfork-per-invocation "
                    "cold starts under open-loop burst traffic.")
    parser.add_argument("--rate", type=float, default=None,
                        help="offered load, invocations/s "
                             "(default 50000; smoke 80000)")
    parser.add_argument("--requests", type=int, default=None,
                        help="arrivals per campaign (default 20000; "
                             "smoke 3000)")
    parser.add_argument("--flavors", nargs="*", default=("fork", "odfork"),
                        choices=("fork", "odfork"))
    parser.add_argument("--nodes", type=int, default=1,
                        help="farm machines; images placed by "
                             "consistent hash (default 1)")
    parser.add_argument("--warm-ratio", type=float, default=0.25)
    parser.add_argument("--reset-every", type=int, default=32)
    parser.add_argument("--keepalive-ms", type=float, default=2.0)
    parser.add_argument("--queue-limit", type=int, default=None)
    parser.add_argument("--phys-mb", type=int, default=None,
                        help="per-node RAM (default: sized to the images; "
                             "set low with --swap-mb for overcommit)")
    parser.add_argument("--swap-mb", type=int, default=None,
                        help="per-node swap (default: one image-footprint's "
                             "worth)")
    parser.add_argument("--images", type=int, default=None,
                        help="replicate the default image mix to N images")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--smoke", action="store_true",
                        help="short campaign at burst rate (CI)")
    parser.add_argument("--json", metavar="PATH",
                        help="dump the per-flavour report as JSON")
    parser.add_argument("--trace", metavar="PATH",
                        help="record faas/kernel tracepoints and export "
                             "Chrome-trace JSON (one process track per "
                             "farm node)")
    args = parser.parse_args(argv)

    n_requests = args.requests
    rate = args.rate
    if args.smoke:
        n_requests = n_requests or 3000
        rate = rate or 80_000.0
    else:
        n_requests = n_requests or 20_000
        rate = rate or 50_000.0

    images = DEFAULT_IMAGES
    if args.images:
        images = tuple(
            dataclasses.replace(DEFAULT_IMAGES[i % len(DEFAULT_IMAGES)],
                                name=f"{DEFAULT_IMAGES[i % len(DEFAULT_IMAGES)].name}{i}")
            for i in range(args.images))

    base = FarmConfig(
        images=images, rate_rps=rate, n_requests=n_requests,
        warm_ratio=args.warm_ratio, reset_every=args.reset_every,
        keepalive_ms=args.keepalive_ms, queue_limit=args.queue_limit,
        nodes=args.nodes, phys_mb=args.phys_mb, swap_mb=args.swap_mb,
        seed=args.seed)

    started = time.time()
    with chrome_trace_recording(args.trace, label="faas") as recording:
        results = run_flavors(base, args.flavors,
                              trace=recording is not None)
        if recording is not None:
            for _flavor, _result, names in results:
                recording.process_names.update(names)

    rows = result_rows(results)
    print()
    print(render_table(
        HEADERS, rows,
        title=f"[faas] {len(base.images)} images on {base.nodes} node(s) @ "
              f"{rate:.0f} inv/s, {n_requests} arrivals "
              f"({time.time() - started:.1f}s host time)"))
    for flavor, result, _ in results:
        assert result.conserved(), (
            f"farm accounting broken for {flavor}: "
            f"generated={result.generated} completed={result.completed} "
            f"dropped={result.dropped} failed={result.failed}")

    ok, detail = headline_check(results)
    print(f"\n  headline: {detail}")

    if args.json:
        payload = []
        for (flavor, result, _), row in zip(results, rows):
            payload.append({
                "flavor": flavor,
                **dict(zip(HEADERS[1:], row[1:])),
                "generated": result.generated,
                "completed": result.completed,
                "peak_instances": result.peak_instances,
                "peak_used_gb": round(result.peak_used_gb, 4),
                "per_image": result.per_image,
                "vmstat": result.vmstat,
            })
        with open(args.json, "w") as fh:
            json.dump({"headline_ok": ok, "headline": detail,
                       "results": payload}, fh, indent=2)
        print(f"  wrote {len(payload)} farm results to {args.json}")

    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
