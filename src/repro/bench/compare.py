"""The CI perf-regression gate: current bench JSON vs a committed baseline.

``python -m repro.bench --smoke --json BENCH_SMOKE.json`` dumps every
experiment table; this module extracts a small set of **tracked metrics**
from that payload — the paper's headline numbers — and compares them
against ``benchmarks/baseline.json``:

* fig7 fork / odfork invocation latency and the speedup ratio at 1 GB
  (the Figure 2/7 headline),
* Table 1 worst-case fault cost for all three variants,
* the ext-reclaim fork-server p99 under 2x overcommit,
* the fleet-wide p99 under staggered odfork snapshot waves,
* the 100 GB-heap odfork point (fig7 showcase row, smoke only),
* the total smoke wall-clock in *host* seconds (``bench.smoke_wall_s``).

The virtual clock makes every tracked number but one deterministic on
every host, so those twelve are gated *exactly*: a move of more than
1e-9 relative in either direction fails.  A faster number fails too — a
virtual metric only moves when the kernel's behaviour or the cost model
changed, and then the baseline must be reseeded on purpose.  The
exception is ``bench.smoke_wall_s``, host time: it is there to catch
whole-table ranges silently not engaging (fork and exit then walk one
2 MiB slot per range, which charges identical virtual time by
construction and is invisible to every virtual metric).  Being
runner-noisy, it fails only when it gets worse by more than 2x.

Usage::

    python -m repro.bench.compare BENCH_SMOKE.json benchmarks/baseline.json
    python -m repro.bench.compare BENCH_SMOKE.json baseline.json --write-baseline
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

#: Gate of the deterministic virtual-clock metrics (relative, both ways).
VIRTUAL_GATE = 1e-9

LOWER_IS_BETTER = "lower"
HIGHER_IS_BETTER = "higher"


@dataclass(frozen=True)
class Metric:
    """One tracked benchmark number."""

    key: str           # "fig7.odfork_ms@1gb"
    exp_id: str        # table the value lives in
    row_match: tuple   # (column header, value) identifying the row
    column: str        # column header of the metric cell
    direction: str     # LOWER_IS_BETTER / HIGHER_IS_BETTER
    threshold: float = VIRTUAL_GATE   # relative gate
    two_sided: bool = True    # also fail on a move in the good direction


TRACKED = (
    Metric("fig7.fork_ms@1gb", "fig7", ("size_gb", 1), "fork_ms",
           LOWER_IS_BETTER),
    Metric("fig7.odfork_ms@1gb", "fig7", ("size_gb", 1), "odfork_ms",
           LOWER_IS_BETTER),
    Metric("fig7.speedup_x@1gb", "fig7", ("size_gb", 1), "speedup_x",
           HIGHER_IS_BETTER),
    Metric("table1.fork_fault_ms", "table1", ("type", "Fork"),
           "measured_ms", LOWER_IS_BETTER),
    Metric("table1.huge_fault_ms", "table1", ("type", "Fork w/ huge pages"),
           "measured_ms", LOWER_IS_BETTER),
    Metric("table1.odfork_fault_ms", "table1", ("type", "On-demand-fork"),
           "measured_ms", LOWER_IS_BETTER),
    Metric("ext-reclaim.p99_us@2x", "ext-reclaim", ("heap/RAM", "2.0x"),
           "p99 (us)", LOWER_IS_BETTER),
    Metric("fleet.p99_ms@staggered-odfork", "fleet",
           ("config", "staggered/odfork"), "p99_ms", LOWER_IS_BETTER),
    Metric("faas.cold_start_p99_us", "faas", ("flavor", "odfork"),
           "cold_start_p99_us", LOWER_IS_BETTER),
    Metric("faas.density_fn_per_gb", "faas", ("flavor", "odfork"),
           "density_fn_per_gb", HIGHER_IS_BETTER),
    Metric("numa.odfork_speedup@replicated", "fig7-numa",
           ("mode", "numa-replicated"), "odfork_speedup_x",
           HIGHER_IS_BETTER),
    # The beyond-the-paper showcase: odfork latency on a 100 GB heap,
    # only feasible in a smoke run because the analytic fast path builds
    # and shares the 51200 leaf tables vectorised.
    Metric("fig7.odfork_ms@100gb", "fig7", ("size_gb", 100), "odfork_ms",
           LOWER_IS_BETTER),
    # The one *host-time* metric: total smoke wall-clock.  It exists to
    # catch whole-table ranges silently not engaging, which no
    # virtual-clock metric can see — one-slot and whole-table ranges
    # charge identical virtual time by design.  Host time is runner-noisy
    # (observed ~1.7x run-to-run spread), so it gates one-sided at 2x;
    # one-slot ranges blow well past that (the 100 GB showcase point
    # alone takes minutes slot by slot vs seconds whole-table).
    Metric("bench.smoke_wall_s", "bench", ("metric", "smoke_wall_s"),
           "seconds", LOWER_IS_BETTER, threshold=1.0, two_sided=False),
)


class MetricMissing(KeyError):
    """A tracked metric could not be located in a payload."""


def extract_metric(payload, metric):
    """Pull one tracked value out of a ``--json`` payload (list of tables)."""
    table = next((t for t in payload if t.get("exp_id") == metric.exp_id),
                 None)
    if table is None:
        raise MetricMissing(f"{metric.key}: no table {metric.exp_id!r}")
    headers = table["headers"]
    match_col, match_value = metric.row_match
    try:
        match_idx = headers.index(match_col)
        value_idx = headers.index(metric.column)
    except ValueError as exc:
        raise MetricMissing(f"{metric.key}: {exc}") from None
    for row in table["rows"]:
        if row[match_idx] == match_value:
            return float(row[value_idx])
    raise MetricMissing(
        f"{metric.key}: no row with {match_col}={match_value!r}")


def extract_all(payload, metrics=TRACKED):
    """``{metric key: value}`` for every tracked metric in ``payload``."""
    return {m.key: extract_metric(payload, m) for m in metrics}


@dataclass
class Delta:
    """One metric's movement between baseline and current run."""

    key: str
    direction: str
    baseline: float
    current: float
    gate: float = VIRTUAL_GATE   # relative threshold for this metric
    two_sided: bool = True

    @property
    def ratio(self):
        """current/baseline (1.0 = unchanged; guards a zero baseline)."""
        if self.baseline == 0:
            return 1.0 if self.current == 0 else float("inf")
        return self.current / self.baseline

    def regressed(self):
        """Moved in its bad direction by more than the gate."""
        if self.direction == LOWER_IS_BETTER:
            return self.ratio > 1.0 + self.gate
        return self.ratio < 1.0 - self.gate

    def improved(self):
        """Moved in its good direction by more than the gate."""
        if self.direction == LOWER_IS_BETTER:
            return self.ratio < 1.0 - self.gate
        return self.ratio > 1.0 + self.gate

    def failed(self):
        return self.regressed() or (self.two_sided and self.improved())

    def verdict(self):
        if self.regressed():
            return "REGRESSED"
        if self.improved():
            return "MOVED" if self.two_sided else "improved"
        return "ok"


def compare_payloads(current_payload, baseline_values, metrics=TRACKED):
    """Compare a bench payload against baseline values.

    ``baseline_values`` is ``{metric key: value}`` (the committed
    baseline file's ``metrics`` object).  Returns
    ``(deltas, failures)``; a tracked metric missing on either side is
    itself a failure — the gate must never silently narrow.
    """
    deltas = []
    failures = []
    current = {}
    for metric in metrics:
        try:
            current[metric.key] = extract_metric(current_payload, metric)
        except MetricMissing as exc:
            failures.append(str(exc))
    for metric in metrics:
        if metric.key not in current:
            continue
        if metric.key not in baseline_values:
            failures.append(
                f"{metric.key}: not in baseline (re-seed the baseline)")
            continue
        delta = Delta(metric.key, metric.direction,
                      float(baseline_values[metric.key]),
                      current[metric.key], gate=metric.threshold,
                      two_sided=metric.two_sided)
        deltas.append(delta)
        if delta.regressed():
            worse = ("slower" if metric.direction == LOWER_IS_BETTER
                     else "lower")
            failures.append(
                f"{delta.key}: {delta.baseline:.6g} -> {delta.current:.6g} "
                f"({delta.ratio:.2f}x, {worse} than its {delta.gate:.0e} "
                f"gate)")
        elif delta.failed():
            failures.append(
                f"{delta.key}: {delta.baseline:.6g} -> {delta.current:.6g} "
                f"({delta.ratio:.2f}x): a virtual metric moved — reseed "
                f"the baseline if the change is deliberate")
    return deltas, failures


def format_delta_table(deltas):
    """The human-readable delta table printed in CI logs."""
    lines = [f"{'metric':<30} {'baseline':>12} {'current':>12} "
             f"{'ratio':>7} {'gate':>7}  verdict"]
    for d in deltas:
        lines.append(f"{d.key:<30} {d.baseline:>12.6g} {d.current:>12.6g} "
                     f"{d.ratio:>6.2f}x {d.gate:>7.0e}  {d.verdict()}")
    return "\n".join(lines)


def format_delta_markdown(deltas, failures):
    """The GitHub-step-summary view: a markdown table plus the verdict.

    Written on success *and* failure so a red gate shows the per-metric
    old/new/delta numbers right on the run page, not buried in logs.
    """
    icons = {"REGRESSED": ":x: regressed", "MOVED": ":x: moved",
             "improved": ":chart_with_upwards_trend: improved",
             "ok": ":white_check_mark: ok"}
    lines = ["### Perf gate: tracked bench metrics", "",
             "| metric | baseline | current | ratio | gate | verdict |",
             "| --- | ---: | ---: | ---: | ---: | --- |"]
    for d in deltas:
        lines.append(f"| `{d.key}` | {d.baseline:.6g} | {d.current:.6g} "
                     f"| {d.ratio:.2f}x | {d.gate:.0e} "
                     f"| {icons[d.verdict()]} |")
    lines.append("")
    missing = [r for r in failures if "->" not in r]
    for line in missing:
        lines.append(f"- :x: {line}")
    if failures:
        lines.append(f"\n**{len(failures)} tracked metric(s) failed "
                     f"their gates.**")
    else:
        lines.append(f"\nAll {len(deltas)} tracked metrics within their "
                     f"gates.")
    return "\n".join(lines) + "\n"


def write_step_summary(deltas, failures):
    """Append the markdown delta table to ``$GITHUB_STEP_SUMMARY``.

    A no-op outside GitHub Actions; never raises (a broken summary file
    must not mask the gate's real exit code).
    """
    import os
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return False
    try:
        with open(path, "a") as fh:
            fh.write(format_delta_markdown(deltas, failures))
        return True
    except OSError:
        return False


def write_baseline(payload, path, metrics=TRACKED):
    """Seed/refresh a baseline file from a bench ``--json`` payload."""
    values = extract_all(payload, metrics)
    doc = {
        "comment": "Tracked benchmark baselines for the CI perf gate "
                   "(repro.bench.compare). Regenerate with: "
                   "python -m repro.bench --smoke --json BENCH_SMOKE.json "
                   "&& python -m repro.bench.compare BENCH_SMOKE.json "
                   f"{path} --write-baseline",
        "metrics": values,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.compare",
        description="Gate tracked bench metrics against a committed "
                    "baseline (exit 1 on regression).")
    parser.add_argument("current", help="bench --json output to check")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("--write-baseline", action="store_true",
                        help="(re)seed the baseline from the current "
                             "payload instead of comparing")
    args = parser.parse_args(argv)

    with open(args.current) as fh:
        payload = json.load(fh)

    if args.write_baseline:
        values = write_baseline(payload, args.baseline)
        print(f"seeded {len(values)} tracked metrics into {args.baseline}")
        for key, value in values.items():
            print(f"  {key:<26} {value:.4g}")
        return 0

    with open(args.baseline) as fh:
        baseline_doc = json.load(fh)
    deltas, failures = compare_payloads(payload,
                                        baseline_doc.get("metrics", {}))
    print(format_delta_table(deltas))
    write_step_summary(deltas, failures)
    if failures:
        print(f"\n{len(failures)} tracked metric(s) failed their gates:",
              file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"\nall {len(deltas)} tracked metrics within their gates")
    return 0


if __name__ == "__main__":
    sys.exit(main())
