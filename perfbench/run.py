"""Run one benchmark workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload fork-cycle --seed 1234 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, in turn

Run from the root of a checkout: the simulator is imported from
``src/`` beside this directory, and the program is only driven through
its public API (``Machine``/``Process``, ``Invoker``, ``Fleet``).

A run repeats its workload's unit (set-up, measured phase, untimed
checks) until ``--seconds`` have passed.  Unit 0 warms the process up and
runs the once-per-run checks; host metrics are medians over the later
units, scaled to a reference host speed by a fixed probe loop (see
:class:`Probe`).  Virtual metrics are medians over the workload's
campaign seeds, derived from ``--seed``, and repeat bit-for-bit for a
seed; a unit that replays a campaign must reproduce them exactly.  With
``--trace 1`` the first half of the time runs untraced, the second half
replays the same campaigns with every layer's entry points wrapped
(``spans.py``); the run then reports per-layer metrics, checks that the
traced run's virtual results equal the untraced run's, and gives the
tracing overhead.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Set-ups timed per run at least (extra ones are set up and torn down).
MIN_SETUPS = 9
#: The reference host speed: a :class:`Probe` call takes this long on it.
PROBE_REF_S = 0.07
#: Probes run and discarded first: the first few in a process run slow.
PROBE_WARMUP = 3
#: Host seconds of measured work between two probes inside a phase.
PROBE_EVERY_S = 0.5
#: Campaign seeds of one run: ``seed + CAMPAIGN_STRIDE * j``.
CAMPAIGN_STRIDE = 100_003

#: The end-to-end metrics a ``--trace 0`` run reports, with units.
END_TO_END = {
    "setup_s": "s",
    "host_ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
    "latency_ms_mean": "ms",
    "latency_ms_tail": "ms",
}
VM_KEYS = ("pgsteal", "pswpout", "pswpin")
#: Virtual groups reported as per-layer metrics (``locks`` and ``numa``
#: need ``Machine(smp=, numa=)``, which no workload uses; they and
#: ``unmapped`` are printed, not reported).
REPORTED_GROUPS = ("fork_copy", "fork_common", "table_share", "huge_copy",
                   "fault_cow", "table_cow", "tlb", "teardown",
                   "reclaim_swap", "syscall_memcpy", "snapshot", "app",
                   "other")


def import_program():
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: the simulator source {src / 'repro'} is "
                 "missing; run this from a checkout of the repository")
    sys.path.insert(0, str(src))
    import repro
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {src}")


def per_layer_names():
    """``{name: unit}`` of every per-layer metric a traced run reports."""
    import spans
    names = {}
    for layer in spans.LAYERS:
        names[f"{layer}.calls"] = "count"
        if layer in spans.ITEM_NAMES:
            names[f"{layer}.{spans.ITEM_NAMES[layer]}"] = "count"
        names[f"{layer}.self_s"] = "s"
        names[f"{layer}.setup_self_s"] = "s"
    names["kernel.fastpath.engaged_ratio"] = "ratio"
    for key in VM_KEYS:
        names[f"vm.{key}"] = "count"
    for group in REPORTED_GROUPS:
        names[f"virt.{group}_ns"] = "ns"
    names["trace.spans"] = "count"
    names["trace.untraced_ops_per_s"] = "ops/s"
    names["trace.traced_ops_per_s"] = "ops/s"
    names["trace.overhead_x"] = "ratio"
    return names


class Probe:
    """Times a fixed reference loop: how fast is this host right now?

    A shared host's speed can drift by tens of percent within minutes,
    which no median over one run removes.  The loop mixes the kinds of
    work the simulator's host time goes to: interpreter-bound dict and
    string work, random lookups in a dict and an array too large for the
    caches, and small numpy calls.  Host metrics are scaled by its time
    to the reference speed at which it takes ``PROBE_REF_S``; a probe
    runs right before and right after each measured phase and, from a
    timer signal, every ``PROBE_EVERY_S`` inside it (a phase's host time
    excludes those).  The loop is the benchmark's own code, so no change
    to the simulator moves it, and it touches no simulator state.
    """

    def __init__(self):
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 1 << 40, 200_000).tolist()
        self.table = dict.fromkeys(keys, 1)
        self.lookups = [keys[i] for i in rng.permutation(len(keys))[:100_000]]
        self.array = rng.integers(0, 1 << 30, 2_000_000)
        self.index = rng.integers(0, len(self.array), 500_000)
        for _ in range(PROBE_WARMUP):
            self()

    def __call__(self):
        t0 = time.perf_counter()
        small = {}
        for i in range(100_000):
            key = i & 1023
            small[key] = small.get(key, 0) + len(str(key))
        get = self.table.get
        hits = 0
        for key in self.lookups:
            hits += get(key, 0)
        for _ in range(4):
            hits += int(self.array[self.index].sum() & 1)
        rng = np.random.default_rng(7)
        for _ in range(150):
            np.unique(rng.integers(0, 1 << 20, 512))
        return time.perf_counter() - t0

    @contextlib.contextmanager
    def sampling(self):
        """Probe every ``PROBE_EVERY_S`` inside the block; yields the
        list the probe times are appended to."""
        taken = []
        active = [True]

        def on_timer(signum, frame):
            if active[0]:
                taken.append(self())
                signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

        previous = signal.signal(signal.SIGALRM, on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)
        try:
            yield taken
        finally:
            active[0] = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---- one unit ------------------------------------------------------------------


class Unit:
    """One set-up + measured phase + checks, and what it produced.

    The run's ``first`` unit also runs the workload's once-per-run checks
    and, at the default seed, the cross-check against the CI gate's
    baseline.  ``probe`` (a :class:`Probe`) times the host's speed around
    the measured phase; ``recorder`` holds the spans of a traced unit.
    """

    def __init__(self, workload, seed, first, recorder=None, probe=None):
        from scenarios import DEFAULT_SEED, virtual_groups
        self.seed = seed
        self.probe_s = None
        self.failures = []
        gc.collect()
        mark = _records(recorder)
        t0 = time.perf_counter()
        state = workload.setup(seed)
        self.setup_s = time.perf_counter() - t0
        self.setup_records = (mark, _records(recorder))
        try:
            machines = workload.machines(state)
            before = _machine_state(machines)
            gc.collect()
            probes = [probe()] if probe else []
            # Spans would count a probe taken inside them, so a traced
            # phase is only probed at its ends.
            sampling = (probe.sampling() if probe and recorder is None
                        else contextlib.nullcontext([]))
            mark = _records(recorder)
            with sampling as inside:
                t0 = time.perf_counter()
                self.ops, self.failed, samples = workload.measure(state)
                self.host_s = time.perf_counter() - t0
            self.host_s -= sum(inside)
            self.measure_records = (mark, _records(recorder))
            if probe:
                probes += inside + [probe()]
                self.probe_s = statistics.mean(probes)
            after = _machine_state(machines)
            self.groups, self.clock_ns = virtual_groups(
                [b[:2] for b in before], [a[:2] for a in after])
            self.vm = {key: sum(a[2][key] - b[2][key]
                                for a, b in zip(after, before))
                       for key in VM_KEYS}
            self.failures += workload.check(state, samples)
            for machine in machines:
                try:
                    machine.check_frame_invariants()
                except Exception as exc:  # a broken invariant fails the run
                    self.failures.append(f"check_frame_invariants: {exc!r}")
            if self.groups["other"] < 0:
                self.failures.append(
                    f"virtual groups exceed the clock advance by "
                    f"{-self.groups['other']} ns")
        finally:
            workload.teardown(state)
        # Free this unit's machines before the extra campaigns run.
        state = machines = None
        if first:
            gc.collect()
            self.failures += workload.once_per_run(samples)
        self.summary = workload.summary(samples)
        self.cross = {}
        if (first and seed == DEFAULT_SEED
                and hasattr(workload, "cross_check")):
            self.cross = workload.cross_check(samples)

    @property
    def ops_per_s(self):
        """Measured-phase ops per host second, as measured."""
        return self.ops / self.host_s

    @property
    def ref_ops_per_s(self):
        """``ops_per_s`` scaled to the reference host speed."""
        return self.ops_per_s * self.probe_s / PROBE_REF_S

    @property
    def ref_setup_s(self):
        """``setup_s`` scaled to the reference host speed."""
        return self.setup_s * PROBE_REF_S / self.probe_s

    def fingerprint(self, keys):
        """Everything virtual this unit produced, for bit-for-bit checks."""
        return ({k: self.summary[k][0] for k in keys}, self.groups,
                self.clock_ns, self.vm)


def _records(recorder):
    return len(recorder) if recorder is not None else 0


def _machine_state(machines):
    return [(m.clock.now_ns, m.profiler.breakdown(), m.vmstat())
            for m in machines]


def run_units(workload, seeds, budget_s, probe, recorder=None,
              max_units=None):
    """Timed units 1, 2, ... (unit 0 warms up) until ``budget_s`` passes.

    Unit ``j`` runs campaign ``seeds[j % len(seeds)]``; with unit 0 the
    units cover every campaign, and at least one is timed.
    """
    units = []
    start = time.perf_counter()
    while (not units or len(units) + 1 < len(seeds)
           or time.perf_counter() - start < budget_s):
        if max_units is not None and len(units) >= max_units:
            break
        j = 1 + len(units)
        units.append(Unit(workload, seeds[j % len(seeds)], first=False,
                          recorder=recorder, probe=probe))
    return units


def _setup_only(workload, seed, probe):
    """One more set-up, torn down; its time at the reference speed."""
    gc.collect()
    before = probe()
    t0 = time.perf_counter()
    state = workload.setup(seed)
    elapsed = time.perf_counter() - t0
    after = probe()
    workload.teardown(state)
    return elapsed * PROBE_REF_S / ((before + after) / 2)


def _median(values):
    return float(statistics.median(values))


# ---- reports ---------------------------------------------------------------------


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns ``(correct, attempted, failed, metrics)``."""
    import scenarios
    workload = scenarios.WORKLOADS[name]
    seeds = [seed + CAMPAIGN_STRIDE * j for j in range(workload.campaigns)]
    budget = seconds / 2 if trace else seconds
    print(f"perfbench {name}: seed {seed}, {seconds} s, trace {trace}")
    print(f"  {workload.loop} loop, {workload.load}; campaign seeds {seeds}")
    print(f"  why: {workload.why}")
    print(f"  exercises: {', '.join(workload.exercises)}")
    print(f"  bypasses:  {', '.join(workload.bypasses)}")
    print("  per-layer metric -> end-to-end metric it should move: "
          + "; ".join(f"{k} -> {v}" for k, v in workload.layer_map.items()))

    if trace:
        # The traced half replays the untraced half's units; one
        # campaign is enough to compare them and to time the layers.
        seeds = seeds[:1]
    # Unit 0 warms the process up and runs the once-per-run checks; the
    # peak RSS is read after it, before the probe allocates its tables.
    start = time.perf_counter()
    warm = Unit(workload, seeds[0], first=True)
    rss_mb = peak_rss_mb()
    probe = Probe()
    timed = run_units(workload, seeds, budget - (time.perf_counter() - start),
                      probe)
    units = [warm] + timed
    failures = [f for u in units for f in u.failures]
    setup_samples = [u.ref_setup_s for u in timed]
    while len(setup_samples) < MIN_SETUPS:
        setup_samples.append(_setup_only(
            workload, seeds[len(setup_samples) % len(seeds)], probe))
    campaigns = units[:len(seeds)]
    keys = set(campaigns[0].summary)
    for unit in units:
        keys &= set(unit.summary)
    for j, unit in enumerate(units[len(seeds):], start=len(seeds)):
        if unit.fingerprint(keys) != units[j % len(seeds)].fingerprint(keys):
            failures.append(f"unit {j} (seed {unit.seed}) is not "
                            "bit-identical to the first unit with its seed")
    attempted = sum(u.ops for u in units)
    failed_ops = sum(u.failed for u in units)
    untraced_rate = _median([u.ref_ops_per_s for u in timed])

    host = {
        "setup_s": (_median(setup_samples),
                    f"median of {len(setup_samples)} set-ups"),
        "host_ops_per_s": (untraced_rate,
                           f"median of {len(timed)} measured phases"),
        "peak_rss_mb": (rss_mb, "this process, through its first unit"),
    }
    virtual = {}
    for key in sorted(campaigns[0].summary):
        values = [u.summary[key] for u in campaigns if key in u.summary]
        _, unit_name, n, permille = values[0]
        where = (f"p{permille / 10:g} of {n} samples" if permille
                 else f"mean of {n} samples" if n else "at the memory peak")
        virtual[key] = (_median([v[0] for v in values]), unit_name, where)

    print("  host ops/s per timed phase, as measured: "
          + " ".join(f"{u.ops_per_s:.4g}" for u in timed))
    print("  probe seconds beside them (reference "
          f"{PROBE_REF_S} s): " + " ".join(f"{u.probe_s:.4g}" for u in timed))
    print("  end-to-end, host clock (scaled to the reference speed):")
    for key, (value, note) in host.items():
        print(f"    {key:<22} {value:>14.6g} {END_TO_END[key]:<6} {note}")
    print(f"  end-to-end, virtual clock (median over {len(campaigns)} "
          "campaign(s)):")
    for key, (value, unit_name, where) in virtual.items():
        print(f"    {key:<22} {value:>14.6g} {unit_name:<6} {where}")
    if workload.loop == "open":
        print("  generator lateness: 0 ns by construction -- arrivals are "
              "stamped in virtual time, so each latency counts from its "
              "scheduled arrival and includes every earlier stall")
    if name == "fork-cycle":
        _print_model_error(virtual)
    failures += _cross_check(units[0])
    _print_groups(units[0])

    metrics = {}
    if trace:
        metrics, trace_failures, traced = _traced_run(
            workload, seeds, budget, warm, timed, keys, probe)
        failures += trace_failures
        attempted += sum(u.ops for u in traced)
        failed_ops += sum(u.failed for u in traced)
    else:
        for key, unit_name in END_TO_END.items():
            value = host[key][0] if key in host else virtual[key][0]
            metrics[key] = {"value": value, "unit": unit_name}

    for failure in failures:
        print(f"  CHECK FAILED: {failure}")
    print(f"  checks: {'all passed' if not failures else 'FAILED'}; "
          f"ops attempted {attempted}, failed {failed_ops}")
    correct = not failures
    if not correct:
        failed_ops = attempted
    return correct, attempted, failed_ops, metrics


def _print_model_error(virtual):
    import scenarios
    print("  model error against the paper (the only reference data in "
          "the repository: fig7 PAPER_MS at 1 GB, table1 PAPER_MS):")
    for key, paper in scenarios.paper_reference().items():
        model = virtual[key][0]
        print(f"    {key:<22} model {model:>10.4g} us  paper {paper:>8.4g} us"
              f"  error {100 * (model - paper) / paper:+.1f}%")


def _cross_check(unit):
    """At the default seed, the gate's virtual metrics must match exactly."""
    if not unit.cross:
        return []
    import scenarios
    baseline = scenarios.gate_baseline(ROOT)
    failures = []
    print("  cross-check against benchmarks/baseline.json:")
    for key, value in unit.cross.items():
        ok = value == baseline[key]
        print(f"    {key:<32} {value:<10g} baseline {baseline[key]:<10g} "
              f"{'match' if ok else 'MISMATCH'}")
        if not ok:
            failures.append(f"cross-check {key}: {value} != {baseline[key]}")
    return failures


def _print_groups(unit):
    import scenarios
    print(f"  virtual layer groups, first campaign ({unit.clock_ns} ns of "
          "clock advance over all machines):")
    for group in scenarios.GROUPS:
        print(f"    {group:<16} {unit.groups[group]:>16} ns")


def _traced_run(workload, seeds, budget, warm, untraced, keys, probe):
    """Replay the untraced units with every entry point wrapped."""
    import spans
    failures = []
    with spans.SpanRecorder() as recorder:
        traced = run_units(workload, seeds, budget, probe, recorder=recorder,
                           max_units=len(untraced))
    failures += [f for u in traced for f in u.failures]
    for j, unit in enumerate(traced, start=1):
        if unit.fingerprint(keys) != warm.fingerprint(keys):
            failures.append(f"traced unit {j} (seed {unit.seed}) differs "
                            "from the untraced run: tracing changed the "
                            "program")
    failures += spans.leftover_wrappers()
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload.name}-{traced[0].seed}.npz"
    recorder.write(path)

    values = {}
    for unit in traced:
        measured, _ = recorder.summary(*unit.measure_records)
        setup, _ = recorder.summary(*unit.setup_records)
        row = {}
        for layer, stats in measured.items():
            row[f"{layer}.calls"] = stats["calls"]
            if layer in spans.ITEM_NAMES:
                row[f"{layer}.{spans.ITEM_NAMES[layer]}"] = stats["items"]
            row[f"{layer}.self_s"] = stats["self_s"]
            row[f"{layer}.setup_self_s"] = setup[layer]["self_s"]
        fast = measured["kernel.fastpath"]
        row["kernel.fastpath.engaged_ratio"] = (
            fast["items"] / fast["calls"] if fast["calls"] else 0.0)
        for key in VM_KEYS:
            row[f"vm.{key}"] = unit.vm[key]
        for group in REPORTED_GROUPS:
            row[f"virt.{group}_ns"] = unit.groups[group]
        row["trace.spans"] = (unit.measure_records[1]
                              - unit.measure_records[0])
        for key, value in row.items():
            values.setdefault(key, []).append(value)
    traced_rate = _median([u.ref_ops_per_s for u in traced])
    values["trace.untraced_ops_per_s"] = [
        _median([u.ref_ops_per_s for u in untraced[:len(traced)]])]
    values["trace.traced_ops_per_s"] = [traced_rate]
    values["trace.overhead_x"] = [values["trace.untraced_ops_per_s"][0]
                                  / traced_rate]
    metrics = {}
    print(f"  per-layer, traced run ({len(traced)} unit(s), medians; "
          f"spans written to {path.relative_to(ROOT)}):")
    for key, unit_name in per_layer_names().items():
        value = _median(values[key])
        metrics[key] = {"value": value, "unit": unit_name}
        print(f"    {key:<34} {value:>14.6g} {unit_name}")
    print(f"  tracing overhead: untraced "
          f"{values['trace.untraced_ops_per_s'][0]:.4g} ops/s, traced "
          f"{traced_rate:.4g} ops/s over the same units")
    return metrics, failures, traced


# ---- entry point ---------------------------------------------------------------


def _run_all(args):
    """Each workload in its own process, so peak RSS is its own."""
    import scenarios
    ok = True
    for name in scenarios.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, check=False)
        ok = ok and done.returncode == 0
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="fork-cycle, faas-burst, fleet-waves, "
                             "reclaim-overcommit, or all")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default 1234, the CI gate's)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2 ** 31:
        parser.error("--seed must be in [0, 2**31)")
    import_program()
    import scenarios
    if args.seed is None:
        args.seed = scenarios.DEFAULT_SEED
    if args.workload == "all":
        return _run_all(args)
    if args.workload not in scenarios.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    try:
        correct, attempted, failed, metrics = run_workload(
            args.workload, args.seed, args.seconds, args.trace)
    except Exception:  # report the crash as a failed run, then exit 1
        traceback.print_exc()
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
