"""The four benchmark workloads, driven only through the simulator's public API.

Each workload is a *unit*: a set-up (building Machines, an Invoker plus
``deploy()`` or a Fleet, populating heaps), a measured phase, and untimed
correctness checks.  A unit's inputs come from one campaign seed; the
same seed gives bit-identical virtual results.  ``run.py`` repeats units
for the host clock and reports medians.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from repro import GIB, MIB, Machine
from repro.bench import fig7, table1
from repro.bench.faas_bench import SMOKE_CONFIG
from repro.cluster.fleet import Fleet, FleetConfig
from repro.faas.invoker import Invoker
from repro.mem.page import PAGE_SIZE
from repro.timing import costs

DEFAULT_SEED = 1234

#: Tail percentiles tried, in per-mille; the reported tail is the highest
#: one with at least ten samples beyond it.
TAIL_LADDER_PERMILLE = (500, 750, 900, 990, 999)

# ---- virtual layer groups ---------------------------------------------------

#: Profiler names per group.  The cost model charges the fault-time copy
#: of a shared PTE table (odfork's table COW) to the same per-entry
#: names as classic fork's leaf loop, so that copy lands in ``fork_copy``;
#: ``table_cow`` holds only the anchors and the sole-owner unshare flip.
_GROUP_NAMES = {
    "fork_copy": (costs.FN_COMPOUND_HEAD, costs.FN_PAGE_REF_INC,
                  costs.FN_READ_ONCE, costs.FN_VM_NORMAL_PAGE,
                  costs.FN_COPY_ONE_PTE, costs.FN_PTE_ALLOC,
                  costs.FN_FORK_WARMUP),
    # Paid by both flavours: task + VMA duplication, upper-level tables.
    "fork_common": (costs.FN_TASK_DUP, costs.FN_VMA_DUP,
                    costs.FN_UPPER_COPY),
    "table_share": (costs.FN_ODF_SHARE, costs.FN_ODF_FIXED),
    "huge_copy": (costs.FN_HUGE_COPY, costs.FN_BULK_COPY),
    "fault_cow": (costs.FN_FAULT_BASE, costs.FN_PAGE_COPY,
                  costs.FN_PAGE_ZERO, costs.FN_PAGE_CACHE,
                  "bulk_demand_zero", "bulk_cow_reuse", "bulk_cow_copy"),
    "table_cow": (costs.FN_TABLE_COPY, costs.FN_PT_UNSHARE),
    "tlb": (costs.FN_TLB_FLUSH, costs.FN_IPI),
    "teardown": (costs.FN_ZAP_PTE, costs.FN_TABLE_FREE,
                 costs.FN_TABLE_UNSHARE_DEC),
    "reclaim_swap": (costs.FN_SWAP_OUT, costs.FN_SWAP_IN,
                     costs.FN_SWAP_CACHE, costs.FN_LRU_SCAN,
                     costs.FN_RMAP_UNMAP, costs.FN_SHARED_UNMAP,
                     costs.FN_DIRECT_RECLAIM),
    "locks": (costs.FN_MMAP_LOCK, costs.FN_PT_LOCK, costs.FN_LOCK_WAKEUP,
              costs.FN_CTX_SWITCH),
    "syscall_memcpy": (costs.FN_SYSCALL, costs.FN_MEMCPY),
    "numa": (costs.FN_NUMA_ACCESS, costs.FN_NUMA_WALK,
             costs.FN_REPLICA_SYNC, costs.FN_REPLICA_ALLOC,
             costs.FN_REPLICA_COLLAPSE, costs.FN_MIGRATE),
    "snapshot": ("snapshot_save_table", "snapshot_diff_table",
                 "snapshot_restore_entries"),
    "app": ("faas_handler", "redis_command"),
}
FN_GROUP = {fn: group for group, names in _GROUP_NAMES.items()
            for fn in names}
#: Every group, then ``unmapped`` (profiler names no group lists) and
#: ``other`` (clock advance no charge attributes: NIC, idle, arrivals).
GROUPS = tuple(_GROUP_NAMES) + ("unmapped", "other")


def virtual_groups(before, after):
    """Group the profiler + clock deltas of a set of machines.

    ``before``/``after``: ``[(clock_ns, profiler.breakdown()), ...]``, one
    pair per machine.  Returns ``{group: ns}`` whose values sum to the
    clocks' total advance.
    """
    out = dict.fromkeys(GROUPS, 0)
    clock_delta = 0
    for (ns0, prof0), (ns1, prof1) in zip(before, after):
        clock_delta += ns1 - ns0
        for fn, ns in prof1.items():
            delta = ns - prof0.get(fn, 0)
            if delta:
                out[FN_GROUP.get(fn, "unmapped")] += delta
    out["other"] = clock_delta - sum(out.values())
    return out, clock_delta


def tail_permille(n):
    """Highest ladder percentile (per-mille) with >= 10 samples beyond it."""
    best = None
    for permille in TAIL_LADDER_PERMILLE:
        if n * (1000 - permille) >= 10 * 1000:
            best = permille
    return best


def pct(samples, permille):
    """Linear-interpolated percentile of ``samples`` at ``permille``."""
    return float(np.percentile(np.asarray(samples, dtype=np.float64),
                               permille / 10))


# ---- workloads ----------------------------------------------------------------


class Workload:
    """One workload: seeded set-up, measured phase, untimed checks.

    ``campaigns`` is how many campaign seeds a run cycles through; the
    virtual metrics are medians over them, so a workload whose tail
    rests on few samples can spread its seed-to-seed noise.
    """

    name = ""
    loop = ""          # "closed" or "open"
    load = ""          # client count or offered rate
    why = ""
    exercises = ()
    bypasses = ()
    layer_map = {}     # per-layer metric -> end-to-end metric it moves
    campaigns = 1

    def setup(self, seed):
        raise NotImplementedError

    def machines(self, state):
        raise NotImplementedError

    def measure(self, state):
        """Run the measured phase; returns ``(ops, failed, samples)``."""
        raise NotImplementedError

    def check(self, state, samples):
        """Untimed checks of one unit; returns failure messages."""
        raise NotImplementedError

    def teardown(self, state):
        pass

    def once_per_run(self, samples):
        """Checks that need extra campaigns, run once per run after the
        first unit is torn down; may add to ``samples``."""
        return []

    def summary(self, samples):
        """The workload's end-to-end virtual metrics from one unit."""
        raise NotImplementedError


def _latency_metrics(latency_ns, out):
    """The universal latency metrics, plus the named tail for the report."""
    n = len(latency_ns)
    permille = tail_permille(n)
    out["latency_ms_mean"] = (float(np.mean(latency_ns)) / 1e6, "ms", n, None)
    out["latency_ms_p50"] = (pct(latency_ns, 500) / 1e6, "ms", n, 500)
    out["latency_ms_tail"] = (pct(latency_ns, permille) / 1e6, "ms", n,
                              permille)


class ForkCycle(Workload):
    name = "fork-cycle"
    loop = "closed"
    load = "1 client"
    why = ("closed loop, 1 client: 1 GiB parent forks, child writes 64 "
           "random pages, exits; kernel fork/odfork/fastpath/teardown and "
           "mem.buddy do the work, rmap is off")
    exercises = ("core.process", "kernel.fastpath", "kernel.odfork",
                 "kernel.teardown", "kernel.fault", "kernel.tableops",
                 "mem.buddy")
    bypasses = ("kernel.rmap", "kernel.reclaim", "mem.swap", "faas",
                "cluster", "apps.kvstore")
    layer_map = {
        "core.process.self_s": "host_ops_per_s",
        "kernel.fastpath.self_s": "host_ops_per_s",
        "kernel.teardown.self_s": "host_ops_per_s",
        "kernel.fault.self_s": "host_ops_per_s",
        "mem.buddy.self_s": "host_ops_per_s, setup_s",
        "kernel.bulkops.self_s": "setup_s",
        "virt.fork_copy_ns": "fork_us_p50, odfork_write_us_p50",
        "virt.table_share_ns": "odfork_us_p50, latency_ms_*",
        "virt.fault_cow_ns": "fork_write_us_p50, odfork_write_us_p50",
    }

    HEAP = 1 * GIB
    PHYS_MB = 4 * 1024      # fig7's headroom: heap + 3 GiB
    NOISE_SIGMA = 0.04      # fig7's seeded cost noise
    CYCLES = 40             # per leg; p75 leaves 10 cycles beyond it
    WRITES = 64

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        n_pages = self.HEAP // PAGE_SIZE
        pages = rng.integers(0, n_pages, size=(2, self.CYCLES, self.WRITES))
        payloads = rng.integers(1, 1 << 62, size=(2, self.CYCLES),
                                dtype=np.int64)
        machine = Machine(phys_mb=self.PHYS_MB, noise_sigma=self.NOISE_SIGMA,
                          seed=seed)
        parent = machine.spawn_process("forkbench")
        heap = parent.mmap(self.HEAP)
        parent.touch_range(heap, self.HEAP, write=True)
        # The parent owns a distinct 8-byte token on every page a child
        # will write, so the COW check can read its own bytes back.
        for page in np.unique(pages).tolist():
            parent.write(heap + page * PAGE_SIZE, _token(page))
        return {"machine": machine, "parent": parent, "heap": heap,
                "pages": pages, "payloads": payloads}

    def machines(self, state):
        return [state["machine"]]

    def measure(self, state):
        machine, parent, heap = (state["machine"], state["parent"],
                                 state["heap"])
        samples = {}
        for leg, flavour in enumerate(("fork", "odfork")):
            forks, writes, cycles = [], [], []
            for cycle in range(self.CYCLES):
                watch = machine.stopwatch()
                child = parent.odfork() if leg else parent.fork()
                forks.append(parent.last_fork_ns)
                payload = int(state["payloads"][leg, cycle]).to_bytes(8, "little")
                for page in state["pages"][leg, cycle].tolist():
                    write = machine.stopwatch()
                    child.write(heap + page * PAGE_SIZE, payload)
                    writes.append(write.elapsed_ns)
                child.exit()
                parent.wait()
                cycles.append(watch.elapsed_ns)
            samples[f"{flavour}_ns"] = forks
            samples[f"{flavour}_write_ns"] = writes
            samples[f"{flavour}_cycle_ns"] = cycles
        return 2 * self.CYCLES, 0, samples

    def check(self, state, samples):
        failures = []
        parent, heap = state["parent"], state["heap"]
        for page in np.unique(state["pages"]).tolist():
            seen = parent.read(heap + page * PAGE_SIZE, 8)
            if seen != _token(page):
                failures.append(f"COW isolation: parent page {page} reads "
                                f"{seen!r}, wrote {_token(page)!r}")
                break
        if not np.median(samples["odfork_ns"]) < np.median(samples["fork_ns"]):
            failures.append("shape: odfork_us_p50 is not below fork_us_p50")
        return failures

    def summary(self, samples):
        out = {}
        for flavour in ("fork", "odfork"):
            forks = samples[f"{flavour}_ns"]
            writes = samples[f"{flavour}_write_ns"]
            out[f"{flavour}_us_p50"] = (pct(forks, 500) / 1e3, "us",
                                        len(forks), 500)
            out[f"{flavour}_write_us_p50"] = (pct(writes, 500) / 1e3, "us",
                                              len(writes), 500)
        _latency_metrics(samples["odfork_cycle_ns"], out)
        return out


def _token(page):
    return (page * 2654435761 % (1 << 63) | 1).to_bytes(8, "little")


class FaasBurst(Workload):
    name = "faas-burst"
    loop = "open"
    load = "Poisson 80k inv/s"
    why = ("open loop, Poisson 80k inv/s, faas SMOKE_CONFIG, fork leg then "
           "odfork leg: thousands of small forks and exits with swap on, "
           "so rmap add/remove and buddy churn dominate")
    exercises = ("core.process", "kernel.fastpath", "kernel.odfork",
                 "kernel.teardown", "kernel.rmap", "kernel.snapshot",
                 "mem.buddy", "faas")
    bypasses = ("cluster", "apps.kvstore", "paging.walk")
    layer_map = {
        "kernel.rmap.self_s": "host_ops_per_s, peak_rss_mb",
        "mem.buddy.self_s": "host_ops_per_s, setup_s",
        "kernel.snapshot.self_s": "host_ops_per_s",
        "faas.self_s": "host_ops_per_s, setup_s",
        "virt.fork_copy_ns": "fork_us_p50, fork_us_p99",
        "virt.table_share_ns": "odfork_us_p50, odfork_us_p99, latency_ms_*",
    }

    #: A campaign's p99 rests on 12 samples; three campaigns per run
    #: halve the seed-to-seed spread of the reported median.
    campaigns = 3

    def setup(self, seed):
        invokers = {}
        for flavour in ("fork", "odfork"):
            config = dataclasses.replace(
                SMOKE_CONFIG, seed=seed, use_odfork=(flavour == "odfork"))
            invoker = Invoker(config)
            invoker.deploy()
            invokers[flavour] = invoker
        return invokers

    def machines(self, state):
        return [m for inv in state.values() for m in inv.machines]

    def measure(self, state):
        results = {flavour: inv.run() for flavour, inv in state.items()}
        ops = sum(r.generated for r in results.values())
        failed = sum(r.dropped + r.failed for r in results.values())
        return ops, failed, results

    def check(self, state, results):
        failures = []
        for flavour, result in results.items():
            if not result.conserved():
                failures.append(f"{flavour} leg: conserved() is False")
        fork_p50 = np.median(results["fork"].cold_start_ns)
        if not np.median(results["odfork"].cold_start_ns) < fork_p50:
            failures.append("shape: odfork_us_p50 is not below fork_us_p50")
        return failures

    def teardown(self, state):
        for invoker in state.values():
            invoker.shutdown()

    def summary(self, results):
        out = {}
        for flavour, result in results.items():
            cold = result.cold_start_ns
            out[f"{flavour}_us_p50"] = (pct(cold, 500) / 1e3, "us",
                                        len(cold), 500)
            out[f"{flavour}_us_p99"] = (pct(cold, 990) / 1e3, "us",
                                        len(cold), 990)
        odf = results["odfork"]
        out["density_fn_per_gb"] = (float(odf.density_fn_per_gb), "fn/GB",
                                    None, None)
        _latency_metrics(odf.latencies_ns, out)
        return out

    def cross_check(self, results):
        """Values the CI gate tracks, computed as ``repro.bench`` does."""
        odf = results["odfork"]
        return {
            "faas.cold_start_p99_us":
                round(odf.percentile_us(odf.cold_start_ns, 99), 2),
            "faas.density_fn_per_gb": round(odf.density_fn_per_gb, 2),
        }


class FleetWaves(Workload):
    name = "fleet-waves"
    loop = "open"
    load = "Poisson 1M req/s"
    why = ("open loop, Poisson 1M req/s, 4 replicas x 48 MiB, 16k requests, "
           "2 staggered odfork waves: gateway/NIC/DLM work and page walks "
           "dominate, fork work is small")
    exercises = ("core.process", "kernel.odfork", "kernel.fault",
                 "kernel.tableops", "paging.walk", "cluster", "apps.kvstore")
    bypasses = ("kernel.rmap", "kernel.reclaim", "mem.swap", "faas",
                "kernel.snapshot")
    layer_map = {
        "cluster.self_s": "host_ops_per_s",
        "apps.kvstore.self_s": "host_ops_per_s",
        "paging.walk.self_s": "host_ops_per_s",
        "kernel.fault.self_s": "host_ops_per_s",
        "virt.fork_copy_ns": "latency_ms_tail (table COW after a wave)",
        "virt.app_ns": "latency_ms_*",
    }
    #: One campaign's p999 rests on 16 samples; nine campaigns per run
    #: keep the seed-to-seed spread of the reported median small.
    campaigns = 9

    BASE = FleetConfig(replicas=4, data_mb=48, n_requests=16_000,
                       rate_rps=1e6, wave_interval_ms=5.0, n_waves=2,
                       seed=DEFAULT_SEED)

    def setup(self, seed):
        return Fleet(dataclasses.replace(self.BASE, seed=seed,
                                         strategy="staggered",
                                         use_odfork=True))

    def machines(self, fleet):
        return [r.machine for r in fleet.replicas]

    def measure(self, fleet):
        result = fleet.run()
        return result.generated, result.dropped, {"staggered-odfork": result}

    def check(self, fleet, results):
        if not results["staggered-odfork"].conserved():
            return ["staggered-odfork: conserved() is False"]
        return []

    def once_per_run(self, results):
        # The paper shape needs the simultaneous classic-fork campaign
        # over the same schedule.
        result = results["staggered-odfork"]
        other = Fleet(dataclasses.replace(
            self.BASE, seed=result.config.seed, strategy="simultaneous",
            use_odfork=False))
        failures = []
        try:
            results["simultaneous-fork"] = other.run()
            for machine in self.machines(other):
                machine.check_frame_invariants()
        finally:
            other.shutdown()
        if not results["simultaneous-fork"].conserved():
            failures.append("simultaneous-fork: conserved() is False")
        odf = pct(result.aggregator.merged(), 999)
        fork = pct(results["simultaneous-fork"].aggregator.merged(), 999)
        if not odf < fork:
            failures.append("shape: staggered-odfork p999 is not below "
                            "simultaneous-fork p999")
        return failures

    def teardown(self, fleet):
        fleet.shutdown()

    def summary(self, results):
        out = {}
        result = results["staggered-odfork"]
        blocks = result.fork_blocks_ns
        out["odfork_us_p50"] = (pct(blocks, 500) / 1e3, "us", len(blocks),
                                500)
        if "simultaneous-fork" in results:
            blocks = results["simultaneous-fork"].fork_blocks_ns
            out["fork_us_p50"] = (pct(blocks, 500) / 1e3, "us", len(blocks),
                                  500)
        latency = result.aggregator.merged()
        out["latency_ms_p99"] = (pct(latency, 990) / 1e6, "ms", len(latency),
                                 990)
        _latency_metrics(latency, out)
        return out

    def cross_check(self, results):
        result = results["staggered-odfork"]
        return {"fleet.p99_ms@staggered-odfork":
                round(result.percentiles_ms()[99], 4)}


class ReclaimOvercommit(Workload):
    name = "reclaim-overcommit"
    loop = "closed"
    load = "1 client"
    why = ("closed loop, 1 client: fork server at 2x overcommit (32 MiB RAM, "
           "128 MiB swap) odforks, writes 64 random pages, exits; the only "
           "workload where reclaim, swap and rmap lookups run")
    exercises = ("core.process", "kernel.odfork", "kernel.fault",
                 "kernel.tableops", "kernel.rmap", "kernel.reclaim",
                 "mem.swap", "mem.buddy")
    bypasses = ("faas", "cluster", "apps.kvstore", "kernel.snapshot")
    layer_map = {
        "kernel.rmap.self_s": "host_ops_per_s (lookups)",
        "kernel.reclaim.self_s": "host_ops_per_s, latency_ms_tail",
        "mem.swap.self_s": "host_ops_per_s",
        "virt.reclaim_swap_ns": "latency_ms_tail",
        "virt.fork_copy_ns": "latency_ms_* (table COW)",
    }

    PHYS_MB = 32
    SWAP_MB = 128
    OVERCOMMIT = 2
    ROUNDS = 100            # p90 leaves 10 rounds beyond it
    WRITES = 64

    def setup(self, seed):
        heap_bytes = self.OVERCOMMIT * self.PHYS_MB * MIB
        rng = np.random.default_rng(seed)
        pages = rng.integers(0, heap_bytes // PAGE_SIZE,
                             size=(self.ROUNDS, self.WRITES))
        machine = Machine(phys_mb=self.PHYS_MB, swap_mb=self.SWAP_MB)
        server = machine.spawn_process("fork-server")
        heap = server.mmap(heap_bytes)
        # Past 1x RAM this fill only completes because kswapd and direct
        # reclaim evict to swap as it advances.
        server.touch_range(heap, heap_bytes, write=True)
        return {"machine": machine, "server": server, "heap": heap,
                "pages": pages}

    def machines(self, state):
        return [state["machine"]]

    def measure(self, state):
        machine, server, heap = (state["machine"], state["server"],
                                 state["heap"])
        rounds, forks = [], []
        for round_pages in state["pages"]:
            watch = machine.stopwatch()
            child = server.odfork()
            forks.append(server.last_fork_ns)
            for page in round_pages.tolist():
                child.write(heap + page * PAGE_SIZE, b"request!")
            child.exit()
            server.wait()
            rounds.append(watch.elapsed_ns)
        return self.ROUNDS, 0, {"round_ns": rounds, "odfork_ns": forks}

    def check(self, state, samples):
        server, heap = state["server"], state["heap"]
        for page in np.unique(state["pages"]).tolist():
            seen = server.read(heap + page * PAGE_SIZE, 8)
            if seen != bytes(8):
                return [f"COW isolation: server page {page} reads {seen!r}"]
        return []

    def summary(self, samples):
        forks = samples["odfork_ns"]
        out = {"odfork_us_p50": (pct(forks, 500) / 1e3, "us", len(forks),
                                 500)}
        rounds = samples["round_ns"]
        out["latency_ms_p90"] = (pct(rounds, 900) / 1e6, "ms", len(rounds),
                                 900)
        _latency_metrics(rounds, out)
        return out


WORKLOADS = {w.name: w for w in (ForkCycle(), FaasBurst(), FleetWaves(),
                                 ReclaimOvercommit())}


def paper_reference():
    """The only reference data in the repository: the paper's numbers
    for a 1 GiB fork (Figure 7) and its worst-case faults (Table 1)."""
    return {
        "fork_us_p50": fig7.PAPER_MS[fig7.VARIANT_FORK][1] * 1e3,
        "odfork_us_p50": fig7.PAPER_MS[fig7.VARIANT_ODFORK][1] * 1e3,
        "fork_write_us_p50": table1.PAPER_MS[table1.VARIANT_FORK] * 1e3,
        "odfork_write_us_p50": table1.PAPER_MS[table1.VARIANT_ODFORK] * 1e3,
    }


def gate_baseline(root):
    """The CI gate's committed virtual baselines (``benchmarks/``)."""
    path = Path(root) / "benchmarks" / "baseline.json"
    with open(path) as fh:
        return json.load(fh)["metrics"]
