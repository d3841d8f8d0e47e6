"""The benchmark's own tests.

    python3 -m pytest perfbench -q

One untraced and one traced unit of every workload at the default seed
(about a minute in all) back the checks that the traced run observes the
same program, that every wrapped entry point is reached by the workload
meant to exercise it, and that the virtual layer groups account for the
whole clock advance.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import scenarios  # noqa: E402
import spans  # noqa: E402

#: Entry point -> the workload meant to exercise it (its whole unit:
#: set-up, measured phase and checks).
EXERCISED_ON = {
    "core.process:Process.fork": "fork-cycle",
    "core.process:Process.odfork": "fork-cycle",
    "core.process:Process.exit": "fork-cycle",
    "core.process:Process.wait": "fork-cycle",
    "core.process:Process.write": "fork-cycle",
    "core.process:Process.read": "fork-cycle",
    "core.process:Process.touch_range": "fork-cycle",
    "kernel.fastpath:fast_copy_mm_classic": "fork-cycle",
    "kernel.fastpath:fast_exit_release_pmd_table": "fork-cycle",
    "kernel.odfork:copy_mm_odf": "fork-cycle",
    "kernel.teardown:exit_mmap": "fork-cycle",
    "kernel.fault:FaultHandler.handle": "fork-cycle",
    "kernel.tableops:copy_shared_pte_table": "fork-cycle",
    "kernel.bulkops:access_range": "fork-cycle",
    "kernel.bulkops:populate_range": "faas-burst",
    "kernel.rmap:rmap_add_bulk": "faas-burst",
    "kernel.rmap:rmap_remove_bulk": "faas-burst",
    "kernel.rmap:try_to_unmap": "reclaim-overcommit",
    "kernel.rmap:AnonRmap.tables_for": "reclaim-overcommit",
    "kernel.reclaim:ReclaimState.shrink": "reclaim-overcommit",
    "kernel.reclaim:ReclaimState.balance": "reclaim-overcommit",
    "mem.swap:SwapDevice.write": "reclaim-overcommit",
    "mem.swap:SwapDevice.read": "reclaim-overcommit",
    "kernel.snapshot:Snapshot.restore": "faas-burst",
    "mem.buddy:BuddyAllocator.alloc": "fork-cycle",
    "mem.buddy:BuddyAllocator.free": "fork-cycle",
    "mem.buddy:BuddyAllocator.alloc_bulk": "faas-burst",
    "mem.buddy:BuddyAllocator.free_bulk": "faas-burst",
    "paging.walk:Walker.translate": "fleet-waves",
    "faas:Template.invoke_cold": "faas-burst",
    "faas:Template.invoke_warm": "faas-burst",
    "faas:Template.reset": "faas-burst",
    "faas:Template.reap_due": "faas-burst",
    "faas:ImageRegistry.register": "faas-burst",
    "cluster:Gateway.route": "fleet-waves",
    "cluster:Gateway.admit": "fleet-waves",
    "cluster:Gateway.inbound": "fleet-waves",
    "cluster:Gateway.outbound": "fleet-waves",
    "cluster:Replica.serve": "fleet-waves",
    "cluster:Replica.snapshot": "fleet-waves",
    "cluster:Dlm.acquire": "fleet-waves",
    "cluster:Dlm.release": "fleet-waves",
    "cluster:SnapshotCoordinator.pump": "fleet-waves",
    "apps.kvstore:KVStore.handle_get": "fleet-waves",
    "apps.kvstore:KVStore.handle_set": "fleet-waves",
}
#: The per-event classic fork runs only when the fast path bails, which
#: no workload makes it do; its count is checked against the bails.
FALLBACK = "kernel.fork:copy_mm_classic"


@pytest.fixture(scope="module")
def units():
    """``{workload: (untraced unit, traced unit, recorder)}``."""
    out = {}
    for name, workload in scenarios.WORKLOADS.items():
        plain = run.Unit(workload, scenarios.DEFAULT_SEED, first=True)
        with spans.SpanRecorder() as recorder:
            traced = run.Unit(workload, scenarios.DEFAULT_SEED, first=False,
                              recorder=recorder)
        out[name] = (plain, traced, recorder)
    return out


def test_every_entry_point_is_listed():
    listed = set(EXERCISED_ON) | {FALLBACK}
    assert listed == {spans.entry_name(e) for e in spans.ENTRY_POINTS}


def test_entry_points_reached_on_their_workload(units):
    for label, workload in EXERCISED_ON.items():
        _, per_entry = units[workload][2].summary()
        assert per_entry[label]["calls"] >= 1, \
            f"{label} not reached on {workload}"


def test_classic_copy_runs_exactly_when_the_fast_path_bails(units):
    for name, (_, _, recorder) in units.items():
        _, per_entry = recorder.summary()
        fast = per_entry["kernel.fastpath:fast_copy_mm_classic"]
        assert per_entry[FALLBACK]["calls"] == \
            fast["calls"] - fast["items"], name


def test_bypassed_layers_record_no_calls(units):
    # Without swap there is no reverse map to maintain.
    assert "kernel.rmap" in scenarios.WORKLOADS["fork-cycle"].bypasses
    assert "kernel.rmap" in scenarios.WORKLOADS["fleet-waves"].bypasses
    for name, (_, traced, recorder) in units.items():
        measured, _ = recorder.summary(*traced.measure_records)
        for layer in scenarios.WORKLOADS[name].bypasses:
            assert measured[layer]["calls"] == 0, (name, layer)


def test_traced_run_observes_the_same_program(units):
    for name, (plain, traced, _) in units.items():
        keys = set(plain.summary) & set(traced.summary)
        assert traced.fingerprint(keys) == plain.fingerprint(keys), name
        assert not plain.failures and not traced.failures, name
    assert spans.leftover_wrappers() == []


def test_virtual_groups_sum_to_the_clock_advance(units):
    for name, (plain, _, _) in units.items():
        assert sum(plain.groups.values()) == plain.clock_ns, name
        assert plain.groups["other"] >= 0, name
        assert plain.groups["unmapped"] == 0, name


def test_default_seed_reproduces_the_gate_baseline(units):
    baseline = scenarios.gate_baseline(run.ROOT)
    cross = {}
    for plain, _, _ in units.values():
        cross.update(plain.cross)
    assert set(cross) == {"faas.cold_start_p99_us", "faas.density_fn_per_gb",
                          "fleet.p99_ms@staggered-odfork"}
    for key, value in cross.items():
        assert value == baseline[key], key


def test_tail_percentile_leaves_ten_samples_beyond():
    assert scenarios.tail_permille(40) == 750
    assert scenarios.tail_permille(100) == 900
    assert scenarios.tail_permille(1200) == 990
    assert scenarios.tail_permille(16000) == 999


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(scenarios.WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == scenarios.WORKLOADS[entry["name"]].why
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_names()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fork-cycle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        check=False)
    assert done.returncode != 0
    assert "correct" not in done.stdout
