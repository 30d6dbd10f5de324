"""Tests for the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO = BENCH_DIR.parent
PACKAGE_DIR = REPO / "src" / "repro"
for path in (str(BENCH_DIR), str(REPO / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((REPO / "BENCHMARK.json").read_text())


def _repro_modules():
    return sorted(
        path.relative_to(PACKAGE_DIR).with_suffix("").as_posix()
        for path in PACKAGE_DIR.rglob("*.py")
    )


def test_every_repro_module_maps_to_exactly_one_layer():
    modules = _repro_modules()
    assert modules
    for module in modules:
        name = layers.module_name(str(PACKAGE_DIR / (module + ".py")), PACKAGE_DIR)
        assert name == module
        assert layers.module_layer(module) in layers.LAYER_OF_PACKAGE.values()
    # No stale entries: every key names a subpackage or root module.
    present = {module.split("/", 1)[0] for module in modules}
    assert set(layers.LAYER_OF_PACKAGE) == present


def test_files_outside_the_package_have_no_layer():
    assert layers.module_name("~", PACKAGE_DIR) is None
    assert layers.module_name(str(BENCH_DIR / "run.py"), PACKAGE_DIR) is None
    with pytest.raises(KeyError):
        layers.module_layer("brand_new_subpackage/module")


def test_rollup_splits_outside_time_by_caller_layer():
    host = (str(PACKAGE_DIR / "core" / "host.py"), 10, "read")
    kernel = (str(PACKAGE_DIR / "engine" / "simulation.py"), 20, "run")
    bench = (str(BENCH_DIR / "run.py"), 30, "main")
    push = ("~", 0, "<built-in method _heapq.heappush>")
    stats = {
        host: (4, 4, 1.0, 3.0, {kernel: (4, 4, 1.0, 3.0)}),
        kernel: (1, 1, 2.0, 6.0, {bench: (1, 1, 2.0, 6.0)}),
        bench: (1, 1, 0.25, 6.5, {}),
        push: (
            9,
            9,
            0.75,
            0.75,
            {host: (5, 5, 0.5, 0.5), kernel: (3, 3, 0.125, 0.125), bench: (1, 1, 0.125, 0.125)},
        ),
    }
    profile = layers.rollup(stats, PACKAGE_DIR)
    assert profile.self_s["core"] == 1.5
    assert profile.self_s["engine"] == 2.125
    assert profile.self_s["other"] == 0.375
    assert profile.total_self_s == 4.0
    assert profile.calls["core"] == 4 and profile.calls["engine"] == 1
    assert profile.outside_calls["<built-in method _heapq.heappush>"] == 9
    assert profile.function_cum_s["engine/simulation:run"] == 6.0
    # Rolling up again into the same profile adds.
    layers.rollup(stats, PACKAGE_DIR, into=profile)
    assert profile.calls["core"] == 8


def test_corrupted_pinned_signature_fails_its_operations(tmp_path, monkeypatch):
    pinned = workloads.PINNED_DIGESTS["tiny"]["paper_baseline_stream"]
    assert pinned, "tiny pins missing"
    monkeypatch.setitem(
        workloads.PINNED_DIGESTS["tiny"], "paper_baseline_stream", ["0" * 16]
    )
    bench = run.Bench("paper_baseline_stream", workloads.DEFAULT_SEED, "tiny", tmp_path)
    try:
        metrics = bench.timed(0.01)
    finally:
        bench.close()
    # The warm-up and every timed replay carry the wrong pin.
    assert bench.ops.attempted == 1 + len(bench.samples)
    assert bench.ops.failed == bench.ops.attempted
    assert all("expected 0000000000000000" in note for note in bench.ops.notes)
    assert metrics["wall_s"][0] > 0


def test_the_command_line_offers_every_workload():
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOAD_NAMES)


def test_a_raising_replay_counts_every_point_as_failed():
    ops = run.Operations()
    try:
        raise RuntimeError("boom")
    except RuntimeError:
        ops.raised("timed replay", 7)
    ops.check("timed replay", ["a", "b"], ["a", "c"])
    assert (ops.attempted, ops.failed) == (9, 8)


@pytest.mark.skipif(
    not Path("/proc/self/smaps_rollup").exists(), reason="needs /proc/<pid>/smaps_rollup"
)
def test_group_memory_counts_a_forked_child_once():
    alone = run._group_pss_kib()
    child = multiprocessing.get_context("fork").Process(target=time.sleep, args=(10,))
    child.start()
    try:
        with_child = run._group_pss_kib()
    finally:
        child.terminate()
        child.join()
    # Summed resident sizes would nearly double; proportional sizes split
    # the pages parent and child share.
    assert alone > 0
    assert 0.9 * alone < with_child < 1.5 * alone


def _run(*args, cwd=REPO):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_is_correct_and_reports_every_declared_metric(workload, trace):
    done = _run("--workload", workload, "--size", "tiny", "--seconds", "0.2", "--trace", trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    provenance = json.loads(lines[0][len("provenance ") :])
    assert provenance["pinned"] is True
    assert provenance["kernel"] in ("compiled", "generator")
    assert provenance["cpus"] >= 1 and provenance["python"]
    assert provenance["hash_randomization"] == 0
    if trace == "1":
        metrics = result["metrics"]
        # The layer self times account for the traced replay wall.
        assert 0.8 < metrics["bench.self_coverage"]["value"] <= 1.01
    assert not (REPO / ".perfbench_run").exists()


def _session_processes(sid):
    """Live processes of session ``sid``, read from ``/proc``."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # After the command name: state, ppid, pgrp, session.
        if int(fields[3]) == sid:
            found.append((stat.parent.name, fields[0]))
    return found


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_sweep_run_leaves_no_process_behind(trace):
    done = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "shared_ws_sweep"]
        + ["--size", "tiny", "--seconds", "0.2", "--trace", trace],
        cwd=REPO,
        stdout=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert done.wait(timeout=170) == 0
    # Not even a zombie: every child was waited for.
    assert _session_processes(done.pid) == []


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        done = _run("--workload", "fleet_miss_heavy", "--size", "tiny", "--trace", "1")
        assert done.returncode == 0, done.stderr
        metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
        counts.append(
            {name: m["value"] for name, m in metrics.items() if m["unit"] in ("count", "bytes")}
        )
    assert counts[0]["engine.calls"] > 0
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_simulator_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "fleet_miss_heavy", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
