#!/usr/bin/env python3
"""The simulator's benchmark: three workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload paper_baseline_stream --seed 42 --seconds 35 --trace 0

``--trace 0`` times the workload with no profiler attached and reports
the end-to-end metrics ``wall_s``, ``blocks_per_s``, ``setup_s`` and
``peak_rss_mb``.  ``--trace 1`` makes a separate run under ``cProfile``
and reports per-layer host time and operation counts (see
``layers.py``).  Both check every replay's ``full_signature``: against
the pinned digests at the default seed, and against the run's own
reference replay at every seed.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The workloads, their sizes and the layer -> metric map are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import multiprocessing
import os
import platform
import pstats
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
PACKAGE_DIR = REPO / "src" / "repro"

WORKLOAD_NAMES = ("paper_baseline_stream", "fleet_miss_heavy", "shared_ws_sweep")

#: Set-ups per timed run; ``setup_s`` is their median.
SETUP_REPEATS = 7

#: Timed replays per run at the least, however short ``--seconds`` is.
#: The sweep's memory is read after the warm-up and this many replays.
MIN_SAMPLES = 3

#: Scratch space for spools, inside the checkout.
RUN_DIR = REPO / ".perfbench_run"


@dataclass
class Operations:
    """Replays attempted and failed, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def check(self, what: str, digests: Sequence[str], expected: Sequence[str]) -> None:
        """Count one operation per point; a digest that differs from the
        expected one fails its operation."""
        for index, digest in enumerate(digests):
            self.attempted += 1
            if digest != expected[index]:
                self.failed += 1
                self.notes.append(
                    "%s point %d: signature %s, expected %s"
                    % (what, index, digest, expected[index])
                )

    def raised(self, what: str, points: int) -> None:
        """Count every point of a replay that raised as failed."""
        self.attempted += points
        self.failed += points
        self.notes.append("%s raised: %s" % (what, traceback.format_exc().strip()))


def _commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _group_pss_kib() -> int:
    """Proportional set size (``Pss``) of this process and its live child
    processes, summed, in KiB; 0 where ``/proc`` does not report it.

    ``Pss`` charges each page shared by k processes 1/k to each of them,
    so copy-on-write pages a forked worker shares with its parent, and
    shared-memory segments both workers map, are counted once.
    """
    total = 0
    for pid in [os.getpid()] + [child.pid for child in multiprocessing.active_children()]:
        try:
            with open("/proc/%d/smaps_rollup" % pid) as rollup:
                for line in rollup:
                    if line.startswith("Pss:"):
                        total += int(line.split()[1])
        except OSError:
            pass
    return total


def _stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    That is the sweep's worker pool and the ``multiprocessing`` resource
    tracker, which the first shared-memory segment starts and which would
    otherwise outlive this process.  The tracker is stopped last: the
    pool's workers hold its pipe open until they have exited.
    """
    if "repro.sweep" in sys.modules:
        sys.modules["repro.sweep"].shutdown_pool()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def _profiled(fn: Callable[[], object]) -> Tuple[object, Dict, float]:
    """Run ``fn`` under ``cProfile``: ``(result, stats, wall seconds)``."""
    profiler = cProfile.Profile()
    gc.collect()
    start = time.perf_counter()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    wall = time.perf_counter() - start
    return result, pstats.Stats(profiler).stats, wall


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, size: str, workdir: Path) -> None:
        import workloads

        self.wl = workloads
        self.workload = workload
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.ops = Operations()
        pinned = workloads.PINNED_DIGESTS[size][workload]
        self.pinned: Optional[List[str]] = (
            pinned if seed == workloads.DEFAULT_SEED and pinned else None
        )
        self.reference: Optional[List[str]] = None
        self.prepared = None
        self.setups = 0
        self.samples: List[float] = []
        self.setup_samples: List[float] = []
        self.described: Dict[str, object] = {}

    # --- building blocks -------------------------------------------------

    def setup(self):
        """Build the workload afresh (after :meth:`close`)."""
        self.setups += 1
        self.prepared = self.wl.WORKLOADS[self.workload](
            self.seed, self.size, self.workdir / ("setup%d" % self.setups)
        )
        return self.prepared

    def digests(self, results) -> List[str]:
        return [self.wl.signature_digest(result) for result in results]

    def checked(self, what: str, replay: Callable[[], List], points: int):
        """Run one replay unit and check its signatures.

        The first unit that succeeds becomes the run's reference; it is
        itself checked against the pinned digests where those apply.
        Returns ``(results, wall seconds)``, or None when it raised.
        """
        gc.collect()
        start = time.perf_counter()
        try:
            results = replay()
        except Exception:
            self.ops.raised(what, points)
            return None
        wall = time.perf_counter() - start
        digests = self.digests(results)
        if self.reference is None:
            self.reference = self.pinned or digests
        self.ops.check(what, digests, self.reference)
        return results, wall

    # --- the two passes --------------------------------------------------

    def timed(self, seconds: float) -> Dict[str, Tuple[float, str]]:
        """Untraced pass: set-ups, a warm-up replay, then replays until
        set-ups and replays have taken ``seconds``; every timing is a
        median."""
        setup_walls = []
        for _ in range(SETUP_REPEATS):
            self.close()
            gc.collect()
            start = time.perf_counter()
            prepared = self.setup()
            setup_walls.append(time.perf_counter() - start)
        blocks = prepared.blocks()
        points = len(prepared.points)
        # Warm-up: lazy imports, the spool's page cache, the pool's first
        # task.  Untimed, but checked.
        warm = self.checked("warm-up replay", prepared.replay, points)
        group_kib = 0
        walls: List[float] = []
        deadline = time.perf_counter() + seconds - sum(setup_walls)
        # Stop before a replay that would likely end past the deadline, so
        # a run measures for about ``seconds``, not up to one replay more.
        while warm is not None and (
            len(walls) < MIN_SAMPLES or time.perf_counter() + walls[-1] <= deadline
        ):
            done = self.checked("timed replay %d" % (len(walls) + 1), prepared.replay, points)
            if done is None:
                break
            walls.append(done[1])
            if len(walls) == MIN_SAMPLES and prepared.workers:
                # The sweep's workers keep growing from sweep to sweep, and
                # the number of sweeps in a run depends on the machine's
                # speed, so their memory is read at a fixed point.
                group_kib = _group_pss_kib()
        self.samples = walls
        self.setup_samples = setup_walls
        self.describe(prepared, prepared.kernel())
        self.close()
        own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        wall = statistics.median(walls) if walls else 0.0
        return {
            "wall_s": (wall, "s"),
            "blocks_per_s": (blocks / wall if wall else 0.0, "blocks/s"),
            "setup_s": (statistics.median(setup_walls), "s"),
            "peak_rss_mb": (max(own_kib, group_kib) / 1024.0, "MiB"),
        }

    def traced(self) -> Dict[str, Tuple[float, str]]:
        """Traced pass: profiled set-up, a warm-up and an untraced replay,
        then the same replays under the profiler."""
        from layers import LayerProfile, rollup
        from repro.sweep import shutdown_pool

        prepared, stats, _ = _profiled(self.setup)
        setup_profile = rollup(stats, PACKAGE_DIR)
        # Pool workers forked while the profiler ran inherit it; the
        # warm-up replay starts a clean pool instead.
        shutdown_pool()
        points = len(prepared.points)
        if self.checked("warm-up replay", prepared.replay, points) is None:
            return {}
        untraced = self.checked("untraced replay", prepared.replay, points)
        if untraced is None:
            return {}
        untraced_wall = untraced[1]
        reports = list(prepared.reports)

        # (what, replay, expected digests, runs in this process)
        profiled: List[Tuple[str, Callable[[], List], List[str], bool]] = []
        if prepared.workers:
            # The sweep's parent side (fan-out, shm publish, result
            # pickling) under the profiler; the workers run untraced.
            profiled.append(("traced sweep", prepared.replay, self.reference, False))
            # Each point again in this process, where the profiler sees
            # every layer; it must equal the sweep's result.
            profiled.extend(
                (
                    "traced point %s" % point.label,
                    lambda point=point: [prepared.replay_point(point)],
                    [self.reference[index]],
                    True,
                )
                for index, point in enumerate(prepared.points)
            )
        else:
            profiled.append(("traced replay", prepared.replay, self.reference, True))
        profile = LayerProfile()
        traced_wall = inprocess_wall = 0.0
        traced_results: List = []
        for what, replay, expected, in_process in profiled:
            try:
                results, stats, wall = _profiled(replay)
            except Exception:
                self.ops.raised(what, len(expected))
                continue
            rollup(stats, PACKAGE_DIR, into=profile)
            traced_wall += wall
            self.ops.check(what, self.digests(results), expected)
            if in_process:
                inprocess_wall += wall
                traced_results.extend(results)
        if not traced_results:
            return {}

        busy = sum(report.wall_seconds for report in reports)
        untraced_inprocess = busy if prepared.workers else untraced_wall
        self.describe(
            prepared,
            "compiled"
            if profile.function_calls.get("engine/compiled:replay_compiled_kernel")
            else "generator",
        )
        blocks = prepared.blocks()
        metrics = layer_metrics(profile, traced_results, blocks=blocks)
        metrics.update(
            {
                "tracegen.generate_s": (setup_profile.self_s["tracegen"], "s"),
                "traces.compile_s": (setup_profile.self_s["traces"], "s"),
                "sweep.points": (len(reports), "count"),
                "sweep.busy_s": (busy, "s"),
                "sweep.overhead_s": (
                    untraced_wall - busy / prepared.workers if prepared.workers else 0.0,
                    "s",
                ),
                "bench.traced_wall_s": (traced_wall, "s"),
                "bench.self_coverage": (profile.total_self_s / traced_wall, "ratio"),
                "bench.trace_overhead": (inprocess_wall / untraced_inprocess, "ratio"),
            }
        )
        self.close()
        return metrics

    def describe(self, prepared, kernel: str) -> None:
        """Record what the run measured, for the provenance line."""
        self.described = {
            "kernel": kernel,
            "trace_form": prepared.trace_form,
            "points": [point.label for point in prepared.points],
            "workers": prepared.workers,
            "sizes": prepared.sizes,
        }

    def close(self) -> None:
        if self.prepared is not None:
            self.prepared.close()
            self.prepared = None


#: Layers whose self time and call count the traced run reports.
REPORTED_LAYERS = ("traces", "engine", "cache", "core", "flash", "net", "filer", "policies", "sweep")

#: ``tier_stats`` counters reported per cache tier.
TIER_COUNTERS = ("lookups", "evictions", "dirty_evictions", "writebacks")


def layer_metrics(profile, results, *, blocks: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of a traced replay: profiler self time and call
    counts by layer, plus the deterministic model counters of its
    results (summed over points; ratios recomputed from the sums)."""
    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in REPORTED_LAYERS:
        metrics["%s.self_s" % layer] = (profile.self_s[layer], "s")
        metrics["%s.calls" % layer] = (profile.calls[layer], "count")
    metrics["other.self_s"] = (profile.self_s["other"], "s")

    def outside_calls(suffix: str) -> int:
        return sum(
            calls for name, calls in profile.outside_calls.items() if name.endswith(suffix)
        )

    pushes = outside_calls("heappush>")
    pops = outside_calls("heappop>")
    metrics["engine.heap_pushes"] = (pushes, "count")
    metrics["engine.heap_pops"] = (pops, "count")
    metrics["engine.events_per_block"] = (pops / blocks, "events/block")

    for tier in ("ram", "flash"):
        totals = {name: 0 for name in TIER_COUNTERS + ("hits",)}
        for result in results:
            stats = result.tier_stats.get(tier, {})
            for name in totals:
                totals[name] += stats.get(name, 0)
        for name in TIER_COUNTERS:
            metrics["cache.%s.%s" % (tier, name)] = (totals[name], "count")
        lookups = totals["lookups"]
        metrics["cache.%s.hit_rate" % tier] = (
            totals["hits"] / lookups if lookups else 0.0,
            "ratio",
        )

    def total(attribute: str) -> int:
        return sum(getattr(result, attribute) for result in results)

    directory_calls = sum(
        calls
        for name, calls in profile.function_calls.items()
        if name.startswith("core/consistency:")
    )
    metrics["core.directory.calls"] = (directory_calls, "count")
    metrics["core.directory.copies_invalidated"] = (total("copies_invalidated"), "count")
    metrics["core.directory.writes_requiring_invalidation"] = (
        total("writes_requiring_invalidation"),
        "count",
    )
    metrics["core.results_s"] = (
        profile.function_cum_s.get("core/simulator:results_from_system", 0.0),
        "s",
    )
    metrics["flash.blocks_read"] = (total("flash_blocks_read"), "count")
    metrics["flash.blocks_written"] = (total("flash_blocks_written"), "count")
    metrics["flash.program_bytes"] = (total("flash_program_bytes"), "bytes")
    metrics["net.utilization"] = (
        statistics.fmean(result.network_utilization for result in results),
        "ratio",
    )
    metrics["filer.fast_reads"] = (total("filer_fast_reads"), "count")
    metrics["filer.slow_reads"] = (total("filer_slow_reads"), "count")
    metrics["filer.writes"] = (total("filer_writes"), "count")
    return metrics


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description="Benchmark the flash-cache simulator on one workload.",
    )
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--seconds", type=float, default=35.0, help="how long the timed replays run"
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="1: profiled run reporting per-layer metrics instead",
    )
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny: a seconds-long smoke run",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(argv)
    if not (PACKAGE_DIR / "__init__.py").is_file():
        print("perfbench: simulator sources not found at %s" % PACKAGE_DIR, file=sys.stderr)
        return 2
    if argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        # String hashes are salted per process, which moves dict layouts
        # and shifts replay time by several percent from one process to
        # the next.  Re-run this process with a fixed salt.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])
    # The measured code path must not depend on the caller's environment
    # (kernel, compile threshold, sweep defaults, scale divisor).
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(PACKAGE_DIR.parent))
    sys.path.insert(0, str(HERE))

    workdir = RUN_DIR / ("%s-%d" % (args.workload, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    bench = Bench(args.workload, args.seed, args.size, workdir)
    try:
        if args.trace:
            metrics = bench.traced()
        else:
            metrics = bench.timed(args.seconds)
    finally:
        bench.close()
        _stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            RUN_DIR.rmdir()
        except OSError:
            pass

    import repro

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "hash_randomization": sys.flags.hash_randomization,
        "platform": platform.platform(),
        "commit": _commit(),
        "repro_version": repro.__version__,
        "reference_digests": bench.reference,
        "pinned": bench.pinned is not None,
    }
    provenance.update(bench.described)
    if not args.trace:
        provenance["wall_samples_s"] = bench.samples
        provenance["setup_samples_s"] = bench.setup_samples
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for note in bench.ops.notes:
        print("FAILED " + note)
    for name, (value, unit) in metrics.items():
        print("  %-52s %16.6g %s" % (name, value, unit))
    print(
        json.dumps(
            {
                "correct": bench.ops.failed == 0 and bench.ops.attempted > 0,
                "attempted": bench.ops.attempted,
                "failed": bench.ops.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
