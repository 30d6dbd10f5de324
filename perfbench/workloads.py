"""The benchmark's three workloads: set-up, one replay, and their sizes.

Every workload is built from a seed through the public API
(``repro.tracegen``, ``repro.traces``, ``repro.run_simulation``,
``repro.run_sweep``); the simulator only ever sees the generated trace.
``setup`` does the work a user pays on every invocation (file-system
model, trace generation, compile or spool write, worker-pool start) and
returns a :class:`Prepared` whose ``replay`` is the timed unit: trace in,
results out.

Why each workload exists, and its size, is recorded in ``README.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import (
    ChunkedCompiledTrace,
    CompiledTrace,
    SimConfig,
    SimulationResults,
    compile_trace,
    run_simulation,
    run_sweep,
)
from repro._units import GB, MB
from repro.core.machine import System
from repro.engine.compiled import kernel_eligible
from repro.experiments.common import baseline_config, shared_fs_model
from repro.fsmodel import FileSystemModel, ImpressionsConfig
from repro.policies import WritebackPolicy
from repro.sweep import PointReport, shutdown_pool
from repro.tracegen import TraceGenConfig, generate_trace, generate_trace_chunked
from repro.tracegen.fleet import FleetSpec, fleet_trace
from repro.validation.differential import full_signature

#: The seed the pinned signatures below were recorded with.
DEFAULT_SEED = 42

#: The paper's flash write-back policies, in the order the sweep runs them.
SWEEP_POLICIES = ("s", "a", "p1", "p5", "p15", "p30", "n")

#: ``full_signature`` digests of every replay unit at ``DEFAULT_SEED``, by
#: size and workload, in point order.  A digest that moves means the
#: simulated results moved, which a performance change must never do.
#: Each run prints its digests as ``reference_digests``.
PINNED_DIGESTS: Dict[str, Dict[str, List[str]]] = {
    "full": {
        "paper_baseline_stream": ["86a27c84a077c34b"],
        "fleet_miss_heavy": ["c41cdfbb10df178a"],
        "shared_ws_sweep": [
            "72033c56e009c6b7",
            "c1fb20696c26311c",
            "cb5b3b53aee054de",
            "aa593a4d4811afb2",
            "4347fbe1a02eb28a",
            "13f8adebbad67731",
            "140776c8132a2dde",
        ],
    },
    "tiny": {
        "paper_baseline_stream": ["412d02ed6e3a0719"],
        "fleet_miss_heavy": ["04263e1a1cd4c095"],
        "shared_ws_sweep": [
            "4d238fcdb3796a1a",
            "cc20243870f464e4",
            "67d51968bb02aa03",
            "f3a6460e05660a44",
            "1def952c0e4e7547",
            "ed91dcdb7d785aec",
            "7e8afd607a50220b",
        ],
    },
}


def signature_digest(result: SimulationResults) -> str:
    """A short, exact digest of every simulated field of ``result``."""
    payload = json.dumps(full_signature(result), sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass
class Point:
    """One simulation of a replay unit."""

    label: str
    config: SimConfig
    n_hosts: int


@dataclass
class Prepared:
    """A set-up workload, ready to replay.

    ``workers`` is 0 for workloads that call ``run_simulation`` once per
    point in this process, and the pool size for the sweep workload,
    which fans all points out through ``run_sweep``.
    """

    trace: object
    points: List[Point]
    workers: int = 0
    spool_dir: Optional[Path] = None
    sizes: Dict[str, object] = field(default_factory=dict)
    #: per-point reports of the most recent sweep replay
    reports: List[PointReport] = field(default_factory=list)

    @property
    def trace_form(self) -> str:
        return "chunked" if isinstance(self.trace, ChunkedCompiledTrace) else "compiled"

    def replay(self) -> List[SimulationResults]:
        """Trace in to results out for every point of the workload."""
        if self.workers:
            reports: List[PointReport] = []
            results = run_sweep(
                self.trace,
                [point.config for point in self.points],
                workers=self.workers,
                progress=reports.append,
            )
            self.reports = sorted(reports, key=lambda report: report.index)
            return results
        return [self.replay_point(point) for point in self.points]

    def replay_point(self, point: Point) -> SimulationResults:
        """One in-process ``run_simulation`` of ``point``.

        A spooled trace is reopened from disk each time, so the replay
        pays for planning and streaming its rows like a fresh reader.
        """
        trace = self.trace
        if self.spool_dir is not None:
            trace = ChunkedCompiledTrace.open(self.spool_dir)
        try:
            return run_simulation(
                trace, point.config, n_hosts=point.n_hosts, check_invariants=False
            )
        finally:
            if trace is not self.trace:
                trace.close()

    def blocks(self) -> int:
        """Blocks one replay processes: every record, warmup included,
        once per point."""
        if isinstance(self.trace, CompiledTrace):
            per_point = sum(self.trace.nblocks)
        else:
            per_point = sum(record[5] for record in self.trace.iter_records())
        return per_point * len(self.points)

    def kernel(self) -> str:
        """The replay kernel the program picks for these points."""
        kernels = {
            "compiled"
            if kernel_eligible(System(point.config, point.n_hosts, check_invariants=False))
            else "generator"
            for point in self.points
        }
        return "+".join(sorted(kernels))

    def close(self) -> None:
        if self.spool_dir is not None:
            self.trace.delete()
        if self.workers:
            shutdown_pool()


def _paper_trace_config(
    scale: int,
    *,
    n_hosts: int,
    write_fraction: float,
    volume_multiple: float,
    seed: int,
) -> Tuple[TraceGenConfig, FileSystemModel]:
    """The paper's §4 trace parameters (60 GB working set, 8 threads per
    host) and its single file-server model, rebuilt from scratch: the
    model's process-wide cache is cleared so every set-up pays for it."""
    shared_fs_model.cache_clear()
    model = shared_fs_model(scale)
    config = TraceGenConfig(
        fs=ImpressionsConfig(total_bytes=model.total_bytes),
        working_set_bytes=int(60 * GB) // scale,
        n_hosts=n_hosts,
        threads_per_host=8,
        write_fraction=write_fraction,
        shared_working_set=True,
        volume_multiple=volume_multiple,
        seed=seed,
    )
    return config, model


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

#: Geometry per workload and size.  ``tiny`` exists for the smoke test.
SIZES: Dict[str, Dict[str, Dict[str, float]]] = {
    "paper_baseline_stream": {
        "full": {"scale": 1024, "volume_multiple": 16.0, "chunk_records": 8192},
        "tiny": {"scale": 65536, "volume_multiple": 4.0, "chunk_records": 256},
    },
    "fleet_miss_heavy": {
        "full": {"scale": 4096, "n_hosts": 64, "n_tenants": 8, "ws_mb": 8, "volume_multiple": 4.0},
        "tiny": {"scale": 65536, "n_hosts": 8, "n_tenants": 2, "ws_mb": 1, "volume_multiple": 1.0},
    },
    "shared_ws_sweep": {
        "full": {"scale": 1024, "volume_multiple": 4.0},
        "tiny": {"scale": 65536, "volume_multiple": 4.0},
    },
}


def setup_paper_baseline_stream(seed: int, size: str, workdir: Path) -> Prepared:
    geometry = SIZES["paper_baseline_stream"][size]
    scale = int(geometry["scale"])
    config, model = _paper_trace_config(
        scale,
        n_hosts=1,
        write_fraction=0.30,
        volume_multiple=geometry["volume_multiple"],
        seed=seed,
    )
    spool_dir = workdir / "spool"
    chunk_records = int(geometry["chunk_records"])
    trace = generate_trace_chunked(
        config, model, spool_dir=spool_dir, chunk_records=chunk_records
    )
    trace.close()
    return Prepared(
        trace=trace,
        points=[Point("baseline", baseline_config(scale=scale), 1)],
        spool_dir=spool_dir,
        sizes={
            "records": len(trace),
            "chunks": -(-len(trace) // chunk_records),
            "scale": scale,
            "volume_multiple": geometry["volume_multiple"],
        },
    )


def setup_fleet_miss_heavy(seed: int, size: str, workdir: Path) -> Prepared:
    geometry = SIZES["fleet_miss_heavy"][size]
    scale = int(geometry["scale"])
    spec = FleetSpec(
        n_hosts=int(geometry["n_hosts"]),
        n_tenants=int(geometry["n_tenants"]),
        ws_bytes=int(geometry["ws_mb"] * MB),
        volume_multiple=geometry["volume_multiple"],
        seed=seed,
    )
    trace = compile_trace(fleet_trace(spec, "failover_storm"))
    return Prepared(
        trace=trace,
        points=[Point("failover_storm", baseline_config(scale=scale), spec.n_hosts)],
        sizes={
            "records": len(trace),
            "hosts": spec.n_hosts,
            "tenants": spec.n_tenants,
            "scale": scale,
            "volume_multiple": spec.volume_multiple,
        },
    )


def setup_shared_ws_sweep(seed: int, size: str, workdir: Path) -> Prepared:
    geometry = SIZES["shared_ws_sweep"][size]
    scale = int(geometry["scale"])
    config, model = _paper_trace_config(
        scale,
        n_hosts=2,
        write_fraction=0.50,
        volume_multiple=geometry["volume_multiple"],
        seed=seed,
    )
    trace = compile_trace(generate_trace(config, model))
    points = [
        Point(
            policy,
            baseline_config(scale=scale, flash_policy=WritebackPolicy.parse(policy)),
            2,
        )
        for policy in SWEEP_POLICIES
    ]
    workers = min(2, os.cpu_count() or 1)
    if workers > 1:
        # Start the worker pool, which a user's first sweep pays for, with
        # a one-point-per-worker sweep of a small trace.
        small = generate_trace(TraceGenConfig.small_example())
        run_sweep(small, [SimConfig.baseline_scaled()] * workers, workers=workers)
    return Prepared(
        trace=trace,
        points=points,
        workers=workers,
        sizes={
            "records": len(trace),
            "points": len(points),
            "scale": scale,
            "volume_multiple": geometry["volume_multiple"],
        },
    )


#: name -> set-up function, in reporting order.
WORKLOADS: Dict[str, Callable[[int, str, Path], Prepared]] = {
    "paper_baseline_stream": setup_paper_baseline_stream,
    "fleet_miss_heavy": setup_fleet_miss_heavy,
    "shared_ws_sweep": setup_shared_ws_sweep,
}
