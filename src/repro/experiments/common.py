"""Shared infrastructure for the per-figure experiments.

**Scaling.**  The paper's geometry (8 GB RAM, 32–128 GB flash, 5–640 GB
working sets, a 1.4 TB file-server model, ~2.5 TB of trace volume) is
far beyond what a pure-Python simulator can replay in benchmark time.
Every experiment therefore runs at geometry divided by ``scale``
(default 4096: GB → 256 KB), with *latency constants untouched*.  All
of the paper's results are driven by capacity ratios (working set vs.
flash vs. RAM) and by latency constants, so shrinking every capacity by
the same factor preserves crossovers, plateaus, and orderings; only
sampling noise grows.  Set the ``REPRO_SCALE_DIVISOR`` environment
variable to a smaller divisor for higher-fidelity (slower) runs.

**Trace reuse.**  All experiments share one scaled file-server model
(the paper uses a single Impressions model for every trace) and traces
are cached per parameter set, so sweeps don't regenerate them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Sequence

from repro import policies as policy_registry
from repro._units import GB, MB, TB
from repro.core.config import SimConfig
from repro.core.policies import WritebackPolicy
from repro.errors import ConfigError
from repro.fsmodel.files import FileSystemModel
from repro.fsmodel.impressions import ImpressionsConfig, generate_filesystem
from repro.tracegen.config import TraceGenConfig
from repro.tracegen.generator import generate_trace
from repro.traces.records import Trace

#: Default geometry divisor (GB -> 256 KB).  Figures use ratios, so the
#: divisor only trades runtime against sampling noise.
DEFAULT_SCALE = int(os.environ.get("REPRO_SCALE_DIVISOR", "4096"))

#: The paper's file-server model is 1.4 TB.
_FS_MODEL_TB = 1.4


def scaled_gb(gb_value: float, scale: int = DEFAULT_SCALE) -> int:
    """Convert a paper-scale GB figure to scaled bytes (min one block)."""
    nbytes = int(gb_value * GB) // scale
    return max(4096, nbytes) if gb_value > 0 else 0


def scaled_policy(policy: WritebackPolicy, scale: int = DEFAULT_SCALE) -> WritebackPolicy:
    """Scale a periodic policy's period with the geometry.

    A scaled trace moves ``scale``-times less data, so it finishes in
    ``scale``-times less simulated time; dividing syncer periods by the
    same factor keeps the *syncs per unit of trace progress* — which is
    what distinguishes ``p1`` from ``p30`` from ``n`` — identical to the
    paper's runs.  Non-periodic policies pass through unchanged.
    """
    if policy.period_ns is None:
        return policy
    return WritebackPolicy(
        policy.kind, period_ns=max(1_000, policy.period_ns // scale)
    )


@lru_cache(maxsize=4)
def shared_fs_model(scale: int = DEFAULT_SCALE) -> FileSystemModel:
    """The single scaled file-server model every experiment samples."""
    total = max(int(_FS_MODEL_TB * TB) // scale, 16 * MB)
    return generate_filesystem(
        ImpressionsConfig(
            total_bytes=total,
            # Cap individual files so even heavily scaled models keep a
            # reasonable file population to sample working sets from.
            max_file_bytes=max(total // 64, 1 * MB),
            seed=1,
        )
    )


@lru_cache(maxsize=256)
def baseline_trace(
    ws_gb: float = 60.0,
    write_fraction: float = 0.30,
    n_hosts: int = 1,
    shared_working_set: bool = True,
    seed: int = 42,
    scale: int = DEFAULT_SCALE,
    volume_multiple: float = 4.0,
) -> Trace:
    """A paper-§4 trace at scaled geometry, cached across experiments.

    ``volume_multiple`` is the paper's 4x-working-set volume; small
    working sets at coarse scales yield few measured blocks, so some
    experiments raise it to keep slow-filer-read sampling noise down
    (a pure sample-count change: the measured phase is steady state).
    """
    model = shared_fs_model(scale)
    ws_bytes = scaled_gb(ws_gb, scale)
    if ws_bytes > model.total_bytes:
        raise ConfigError(
            "scaled working set (%d bytes) exceeds the file-server model; "
            "lower the working set or the scale divisor" % ws_bytes
        )
    config = TraceGenConfig(
        fs=ImpressionsConfig(total_bytes=model.total_bytes),  # informational
        working_set_bytes=ws_bytes,
        n_hosts=n_hosts,
        threads_per_host=8,
        write_fraction=write_fraction,
        shared_working_set=shared_working_set,
        volume_multiple=volume_multiple,
        seed=seed,
    )
    return generate_trace(config, model=model)


def baseline_config(
    ram_gb: float = 8.0,
    flash_gb: float = 64.0,
    scale: int = DEFAULT_SCALE,
    **overrides,
) -> SimConfig:
    """The paper's baseline simulator configuration at scaled geometry.

    Both the sizes *and* the default one-second periodic RAM syncer are
    scaled (see :func:`scaled_policy`); explicit ``ram_policy``/
    ``flash_policy``/``flash_cleaning`` overrides are scaled too, so
    experiment code can pass the paper's nominal policies.
    """
    if "ram_policy" in overrides:
        overrides["ram_policy"] = scaled_policy(overrides["ram_policy"], scale)
    else:
        overrides["ram_policy"] = scaled_policy(WritebackPolicy.periodic(1), scale)
    if "flash_policy" in overrides:
        overrides["flash_policy"] = scaled_policy(overrides["flash_policy"], scale)
    if "flash_cleaning" in overrides:
        overrides["flash_cleaning"] = policy_registry.resolve(
            "cleaning", overrides["flash_cleaning"]
        ).scaled(scale)
    return SimConfig(
        ram_bytes=scaled_gb(ram_gb, scale),
        flash_bytes=scaled_gb(flash_gb, scale) if flash_gb > 0 else 0,
        **overrides,
    )


@dataclass
class ExperimentResult:
    """The output of one experiment: labeled rows of a table/figure.

    ``rows`` is a list of dicts with identical keys; ``columns`` fixes
    the display order.  ``notes`` records what the paper's figure shows
    so EXPERIMENTS.md can compare shape.
    """

    experiment: str
    title: str
    columns: Sequence[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: str = ""

    def add_row(self, **values: object) -> None:
        self.rows.append(values)

    def column(self, name: str) -> List[object]:
        """Extract one column across all rows."""
        return [row.get(name) for row in self.rows]

    def format_table(self) -> str:
        """Render an aligned text table of the rows."""
        def fmt(value: object) -> str:
            if isinstance(value, float):
                return "%.2f" % value
            return str(value)

        header = list(self.columns)
        body = [[fmt(row.get(col, "")) for col in header] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(line[i]) for line in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            "  ".join(header[i].ljust(widths[i]) for i in range(len(header))),
            "  ".join("-" * widths[i] for i in range(len(header))),
        ]
        for line in body:
            lines.append("  ".join(line[i].rjust(widths[i]) for i in range(len(header))))
        title = "%s — %s" % (self.experiment, self.title)
        return "\n".join([title, "=" * len(title)] + lines)
