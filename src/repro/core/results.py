"""Simulation results: everything a run reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro._units import SECOND
from repro.core.metrics import LatencyStat, TimelineStat

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs is optional)
    from repro.obs.breakdown import LatencyBreakdown


@dataclass
class SimulationResults:
    """The measured output of one simulation run.

    Latencies are application-observed, per 4 KB block, collected only
    during the measurement phase (after warmup), exactly as the paper
    reports them.  ``tier_stats`` holds the raw per-cache-tier counters
    (keys ``ram``/``flash`` for the layered architectures, ``unified``
    for the unified one), aggregated across hosts.
    """

    config_description: str
    read_latency: LatencyStat
    write_latency: LatencyStat
    read_request_latency: LatencyStat
    write_request_latency: LatencyStat
    #: simulated nanoseconds consumed by the whole trace replay
    simulated_ns: int
    #: simulated nanoseconds of the measurement phase only
    measured_ns: int
    records_replayed: int
    blocks_read: int
    blocks_written: int
    tier_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    # filer-side traffic (measurement phase)
    filer_fast_reads: int = 0
    filer_slow_reads: int = 0
    filer_writes: int = 0
    # flash device traffic (measurement phase, summed over hosts)
    flash_blocks_read: int = 0
    flash_blocks_written: int = 0
    #: mean write amplification across hosts' FTL-modeled flash devices
    #: (None unless the run used SimConfig.ftl_model)
    flash_write_amplification: Optional[float] = None
    # --- endurance metrics (measurement phase) ---
    #: bytes physically programmed into flash (GC relocations included
    #: with the FTL model; host traffic only without)
    flash_program_bytes: int = 0
    #: flash erase-block erases (0 without the FTL model)
    flash_erase_count: int = 0
    #: measurement-window write amplification: flash page programs per
    #: host page write, fleet-aggregated (None without the FTL model)
    flash_write_amp: Optional[float] = None
    #: projected device lifetime at the measured erase rate, against the
    #: rated_erase_cycles budget (inf with zero erases; None without the
    #: FTL model)
    device_lifetime_days: Optional[float] = None
    #: flash admission verdict counters (checks/admits/rejects summed
    #: over hosts; None under the paper-default always-admit policy)
    flash_admission_stats: Optional[Dict[str, int]] = None
    # network
    network_utilization: float = 0.0
    #: optional read-latency timeline (present when the run was invoked
    #: with timeline_bucket_ns); see repro.core.metrics.TimelineStat
    read_timeline: Optional["TimelineStat"] = None
    #: per-host latency breakdown (one dict per host)
    per_host: List[Dict[str, float]] = field(default_factory=list)
    # consistency
    block_writes: int = 0
    writes_requiring_invalidation: int = 0
    copies_invalidated: int = 0
    #: simulated nanoseconds the measured write paths stalled on
    #: directory lookups and invalidate messages (0 at the paper's
    #: instant-invalidation default, i.e. timing.directory zero)
    invalidation_latency_ns: int = 0
    #: per-request latency breakdown (present when the run carried an
    #: Observation — run_simulation(obs=...) or SimConfig.trace_events)
    breakdown: Optional["LatencyBreakdown"] = None
    #: per-event-kind trace counters from the same Observation
    obs_counters: Optional[Dict[str, int]] = None

    # --- headline metrics -------------------------------------------------

    @property
    def read_latency_us(self) -> float:
        """Mean application read latency, µs/block (the figures' metric)."""
        return self.read_latency.mean_us

    @property
    def write_latency_us(self) -> float:
        """Mean application write latency, µs/block."""
        return self.write_latency.mean_us

    def hit_rate(self, tier: str) -> Optional[float]:
        """Hit rate of a cache tier (``ram``/``flash``/``unified``), or
        None when that tier does not exist in this configuration."""
        stats = self.tier_stats.get(tier)
        if stats is None:
            return None
        return stats.get("hit_rate")

    @property
    def invalidation_fraction(self) -> float:
        """Fraction of measured block writes requiring invalidations
        (Figures 11/12)."""
        if self.block_writes == 0:
            return 0.0
        return self.writes_requiring_invalidation / self.block_writes

    @property
    def filer_reads(self) -> int:
        return self.filer_fast_reads + self.filer_slow_reads

    # --- throughput (measurement phase) -------------------------------

    @property
    def blocks_per_second(self) -> float:
        """Application block operations per simulated second."""
        if self.measured_ns <= 0:
            return 0.0
        total = self.read_latency.count + self.write_latency.count
        return total * (SECOND / self.measured_ns)

    @property
    def throughput_mb_s(self) -> float:
        """Application data rate in MB/s (4 KB blocks)."""
        return self.blocks_per_second * 4096 / (1024 * 1024)

    # --- reporting ---------------------------------------------------------

    def summary(self) -> str:
        """Multi-line human-readable run summary."""
        lines = [
            "config:            %s" % self.config_description,
            "simulated time:    %.3f s (measured %.3f s)"
            % (self.simulated_ns / SECOND, self.measured_ns / SECOND),
            "records replayed:  %d" % self.records_replayed,
            "read latency:      %.1f us/block over %d blocks"
            % (self.read_latency_us, self.read_latency.count),
            "write latency:     %.1f us/block over %d blocks"
            % (self.write_latency_us, self.write_latency.count),
            "throughput:        %.0f blocks/s (%.1f MB/s)"
            % (self.blocks_per_second, self.throughput_mb_s),
        ]
        for tier in ("ram", "flash", "unified"):
            rate = self.hit_rate(tier)
            if rate is not None:
                lines.append("%s hit rate:%s%.1f%%" % (tier, " " * (10 - len(tier)), 100 * rate))
        lines.append(
            "filer:             %d reads (%.0f%% fast), %d writes"
            % (
                self.filer_reads,
                100 * (self.filer_fast_reads / self.filer_reads) if self.filer_reads else 0.0,
                self.filer_writes,
            )
        )
        if self.flash_blocks_read or self.flash_blocks_written:
            lines.append(
                "flash traffic:     %d block reads, %d block writes"
                % (self.flash_blocks_read, self.flash_blocks_written)
            )
        if self.flash_program_bytes:
            endurance = "flash endurance:   %.1f MB programmed" % (
                self.flash_program_bytes / (1024 * 1024)
            )
            if self.flash_write_amp is not None:
                endurance += ", WA %.2f, %d erases" % (
                    self.flash_write_amp, self.flash_erase_count
                )
            if self.device_lifetime_days is not None:
                if self.device_lifetime_days == float("inf"):
                    endurance += ", lifetime inf"
                else:
                    endurance += ", lifetime %.0f days" % self.device_lifetime_days
            lines.append(endurance)
        if self.flash_admission_stats is not None:
            stats = self.flash_admission_stats
            lines.append(
                "flash admission:   %d checks, %d admits, %d rejects"
                % (
                    stats.get("checks", 0),
                    stats.get("admits", 0),
                    stats.get("rejects", 0),
                )
            )
        lines.append("network util:      %.1f%%" % (100 * self.network_utilization))
        if len(self.per_host) > 1:
            for row in self.per_host:
                lines.append(
                    "  host %d:          read %.1f us (%d), write %.1f us (%d)"
                    % (
                        row["host"],
                        row["read_us"],
                        row["read_blocks"],
                        row["write_us"],
                        row["write_blocks"],
                    )
                )
        if self.block_writes:
            lines.append(
                "invalidations:     %.1f%% of %d block writes"
                % (100 * self.invalidation_fraction, self.block_writes)
            )
        if self.invalidation_latency_ns:
            lines.append(
                "invalidation time: %.3f ms of directory stalls"
                % (self.invalidation_latency_ns / 1_000_000)
            )
        if self.breakdown is not None:
            lines.append("latency breakdown (us/block):")
            mean_read = self.breakdown.mean_read_us()
            mean_write = self.breakdown.mean_write_us()
            for component in mean_read:
                read_us = mean_read[component]
                write_us = mean_write[component]
                if read_us == 0.0 and write_us == 0.0:
                    continue
                lines.append(
                    "  %-13s read %8.2f   write %8.2f"
                    % (component, read_us, write_us)
                )
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        """Flatten to plain types (for JSON reports in EXPERIMENTS.md)."""
        payload: Dict[str, object] = {
            "config": self.config_description,
            "read_latency_us": self.read_latency_us,
            "write_latency_us": self.write_latency_us,
            "simulated_s": self.simulated_ns / SECOND,
            "tier_stats": self.tier_stats,
            "filer_fast_reads": self.filer_fast_reads,
            "filer_slow_reads": self.filer_slow_reads,
            "filer_writes": self.filer_writes,
            "network_utilization": self.network_utilization,
            "invalidation_fraction": self.invalidation_fraction,
            "flash_program_bytes": self.flash_program_bytes,
            "flash_erase_count": self.flash_erase_count,
        }
        if self.invalidation_latency_ns:
            payload["invalidation_latency_ns"] = self.invalidation_latency_ns
        if self.flash_write_amp is not None:
            payload["flash_write_amp"] = self.flash_write_amp
        if self.device_lifetime_days is not None:
            payload["device_lifetime_days"] = self.device_lifetime_days
        if self.flash_admission_stats is not None:
            payload["flash_admission_stats"] = dict(self.flash_admission_stats)
        if self.breakdown is not None:
            payload["breakdown"] = self.breakdown.as_dict()
        if self.obs_counters is not None:
            payload["obs_counters"] = dict(self.obs_counters)
        return payload
