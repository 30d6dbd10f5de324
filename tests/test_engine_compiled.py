"""Tests for the table-driven compiled simulation kernel.

The compiled kernel (:mod:`repro.engine.compiled`) exists purely for
speed: eligible replays must be bit-identical to the generator kernel.
These tests pin the eligibility gate, prove the kernel actually engages
(rather than silently falling back), and drive a randomized property
sweep of trace/config points through both kernels comparing full
result signatures.
"""

from __future__ import annotations

import random

import pytest

from repro.core.architectures import Architecture
from repro.core.machine import System
from repro.core.policies import WritebackPolicy
from repro.core.simulator import results_from_system, run_simulation
from repro.engine.compiled import COMPILE_KERNEL_ENV, kernel_eligible
from repro.experiments.common import DEFAULT_SCALE, baseline_config, baseline_trace
from repro.traces.compiled import compile_trace
from repro.validation.differential import check_compiled_kernel_identity, full_signature

#: Coarse geometry for test speed; identities are scale-independent.
FAST_SCALE = DEFAULT_SCALE * 4


def _compiled_baseline(**trace_kwargs):
    trace_kwargs.setdefault("scale", FAST_SCALE)
    return compile_trace(baseline_trace(**trace_kwargs))


def _run_both(trace, config, monkeypatch, **kwargs):
    """Replay ``trace`` under both kernels, returning both signatures."""
    monkeypatch.setenv(COMPILE_KERNEL_ENV, "0")
    reference = full_signature(run_simulation(trace, config, **kwargs))
    monkeypatch.setenv(COMPILE_KERNEL_ENV, "1")
    candidate = full_signature(run_simulation(trace, config, **kwargs))
    return reference, candidate


class TestEligibility:
    def test_baseline_is_eligible(self):
        system = System(baseline_config(scale=FAST_SCALE), n_hosts=1)
        assert kernel_eligible(system)

    def test_env_opt_out(self, monkeypatch):
        system = System(baseline_config(scale=FAST_SCALE), n_hosts=1)
        monkeypatch.setenv(COMPILE_KERNEL_ENV, "0")
        assert not kernel_eligible(system)
        monkeypatch.setenv(COMPILE_KERNEL_ENV, "off")
        assert not kernel_eligible(system)
        monkeypatch.setenv(COMPILE_KERNEL_ENV, "1")
        assert kernel_eligible(system)

    def test_observation_falls_back(self):
        from repro.obs import Observation

        system = System(
            baseline_config(scale=FAST_SCALE), n_hosts=1, obs=Observation()
        )
        assert not kernel_eligible(system)

    def test_restart_falls_back(self):
        from repro.core.restart import RestartSpec

        system = System(
            baseline_config(scale=FAST_SCALE),
            n_hosts=1,
            restart=RestartSpec(volatile_flash=True),
        )
        assert not kernel_eligible(system)

    def test_timeline_falls_back(self):
        system = System(
            baseline_config(scale=FAST_SCALE),
            n_hosts=1,
            timeline_bucket_ns=1_000_000,
        )
        assert not kernel_eligible(system)

    def test_exclusive_architecture_falls_back(self):
        system = System(
            baseline_config(scale=FAST_SCALE, architecture=Architecture.EXCLUSIVE),
            n_hosts=1,
        )
        assert not kernel_eligible(system)

    def test_channel_limited_flash_falls_back(self):
        system = System(
            baseline_config(scale=FAST_SCALE, flash_parallelism=4), n_hosts=1
        )
        assert not kernel_eligible(system)

    def test_invariants_stay_eligible(self):
        system = System(
            baseline_config(scale=FAST_SCALE), n_hosts=1, check_invariants=True
        )
        assert kernel_eligible(system)


class TestKernelEngages:
    """Prove the compiled path actually runs (no silent fallback)."""

    def _spawned_names(self, monkeypatch, env_value):
        monkeypatch.setenv(COMPILE_KERNEL_ENV, env_value)
        system = System(baseline_config(scale=FAST_SCALE), n_hosts=1)
        names = []
        system.sim.trace_hook = names.append
        system.replay(_compiled_baseline())
        return names

    def test_compiled_kernel_spawns_no_issuer_processes(self, monkeypatch):
        # Application issuers and syncers run as _Task frames under the
        # compiled kernel, so no generator process is ever spawned for
        # them; the object kernel spawns one "app.h*" per thread.
        assert not any(
            name.startswith("app.h")
            for name in self._spawned_names(monkeypatch, "1")
        )
        assert any(
            name.startswith("app.h")
            for name in self._spawned_names(monkeypatch, "0")
        )


class TestKernelIdentity:
    def test_differential_check_passes(self):
        check = check_compiled_kernel_identity(scale=FAST_SCALE)
        assert check.passed, check.detail

    def test_chunked_trace_replays_identically(self, monkeypatch, tmp_path):
        from repro.traces.chunked import ChunkedCompiledTrace

        trace = baseline_trace(n_hosts=2, scale=FAST_SCALE, volume_multiple=2.0)
        chunked = ChunkedCompiledTrace.from_trace(trace, spool_dir=tmp_path)
        reference, candidate = _run_both(
            chunked, baseline_config(scale=FAST_SCALE), monkeypatch
        )
        assert reference == candidate

    def test_syncer_cohort_removes_idle_wakes(self, monkeypatch):
        # Read-only, so no block is ever dirty: every syncer wake of the
        # generator kernel is idle.  The compiled kernel wakes the 16
        # RAM syncers as one cohort, so each period saves 15 events.
        hosts = 16
        trace = _compiled_baseline(n_hosts=hosts, write_fraction=0.0)
        config = baseline_config(scale=FAST_SCALE)
        runs = {}
        for env_value in ("0", "1"):
            monkeypatch.setenv(COMPILE_KERNEL_ENV, env_value)
            system = System(config, n_hosts=hosts)
            system.replay(trace)
            runs[env_value] = (
                system.sim._seq,
                system.sim.now,
                full_signature(results_from_system(system, config, len(trace))),
            )
        generator_seq, simulated_ns, reference = runs["0"]
        compiled_seq, _, candidate = runs["1"]
        assert candidate == reference
        wakes = simulated_ns // config.ram_policy.period_ns
        assert generator_seq - compiled_seq >= (hosts - 1) * wakes

    def test_cold_start_replays_identically(self, monkeypatch):
        reference, candidate = _run_both(
            _compiled_baseline(),
            baseline_config(scale=FAST_SCALE),
            monkeypatch,
            cold_start=True,
        )
        assert reference == candidate


#: The knob space the randomized property sweep draws from.
_ARCHITECTURES = (
    Architecture.NAIVE,
    Architecture.LOOKASIDE,
    Architecture.UNIFIED,
    Architecture.EXCLUSIVE,  # ineligible: exercises the fallback path
)
_POLICIES = ("s", "a", "n", "p10", "p30", "p60", "t30", "d30")
_ADMISSIONS = ("always", "always", "probationary:2", "budget:8M")
_CLEANINGS = ("periodic", "periodic", "alru:30", "acp:0.5:0.25")


class TestKernelPropertySweep:
    """Randomized mini replay programs through both kernels.

    Each case draws a trace shape (hosts, write mix, sharing, seed) and
    a config point (architecture, tier sizes, writeback policies,
    admission/cleaning controllers, FTL model, invalidation traffic,
    invariants) from a seeded RNG and asserts the two kernels produce
    identical full signatures — timelines, histogram buckets, cache and
    device counters, per-host breakdowns.
    """

    @pytest.mark.parametrize("case_seed", range(10))
    def test_random_point_is_bit_identical(self, case_seed, monkeypatch):
        rng = random.Random(0xC0DE + case_seed)
        trace = compile_trace(
            baseline_trace(
                ws_gb=rng.choice((20.0, 60.0)),
                write_fraction=rng.choice((0.0, 0.1, 0.3, 0.6)),
                n_hosts=rng.choice((1, 2, 3)),
                shared_working_set=rng.random() < 0.7,
                seed=rng.randrange(1 << 16),
                scale=FAST_SCALE,
                volume_multiple=2.0,
            )
        )
        architecture = rng.choice(_ARCHITECTURES)
        overrides = {
            "architecture": architecture,
            "ram_policy": WritebackPolicy.parse(rng.choice(_POLICIES)),
            "flash_policy": WritebackPolicy.parse(rng.choice(_POLICIES)),
        }
        ram_gb, flash_gb = rng.choice(((8.0, 64.0), (2.0, 16.0), (8.0, 0.0), (0.0, 64.0)))
        if architecture is Architecture.EXCLUSIVE and (
            flash_gb == 0.0 or ram_gb == 0.0
        ):
            ram_gb, flash_gb = 8.0, 64.0
        if flash_gb > 0.0:
            if architecture in (Architecture.NAIVE, Architecture.LOOKASIDE):
                overrides["flash_admission"] = rng.choice(_ADMISSIONS)
                overrides["flash_cleaning"] = rng.choice(_CLEANINGS)
            if rng.random() < 0.3:
                overrides["ftl_model"] = True
                overrides["flash_parallelism"] = 0
        if rng.random() < 0.3:
            overrides["model_invalidation_traffic"] = True
        config = baseline_config(
            ram_gb=ram_gb, flash_gb=flash_gb, scale=FAST_SCALE, **overrides
        )
        reference, candidate = _run_both(
            trace,
            config,
            monkeypatch,
            check_invariants=rng.random() < 0.5,
        )
        assert reference == candidate, [
            key for key in reference if reference[key] != candidate[key]
        ]
