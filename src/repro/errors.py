"""Exception hierarchy for the repro package.

Every error raised by the package derives from :class:`ReproError`, so
callers can catch package failures with one ``except`` clause while still
distinguishing configuration mistakes from simulation-engine misuse and
malformed trace input.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class SimulationError(ReproError):
    """The simulation engine was misused or reached an impossible state."""


class InvariantViolation(SimulationError):
    """A runtime invariant check failed (see :mod:`repro.invariants`).

    Structured: carries the failing checker's name, the simulated time
    at which the check ran (``None`` for checks outside a simulation),
    and a small snapshot of the offending state for post-mortems.
    """

    def __init__(
        self,
        checker: str,
        simulated_ns=None,
        message: str = "",
        snapshot=None,
    ) -> None:
        at = "t=%d ns" % simulated_ns if simulated_ns is not None else "no sim time"
        super().__init__(
            "invariant %r violated (%s): %s" % (checker, at, message)
        )
        self.checker = checker
        self.simulated_ns = simulated_ns
        self.snapshot = dict(snapshot or {})


class TraceFormatError(ReproError):
    """A trace file or record could not be parsed."""


class CacheError(ReproError):
    """A cache store was used incorrectly (e.g. duplicate insert)."""
