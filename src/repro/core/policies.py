"""Writeback policies (§3.5, §3.6).

The paper tests seven policies at each cache tier:

* ``s``   — write-through: "data is immediately written to the server,
  blocking the requester until completion";
* ``a``   — asynchronous write-through: "data is immediately written to
  the server without blocking the requester";
* ``p1`` / ``p5`` / ``p15`` / ``p30`` — periodic: "dirty data remains in
  the cache until a syncer thread flushes the data back to the server",
  with syncer periods of 1, 5, 15 and 30 seconds;
* ``n``   — none: "dirty data remains in the cache until evicted for
  capacity reasons".

The same seven apply to the RAM tier and the flash tier, yielding the
49 combinations of Figure 2.

Two further policies the paper names but does not evaluate ("We did
not try other more elaborate policies (such as trickle-flushing,
writing back asynchronously after a delay, etc.)", §3.6) are provided
as extensions so the claim that they would not have mattered can be
checked:

* ``t<seconds>`` — trickle: a syncer spreads each period's flushes
  evenly across the period instead of issuing them as one burst;
* ``d<seconds>`` — delayed asynchronous write-through: each block is
  flushed ``<seconds>`` after it was dirtied.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Optional

from repro._units import SECOND
from repro.errors import ConfigError


class PolicyKind(enum.Enum):
    """The writeback mechanisms (four from the paper + two extensions)."""

    SYNC = "sync"
    ASYNC = "async"
    PERIODIC = "periodic"
    NONE = "none"
    TRICKLE = "trickle"
    DELAYED = "delayed"


def _period_ns(seconds: float) -> int:
    """A timed policy's period in nanoseconds (a non-finite one is a
    configuration error)."""
    period_ns = seconds * SECOND
    if not math.isfinite(period_ns):
        raise ConfigError("policy period must be finite, got %r seconds" % seconds)
    return int(period_ns)


@dataclass(frozen=True)
class WritebackPolicy:
    """One tier's writeback policy: a kind plus (for periodic) a period."""

    kind: PolicyKind
    period_ns: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind in (PolicyKind.PERIODIC, PolicyKind.TRICKLE, PolicyKind.DELAYED):
            if self.period_ns is None or self.period_ns <= 0:
                raise ConfigError(
                    "%s policy needs a positive period" % self.kind.value
                )
        elif self.period_ns is not None:
            raise ConfigError("%s policy takes no period" % self.kind.value)

    # --- constructors -------------------------------------------------

    @classmethod
    def sync(cls) -> "WritebackPolicy":
        return cls(PolicyKind.SYNC)

    @classmethod
    def asynchronous(cls) -> "WritebackPolicy":
        return cls(PolicyKind.ASYNC)

    @classmethod
    def periodic(cls, seconds: float) -> "WritebackPolicy":
        return cls(PolicyKind.PERIODIC, period_ns=_period_ns(seconds))

    @classmethod
    def none(cls) -> "WritebackPolicy":
        return cls(PolicyKind.NONE)

    @classmethod
    def trickle(cls, seconds: float) -> "WritebackPolicy":
        """Extension: periodic flushing spread evenly across the period."""
        return cls(PolicyKind.TRICKLE, period_ns=_period_ns(seconds))

    @classmethod
    def delayed(cls, seconds: float) -> "WritebackPolicy":
        """Extension: asynchronous write-through after a fixed delay."""
        return cls(PolicyKind.DELAYED, period_ns=_period_ns(seconds))

    @classmethod
    def parse(cls, text: str) -> "WritebackPolicy":
        """Parse the paper's notation: ``s``, ``a``, ``p<seconds>``, ``n``.

        >>> WritebackPolicy.parse("p5").period_ns
        5000000000
        """
        text = text.strip().lower()
        if text == "s":
            return cls.sync()
        if text == "a":
            return cls.asynchronous()
        if text == "n":
            return cls.none()
        if text[:1] in ("p", "t", "d") and len(text) > 1:
            try:
                seconds = float(text[1:])
            except ValueError:
                raise ConfigError("bad timed policy %r" % text) from None
            factory = {"p": cls.periodic, "t": cls.trickle, "d": cls.delayed}
            return factory[text[0]](seconds)
        raise ConfigError(
            "unknown writeback policy %r (expected s, a, p<seconds>, "
            "t<seconds>, d<seconds>, or n)" % text
        )

    # --- behavior predicates ------------------------------------------------

    @property
    def blocks_requester(self) -> bool:
        """True when a write must propagate to the next tier before the
        requester's write completes (only ``s``)."""
        return self.kind is PolicyKind.SYNC

    @property
    def writes_through(self) -> bool:
        """True when dirty data is pushed to the next tier immediately
        (``s`` and ``a``)."""
        return self.kind in (PolicyKind.SYNC, PolicyKind.ASYNC)

    @property
    def has_syncer(self) -> bool:
        return self.kind in (PolicyKind.PERIODIC, PolicyKind.TRICKLE)

    @property
    def flush_delay_ns(self) -> Optional[int]:
        """The per-block flush delay (``d`` policies only)."""
        if self.kind is PolicyKind.DELAYED:
            return self.period_ns
        return None

    # --- presentation ---------------------------------------------------------

    @property
    def label(self) -> str:
        """The paper's short label (``s``/``a``/``p1``.../``n``)."""
        if self.kind is PolicyKind.SYNC:
            return "s"
        if self.kind is PolicyKind.ASYNC:
            return "a"
        if self.kind is PolicyKind.NONE:
            return "n"
        assert self.period_ns is not None
        prefix = {
            PolicyKind.PERIODIC: "p",
            PolicyKind.TRICKLE: "t",
            PolicyKind.DELAYED: "d",
        }[self.kind]
        seconds = self.period_ns / SECOND
        if seconds == int(seconds):
            return "%s%d" % (prefix, int(seconds))
        return "%s%g" % (prefix, seconds)

    def __str__(self) -> str:
        return self.label

    @classmethod
    def all_seven(cls) -> List["WritebackPolicy"]:
        """The paper's seven policies, in Figure 2's axis order."""
        return [
            cls.sync(),
            cls.asynchronous(),
            cls.periodic(1),
            cls.periodic(5),
            cls.periodic(15),
            cls.periodic(30),
            cls.none(),
        ]
