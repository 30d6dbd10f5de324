"""Roll a ``cProfile`` profile up from ``repro`` modules to layers.

A layer is a ``repro`` subpackage (``LAYER_OF_PACKAGE``).  A function
defined in a ``repro`` module belongs to that module's layer.  A function
defined elsewhere (a builtin such as ``heapq.heappush``, the standard
library, the benchmark itself) has no layer of its own: ``cProfile``
records its self time separately for every direct caller, so each
caller's share goes to the caller's layer, and to ``other`` when the
caller is not a ``repro`` function either.  With a single caller, all
of its self time goes to that caller's layer.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

#: First path component under ``repro/`` (subpackage, or module stem for
#: the package-root modules) -> layer.
LAYER_OF_PACKAGE: Dict[str, str] = {
    "tracegen": "tracegen",
    "fsmodel": "tracegen",
    "traces": "traces",
    "engine": "engine",
    "cache": "cache",
    "core": "core",
    # package-root helpers every layer imports
    "__init__": "core",
    "_units": "core",
    "errors": "core",
    "flash": "flash",
    "net": "net",
    "filer": "filer",
    "policies": "policies",
    "sweep": "sweep",
    # off in timed runs, mapped so every module has exactly one layer
    "obs": "obs",
    "invariants": "invariants",
    "validation": "validation",
    "experiments": "experiments",
    "report": "report",
    "workloads": "workloads",
}

def module_name(filename: str, package_dir: Path) -> Optional[str]:
    """``filename``'s module path under the ``repro`` package rooted at
    ``package_dir`` (``"core/host"``), or None for any other file."""
    try:
        relative = Path(filename).resolve().relative_to(package_dir)
    except ValueError:
        return None
    return relative.with_suffix("").as_posix()


def module_layer(module: str) -> str:
    """The layer of a ``repro`` module path.

    Raises ``KeyError`` for a subpackage with no layer, so a new
    subpackage cannot silently land in ``other``.
    """
    return LAYER_OF_PACKAGE[module.split("/", 1)[0]]


@dataclass
class LayerProfile:
    """Per-layer self seconds and call counts of one or more profiles."""

    self_s: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: calls of functions outside repro (builtins such as heappush, the
    #: standard library), by function name
    outside_calls: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: calls and cumulative seconds of single repro functions, by
    #: ``module:function`` relative to the package
    function_calls: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    function_cum_s: Dict[str, float] = field(default_factory=lambda: defaultdict(float))

    @property
    def total_self_s(self) -> float:
        return sum(self.self_s.values())


def rollup(stats: Dict, package_dir: Path, into: Optional[LayerProfile] = None) -> LayerProfile:
    """Add a ``pstats.Stats(...).stats`` mapping to ``into`` (or a new
    :class:`LayerProfile`) and return it."""
    profile = into if into is not None else LayerProfile()
    modules: Dict[str, Tuple[Optional[str], str]] = {}

    def module_of(filename: str) -> Tuple[Optional[str], str]:
        """``(layer or None, module path)`` of a source file."""
        if filename not in modules:
            module = module_name(filename, package_dir)
            modules[filename] = (
                (module_layer(module), module) if module is not None else (None, "")
            )
        return modules[filename]

    for func, (_cc, calls, self_s, cum_s, callers) in stats.items():
        layer, module = module_of(func[0])
        if layer is not None:
            profile.self_s[layer] += self_s
            profile.calls[layer] += calls
            name = "%s:%s" % (module, func[2])
            profile.function_calls[name] += calls
            profile.function_cum_s[name] += cum_s
            continue
        profile.outside_calls[func[2]] += calls
        attributed = 0.0
        for caller, caller_stats in callers.items():
            caller_self_s = caller_stats[2]
            profile.self_s[module_of(caller[0])[0] or "other"] += caller_self_s
            attributed += caller_self_s
        # Time the per-caller split does not cover (no recorded caller).
        profile.self_s["other"] += self_s - attributed
    return profile
