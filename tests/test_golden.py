"""Golden result signatures, pinned in ``tests/golden/``.

Two corpora guard refactors of the replay path against any drift in
simulated results:

* ``matrix_fast.json`` — the 15-point differential matrix at the
  ``--fast`` scale (see :func:`repro.validation.differential.
  matrix_signatures`), compared through the harness CLI;
* ``traced_baseline.json`` — for each architecture, digests of the
  ``full_signature`` and of the JSONL event stream of a traced 2-host
  baseline replay, so the observed path is pinned too.

Regenerate only when a change is *meant* to move results:
``python -m repro.validation.differential --fast --dump-signatures
tests/golden/matrix_fast.json`` and ``python -m tests.test_golden``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from typing import Dict

import pytest

from repro.core.simulator import run_simulation
from repro.experiments.common import baseline_config, baseline_trace
from repro.obs import Observation
from repro.validation.differential import ALL_ARCHITECTURES, full_signature, main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
MATRIX_FAST = os.path.join(GOLDEN_DIR, "matrix_fast.json")
TRACED_BASELINE = os.path.join(GOLDEN_DIR, "traced_baseline.json")

#: Geometry divisor of the traced baseline runs.
TRACED_SCALE = 16384


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def traced_digests(architecture) -> Dict[str, str]:
    """Signature and event-stream digests of one traced 2-host run."""
    trace = baseline_trace(n_hosts=2, scale=TRACED_SCALE)
    obs = Observation()
    result = run_simulation(
        trace,
        baseline_config(scale=TRACED_SCALE, architecture=architecture),
        obs=obs,
    )
    stream = io.StringIO()
    obs.write_jsonl(stream)
    return {
        "full_signature": _sha256(json.dumps(full_signature(result), sort_keys=True)),
        "events": _sha256(stream.getvalue()),
    }


def test_fast_matrix_matches_golden_signatures(capsys):
    assert main(["--fast", "--compare-signatures", MATRIX_FAST]) == 0, (
        capsys.readouterr().out
    )


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES, ids=lambda a: a.value)
def test_traced_baseline_matches_golden_digests(architecture):
    with open(TRACED_BASELINE) as handle:
        golden = json.load(handle)
    assert traced_digests(architecture) == golden[architecture.value]


if __name__ == "__main__":  # pragma: no cover - regenerates the pinned file
    with open(TRACED_BASELINE, "w") as handle:
        json.dump(
            {a.value: traced_digests(a) for a in ALL_ARCHITECTURES},
            handle,
            indent=1,
            sort_keys=True,
        )
        handle.write("\n")
