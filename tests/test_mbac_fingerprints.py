"""Every recorded ``churn-mbac`` fingerprint prefix, recomputed.

``perfbench/fingerprints.json`` records the snapshot fingerprint of the
first warm-up + 48 epochs of the serving benchmark's ``churn-mbac``
workload for 150 gateway seeds.  That workload admits every arrival
through ``MemoryMBAC``, so one admission decision that differs from the
exact Chernoff test moves the fingerprint of its seed.  Each test
recomputes one prefix through ``perfbench/workloads.reference_fingerprint``
on the unsharded runtime.

The whole table takes minutes, so it runs only with
``REPRO_FULL_BENCH=1``.  The benchmark's modules are imported read-only.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOAD = "churn-mbac"
RECORDED = json.loads((BENCH / "fingerprints.json").read_text(encoding="utf-8"))[
    WORKLOAD
]

pytestmark = pytest.mark.skipif(
    not os.environ.get("REPRO_FULL_BENCH"),
    reason="150 churn-mbac gateways; set REPRO_FULL_BENCH=1 to run",
)


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    shape = workloads.WORKLOADS[WORKLOAD]
    assert shape.behaviour_key() == RECORDED["behaviour_key"]
    return workloads


@pytest.mark.parametrize("seed", sorted(map(int, RECORDED["prefix_fingerprints"])))
def test_churn_mbac_prefix_fingerprint(workloads, seed):
    shape = workloads.WORKLOADS[WORKLOAD]
    reference = workloads.reference_fingerprint(
        shape, seed, workloads.base_workload(seed)
    )
    assert reference["fingerprint"] == RECORDED["prefix_fingerprints"][str(seed)]
