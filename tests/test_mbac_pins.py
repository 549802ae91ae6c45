"""Measurement-based admission decisions, pinned to recorded values.

The call-level simulator behind Figs. 7-9 (``perf.sweeps.mbac_cell``)
and a classic memoryless gateway both decide every arrival through the
Chernoff test of eq. 12.  A single decision that flips moves the
blocked count, and with it every value below; these pins hold the
memoryless and memory controllers to the decisions they made before
the memory controller's admission test took a certified shortcut.
Every field the cell returns is pinned, by ``repr`` so a last-bit drift
shows.
"""

import pytest

from repro.perf.sweeps import mbac_cell
from repro.server import ServerConfig, build_gateway
from repro.traffic.starwars import generate_starwars_trace

#: (controller, capacity multiple, load) -> (failure probability,
#: utilization, blocking probability, intervals), seed 23.
CELLS = {
    ("memoryless", 8.0, 0.7): (
        0.043859649122807015, 0.4083891730359363, 0.2630952380952381, 6,
    ),
    ("memoryless", 8.0, 1.4): (
        0.21020472582972585, 0.5990173124156802, 0.5276038246239485, 6,
    ),
    ("memoryless", 24.0, 0.7): (
        0.0, 0.41346787921321376, 0.14947209653092008, 3,
    ),
    ("memoryless", 24.0, 1.4): (
        0.014878125989237101, 0.5667158871435811, 0.5232627632052919, 6,
    ),
    ("memory", 8.0, 0.7): (0.0, 0.18675777359057397, 0.7347883597883597, 6),
    ("memory", 8.0, 1.4): (0.0, 0.2161226760241987, 0.7803030303030303, 5),
    ("memory", 24.0, 0.7): (
        0.0, 0.43520290708068865, 0.25281954887218044, 4,
    ),
    ("memory", 24.0, 1.4): (
        0.0, 0.46927143120294595, 0.5746031746031746, 3,
    ),
}


@pytest.mark.parametrize("key", sorted(CELLS))
def test_mbac_cell_is_pinned(optimal_schedule, key):
    controller, capacity_multiple, load = key
    cell = mbac_cell(
        optimal_schedule, capacity_multiple, load, controller, seed=23,
        min_intervals=3, max_intervals=6,
    )
    failure, utilization, blocking, intervals = CELLS[key]
    assert repr(cell) == repr({
        "controller": controller,
        "capacity_multiple": capacity_multiple,
        "load": load,
        "failure_probability": failure,
        "utilization": utilization,
        "blocking_probability": blocking,
        "num_intervals": intervals,
    })


def test_classic_memoryless_gateway_is_pinned():
    workload = generate_starwars_trace(num_frames=400, seed=1995).as_workload()
    config = ServerConfig(
        capacity=12 * workload.mean_rate,
        load=1.5,
        controller="memoryless",
        seed=21,
        initial_calls=15,
        mean_holding=2.0,
        num_hops=2,
    )
    with build_gateway(workload, config) as gateway:
        report = gateway.run(6.0, snapshot_every=1.0)
    assert 0 < report.final.blocked < report.final.arrivals
    assert (
        report.fingerprint,
        repr(report.mean_utilization),
        report.peak_active,
        report.call_epochs_stepped,
    ) == (
        "377e9a1970af1ce4a97097e841b1db3d4d6433bb634ca4a61636be49d6227ac9",
        "0.6782229169868207",
        11,
        1176,
    )
