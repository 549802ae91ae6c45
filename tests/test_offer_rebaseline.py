"""The admission-order re-baseline, recorded as a paired-seed comparison.

Every offered call draws, in order: its service class, its route, the
admission decision, then its workload shift and call id, and (only if
admitted) its holding time.  The multi-bottleneck gateway used to draw
the shift and the call id before the admission decision, so every call
a measurement-based controller blocked still consumed a call-stream
draw.  Deciding first moves the call stream of measurement-based runs
on multi-bottleneck topologies and nothing else (always-admit runs and
the classic gateway draw exactly as before).

``PREVIOUS`` holds, for seeds 0-19 of three such shapes, the blocking
fraction, the renegotiation-denial fraction and the mean utilization
the old order produced.  The current order must agree with it in
distribution: each paired mean difference lies within three paired
standard errors.  ``SEED0`` pins the current order's fingerprints.
"""

import math

import pytest

from repro.scenarios import get_scenario, run_scenario
from tests.test_scenario_unified import hot_spec

SEEDS = range(20)

SHAPES = {
    "hot-chain-memory": lambda seed: hot_spec(
        "block", controller="memory"
    ).replace(seed=seed),
    "parking-lot-memory": lambda seed: get_scenario(
        "parking-lot", seed=seed, controller="memory"
    ),
    "hotspot-k2-memoryless": lambda seed: get_scenario(
        "hotspot-collision", seed=seed, route_k=2, controller="memoryless"
    ),
}

METRICS = ("blocking", "denial", "mean_utilization")

#: Per seed: (blocking fraction, renegotiation-denial fraction, mean
#: utilization) under the previous draw order (shift before admission).
PREVIOUS = {
    "hot-chain-memory": (
        (0.8285714285714286, 0.5272727272727272, 0.4331165200686604),
        (0.8918918918918919, 0.22535211267605634, 0.19233377897873463),
        (0.7916666666666666, 0.49606299212598426, 0.32295158802899365),
        (0.7209302325581395, 0.7976878612716763, 0.46708007745386515),
        (0.8695652173913043, 0.3076923076923077, 0.2733556325592326),
        (0.8867924528301887, 0.19444444444444445, 0.15725548355964097),
        (0.8, 0.023809523809523808, 0.3366406730560966),
        (0.8125, 0.0, 0.21390412864061314),
        (0.8536585365853658, 0.14285714285714285, 0.19428653277000119),
        (0.9090909090909091, 0.23076923076923078, 0.23969809193937236),
        (0.717948717948718, 0.7395348837209302, 0.5278182487208382),
        (0.7941176470588235, 0.7037037037037037, 0.36420757825131916),
        (0.84375, 0.021739130434782608, 0.1903770261087833),
        (0.8372093023255814, 0.6826347305389222, 0.4107789689734152),
        (0.8285714285714286, 0.0, 0.18197560718292186),
        (0.8055555555555556, 0.7824675324675324, 0.4919426135872371),
        (0.8717948717948718, 0.5079365079365079, 0.18064035101122886),
        (0.75, 0.8104838709677419, 0.4102285629307285),
        (0.75, 0.875968992248062, 0.3884696478414693),
        (0.8181818181818182, 0.20588235294117646, 0.30514621213861254),
    ),
    "parking-lot-memory": (
        (0.7692307692307693, 0.25925925925925924, 0.4574411192014185),
        (0.8210526315789474, 0.3273381294964029, 0.2775451257645843),
        (0.7058823529411765, 0.3852040816326531, 0.36150654356272377),
        (0.7926829268292683, 0.3819444444444444, 0.29348450325361697),
        (0.7974683544303798, 0.040625, 0.2641847773448025),
        (0.8058252427184466, 0.0196078431372549, 0.18384358132732445),
        (0.7912087912087912, 0.14222222222222222, 0.29764174898353407),
        (0.7611940298507462, 0.0, 0.16866907820111554),
        (0.8125, 0.29098360655737704, 0.2765320211570655),
        (0.8297872340425532, 0.3333333333333333, 0.2605650438836853),
        (0.7567567567567568, 0.1342281879194631, 0.37996776287777756),
        (0.6973684210526315, 0.36082474226804123, 0.25400339913963704),
        (0.7123287671232876, 0.005555555555555556, 0.18122483913449847),
        (0.7625, 0.4702258726899384, 0.36710159055337765),
        (0.7246376811594203, 0.010471204188481676, 0.22986973964857912),
        (0.75, 0.34, 0.3352360917802262),
        (0.7835051546391752, 0.15873015873015872, 0.19089254320603288),
        (0.76, 0.08071748878923767, 0.3088337273369614),
        (0.776595744680851, 0.10483870967741936, 0.28604407823807015),
        (0.71875, 0.0, 0.19939945538613157),
    ),
    "hotspot-k2-memoryless": (
        (0.7065217391304348, 0.0036496350364963502, 0.31410065520795494),
        (0.7469879518072289, 0.0, 0.2616057950831728),
        (0.7536231884057971, 0.0, 0.22079361319606114),
        (0.7142857142857143, 0.0, 0.188724206947792),
        (0.7590361445783133, 0.0, 0.23936728455541162),
        (0.6942148760330579, 0.006557377049180328, 0.26073272787799123),
        (0.7692307692307693, 0.0, 0.24144222933572287),
        (0.6582278481012658, 0.0, 0.18510024730887262),
        (0.6727272727272727, 0.03409090909090909, 0.34045226763649244),
        (0.7333333333333333, 0.0, 0.24859326149218242),
        (0.75, 0.020114942528735632, 0.2628536392110985),
        (0.7926829268292683, 0.010256410256410256, 0.20626115740269327),
        (0.7236842105263158, 0.02214022140221402, 0.2906949158680715),
        (0.7701149425287356, 0.0, 0.17046621372525017),
        (0.6811594202898551, 0.0, 0.22269663169259674),
        (0.7415730337078652, 0.012422360248447204, 0.25685858129105305),
        (0.646551724137931, 0.0, 0.20353086579690036),
        (0.6976744186046512, 0.0036900369003690036, 0.24632946048172832),
        (0.6761904761904762, 0.08940397350993377, 0.27112251248992186),
        (0.6666666666666666, 0.0053475935828877, 0.15829445197933353),
    ),
}

SEED0 = {
    "hot-chain-memory": "20f1452496ae41620197bc21e3914d79"
    "58ad7e84d9e52e323f6ae4254a1a5145",
    "parking-lot-memory": "a8dbfa5311999b6913753c64e581529a"
    "b178de4e7ba012b23f85029477afa489",
    "hotspot-k2-memoryless": "7457c50512a2006a925f4d04f392dbd3"
    "26ec5abab7fb9a7472a3ae45d972d823",
}


def measure(spec):
    result = run_scenario(spec)
    final = result.report.final
    return result.fingerprint, (
        final.blocked / final.arrivals,
        final.reneg_denied / final.reneg_requests,
        result.report.mean_utilization,
    )


@pytest.fixture(scope="module")
def current():
    return {
        name: [measure(make(seed)) for seed in SEEDS]
        for name, make in SHAPES.items()
    }


def test_every_seed_is_recorded():
    assert set(PREVIOUS) == set(SHAPES) == set(SEED0)
    assert all(len(rows) == len(SEEDS) for rows in PREVIOUS.values())


@pytest.mark.parametrize("name", sorted(SHAPES))
@pytest.mark.parametrize("metric", range(len(METRICS)), ids=METRICS)
def test_paired_difference_is_within_three_standard_errors(
    current, name, metric
):
    diffs = [
        now[metric] - before[metric]
        for (_, now), before in zip(current[name], PREVIOUS[name])
    ]
    count = len(diffs)
    mean = sum(diffs) / count
    variance = sum((diff - mean) ** 2 for diff in diffs) / (count - 1)
    stderr = math.sqrt(variance / count)
    assert abs(mean) <= 3 * stderr, (mean, stderr)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_seed_zero_is_pinned(current, name):
    fingerprint, _ = current[name][0]
    assert fingerprint == SEED0[name]
