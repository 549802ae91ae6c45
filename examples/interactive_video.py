#!/usr/bin/env python
"""Interactive (online) video over RCBR: the causal AR(1) heuristic.

A live source cannot precompute its schedule, so it renegotiates
on-the-fly using the paper's Section IV-B heuristic: an AR(1) bandwidth
estimator plus dual buffer thresholds (B_l = 10 kb, B_h = 150 kb,
T = 5 frames).  We sweep the bandwidth granularity delta — the paper's
Fig. 2 knob — and then run the same source against a congested link to
show how denied renegotiations are absorbed.

Run:  python examples/interactive_video.py
"""

from repro import OnlineParams, OnlineScheduler, RcbrLink, generate_starwars_trace
from repro.core.service import OnlineRcbrSource
from repro.util.units import format_rate, kbps


def main() -> None:
    trace = generate_starwars_trace(num_frames=7_200, seed=2)
    workload = trace.as_workload()
    print(f"live source: {trace.duration:.0f} s at "
          f"{format_rate(trace.mean_rate)} average\n")

    print("granularity sweep (the Fig. 2 heuristic tradeoff):")
    print(f"{'delta':>10} {'renegs/s':>9} {'efficiency':>11} {'max buffer':>11}")
    for delta_kbps in (25, 50, 100, 200, 400):
        params = OnlineParams(granularity=kbps(delta_kbps))
        result = OnlineScheduler(params).schedule(workload)
        renegs_per_second = result.num_renegotiations / trace.duration
        efficiency = result.schedule.bandwidth_efficiency(trace.mean_rate)
        print(f"{delta_kbps:>7} kb/s {renegs_per_second:>9.2f} "
              f"{efficiency:>10.1%} {result.max_buffer / 1000:>8.0f} kb")

    # Now share a link with a static reservation that leaves headroom for
    # the source's average but not for its biggest peaks: increases are
    # denied during action scenes, and the source "settles for whatever
    # bandwidth it has" while retrying at the next threshold crossing.
    print("\nsame source on a congested link:")
    link = RcbrLink(capacity=2 * trace.mean_rate)
    background, live = 0, 1  # link slots
    link.request(background, 0.8 * trace.mean_rate, 0.0)
    source = OnlineRcbrSource(live, OnlineParams(granularity=kbps(100)), link)
    result = source.run(workload)
    print(f"  requests made:   {result.requests_made}")
    print(f"  requests denied: {result.requests_denied}")
    print(f"  max buffer:      {result.max_buffer / 1000:.0f} kb "
          "(absorbs the denials)")


if __name__ == "__main__":
    main()
