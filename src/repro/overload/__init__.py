"""Link-level overload control: downgrade, sacrifice, and drain beyond
admission blocking.

The paper's RCBR service only ever says "no" at admission time; when
offered load *stays* above capacity, blocking alone leaves every
admitted call fighting over a saturated link and the playout buffers
bleeding bits.  This package adds the missing link-level policy layer,
in the spirit of Fricker et al.'s downgrading allocation schemes:

* :class:`~repro.overload.plane.OverloadControlPlane` — one per link,
  the classic service's only link included: watches its link's
  utilization/demand pressure with hysteresis (enter/exit thresholds
  plus a dwell time) so the policy cannot flap, and hands itself to
  the policy, which acts on the gateway's calls routed over that link;
* :class:`~repro.overload.policies.DowngradePolicy` — walks service
  classes down a resolution ladder, shrinking granted rates through the
  kernel's batched downgrade mask and restoring premium classes first
  when pressure clears;
* :class:`~repro.overload.policies.SacrificePolicy` — temporarily
  evicts the cheapest-to-displace calls (deterministic, seeded victim
  selection) into a bounded requeue, readmitting them once the link
  recovers.

The baseline, ``block``, is no policy: admission blocking is the only
control and :func:`~repro.overload.policies.policy_for_config` returns
None, so the gateway builds no plane.
"""

from repro.overload.plane import OverloadControlPlane
from repro.overload.policies import (
    OVERLOAD_POLICY_NAMES,
    DowngradePolicy,
    OverloadPolicy,
    SacrificePolicy,
    policy_for_config,
)

__all__ = [
    "OverloadControlPlane",
    "OVERLOAD_POLICY_NAMES",
    "OverloadPolicy",
    "DowngradePolicy",
    "SacrificePolicy",
    "policy_for_config",
]
