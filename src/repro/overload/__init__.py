"""Link-level overload control: downgrade, sacrifice, and drain beyond
admission blocking.

The paper's RCBR service only ever says "no" at admission time; when
offered load *stays* above capacity, blocking alone leaves every
admitted call fighting over a saturated link and the playout buffers
bleeding bits.  This package adds the missing link-level policy layer,
in the spirit of Fricker et al.'s downgrading allocation schemes:

* :class:`~repro.overload.plane.OverloadControlPlane` — watches
  utilization/demand pressure on the shared link with hysteresis
  (enter/exit thresholds plus a dwell time) so the policy cannot flap;
* :class:`~repro.overload.policies.BlockOnlyPolicy` — the baseline:
  admission blocking is the only control (today's behaviour, byte-for-
  byte);
* :class:`~repro.overload.policies.DowngradePolicy` — walks service
  classes down a resolution ladder, shrinking granted rates through the
  kernel's batched downgrade mask and restoring premium classes first
  when pressure clears;
* :class:`~repro.overload.policies.SacrificePolicy` — temporarily
  evicts the cheapest-to-displace calls (deterministic, seeded victim
  selection) into a bounded requeue, readmitting them once the link
  recovers;
* :class:`~repro.overload.linkagent.LinkScopedOverloadAgent` — the
  one link a plane+policy pair acts on, the classic service's only link
  included, so every topology gets per-link overload control through
  the same policies.
"""

from repro.overload.linkagent import LinkScopedOverloadAgent
from repro.overload.plane import OverloadControlPlane
from repro.overload.policies import (
    OVERLOAD_POLICY_NAMES,
    BlockOnlyPolicy,
    DowngradePolicy,
    OverloadPolicy,
    SacrificePolicy,
    make_overload_policy,
)

__all__ = [
    "LinkScopedOverloadAgent",
    "OverloadControlPlane",
    "OVERLOAD_POLICY_NAMES",
    "OverloadPolicy",
    "BlockOnlyPolicy",
    "DowngradePolicy",
    "SacrificePolicy",
    "make_overload_policy",
]
