"""Output checks: conservation identities and fingerprints.

:func:`check_result` looks only at the result record a benchmark run
builds (final snapshots and fingerprint comparisons), so a doctored
record fails it the same way a wrong run would.  Every failure message
names the identity or comparison that broke.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The lifecycle identities every final snapshot must satisfy.
IDENTITIES: Tuple[Tuple[str, Callable[[Dict[str, Any]], bool]], ...] = (
    (
        "arrivals = blocked + admitted",
        lambda s: s["arrivals"] == s["blocked"] + s["admitted"],
    ),
    (
        "admitted - departed = active_calls",
        lambda s: s["admitted"] - s["departed"] == s["active_calls"],
    ),
    (
        "completed + abandoned = departed",
        lambda s: s["completed"] + s["abandoned"] == s["departed"],
    ),
)

RECORDED_PATH = Path(__file__).resolve().parent / "fingerprints.json"


def load_recorded(path: Path = RECORDED_PATH) -> Dict[str, Any]:
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def recorded_fingerprint(
    table: Dict[str, Any], workload: str, behaviour_key: str, seed: int
) -> Optional[str]:
    """The recorded prefix fingerprint for (workload, seed), or None if
    none was recorded for this exact workload shape."""
    entry = table.get(workload)
    if not entry or entry.get("behaviour_key") != behaviour_key:
        return None
    return entry.get("prefix_fingerprints", {}).get(str(seed))


def check_result(result: Dict[str, Any]) -> List[str]:
    """Every failed check of a run record, as readable messages."""
    failures: List[str] = []
    workload = result["workload"]
    for label, final in result["finals"].items():
        for name, holds in IDENTITIES:
            if not holds(final):
                failures.append(
                    f"{workload}: identity '{name}' fails on the {label} "
                    f"run's final snapshot"
                )
    for comparison in result["fingerprint_checks"]:
        if comparison["got"] != comparison["want"]:
            failures.append(
                f"{workload}: fingerprint of {comparison['what']} is "
                f"{comparison['got']}, expected {comparison['want']} "
                f"({comparison['source']})"
            )
    for label, run in result["runs"].items():
        if run["epochs"] != run["planned_epochs"]:
            failures.append(
                f"{workload}: {label} run served {run['epochs']} of "
                f"{run['planned_epochs']} planned epochs"
            )
    return failures
