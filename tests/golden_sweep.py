"""The frozen serial sweep loop — the golden oracle for the sweep engine.

``golden_sweep`` is the sweep engine's happy path reduced to its
contract: cell ``index`` gets ``SeedSequence(base_seed,
spawn_key=(index,))`` in its ``seed_arg`` (when it asks for one), then
runs as ``fn(**kwargs)``, one cell after another in input order, with
no pool, no cache, no journal and no retries.

:class:`repro.perf.engine.SweepEngine` must reproduce these values bit
for bit — serial, parallel, cache-warm, resumed or retried.  The
equivalence tests compare with ``==``, never ``approx``.

Do not "fix" or modernize this file: its value is that it does not
change.
"""

from __future__ import annotations

from typing import Any, List, Sequence

import numpy as np


def golden_sweep(cells: Sequence[Any], base_seed: int = 0) -> List[Any]:
    """Every cell's value, computed serially in input order."""
    values = []
    for index, cell in enumerate(cells):
        kwargs = dict(cell.kwargs)
        if cell.seed_arg is not None:
            kwargs[cell.seed_arg] = np.random.SeedSequence(
                base_seed, spawn_key=(index,)
            )
        values.append(cell.fn(**kwargs))
    return values
