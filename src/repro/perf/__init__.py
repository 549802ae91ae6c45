"""Performance subsystem: parallel sweeps, result caching, bench records.

The paper's figures are parameter sweeps, and regenerating one at
``REPRO_SCALE=paper`` costs hours if every cell runs serially and every
heavy intermediate is recomputed.  This package makes regeneration cheap:

* :class:`SweepEngine` fans independent sweep cells out over a process
  pool with deterministic per-cell ``SeedSequence`` children, so serial
  and parallel runs are bit-identical.  It runs under a
  :class:`SupervisorPolicy` — per-cell timeouts, bounded jittered
  retries, pool-death recovery with quarantine and serial degrade —
  and can checkpoint/resume through a :class:`SweepJournal`, without
  ever changing a surviving cell's bits.  The default policy runs each
  cell once with no timeout.  ``run(cells)`` returns every cell's
  result in input order or raises the first failed cell's own
  exception; ``run_supervised(cells)`` returns the survivors plus a
  :class:`SweepReport`;
* :class:`ResultCache` is a content-addressed on-disk memo (key = hash
  of workload fingerprint + solver/controller parameters + code
  version) shared between worker processes and across runs;
* :class:`BenchRecorder` timestamps every cell and writes
  ``BENCH_sweeps.json``, the repo's perf trajectory;
* :mod:`repro.perf.sweeps` defines the concrete cells of the paper's
  grids (Figs. 2, 6, 7-9) plus the cached trace/DP-schedule builders.
"""

from repro.perf.cache import CACHE_SCHEMA, ResultCache, fingerprint
from repro.perf.engine import CellResult, SupervisedRun, SweepCell, SweepEngine
from repro.perf.journal import (
    JOURNAL_SCHEMA,
    JournalEntry,
    SweepJournal,
    sweep_fingerprint,
)
from repro.perf.recorder import BENCH_SCHEMA, BenchRecorder
from repro.perf.supervise import CellReport, SupervisorPolicy, SweepReport
from repro.perf.sweeps import (
    SWEEP_SCALES,
    SweepScale,
    current_scale,
    figs7_9_cells,
    mbac_cell,
    mbac_grid_cells,
    optimal_schedule_for,
    smg_cells,
    starwars_trace_for,
    tradeoff_cells,
)

__all__ = [
    "CACHE_SCHEMA",
    "ResultCache",
    "fingerprint",
    "CellResult",
    "SweepCell",
    "SweepEngine",
    "BENCH_SCHEMA",
    "BenchRecorder",
    "JOURNAL_SCHEMA",
    "JournalEntry",
    "SweepJournal",
    "sweep_fingerprint",
    "CellReport",
    "SupervisedRun",
    "SupervisorPolicy",
    "SweepReport",
    "SWEEP_SCALES",
    "SweepScale",
    "current_scale",
    "figs7_9_cells",
    "mbac_cell",
    "mbac_grid_cells",
    "optimal_schedule_for",
    "smg_cells",
    "starwars_trace_for",
    "tradeoff_cells",
]
