"""Parallel experiment-execution engine with content-addressed caching.

The evaluation's headline numbers are averages over many independent
replications.  Each experiment decomposes into *cells* — the smallest
independently simulable unit (a ``seed x method x scenario`` point for
Table I, a ``mechanism x payload-size`` point for Figures 6/7, one knob
value for an ablation).  Cells share nothing: every cell builds its own
:class:`~repro.sim.Environment` from a seed derived purely from the
(config, cell-key) pair, so results are independent of execution order
and of which process computed them.

* :mod:`repro.runner.spec` — the :class:`ExperimentSpec` contract
  (plan / run_cell / merge) and the experiment registry;
* :mod:`repro.runner.cache` — the on-disk result cache, keyed by a
  stable hash of (config key-dict, calibration fingerprint, cell key,
  code-version salt);
* :mod:`repro.runner.engine` — the sharded executor: ``run_experiments``
  sends the missing cells of *every* requested experiment through one
  :class:`concurrent.futures.ProcessPoolExecutor` per run, merges in
  deterministic cell order (serial and parallel runs are bit-identical),
  and reports wall-clock/speedup statistics.
"""

from .cache import ResultCache, cache_key, calibration_fingerprint
from .engine import CellOutcome, RunStats, run_experiment, run_experiments
from .spec import CellKey, ExperimentSpec, all_specs, get_spec, register

__all__ = [
    "CellKey",
    "CellOutcome",
    "ExperimentSpec",
    "ResultCache",
    "RunStats",
    "all_specs",
    "cache_key",
    "calibration_fingerprint",
    "get_spec",
    "register",
    "run_experiment",
    "run_experiments",
]
