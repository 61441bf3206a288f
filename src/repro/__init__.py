"""Reproduction of *Resource Management for Interactive Jobs in a Grid
Environment* (Fernández, Heymann, Senar — IEEE CLUSTER 2006).

The package rebuilds the CrossGrid/CrossBroker interactive-job stack on a
deterministic discrete-event substrate:

* :mod:`repro.core` — the brokers behind one ``BrokerBase``: the
  paper's push-model CrossBroker (two-stage resource selection,
  fair-share priorities, glide-in multiprogramming, on-line scheduling),
  an AliEn-style pull broker, and a Gridbus-style data-aware broker;
* :mod:`repro.streaming` — split-execution I/O streaming (Console Agent /
  Console Shadow, fast and reliable modes);
* :mod:`repro.multiprog` — glide-in agents and lightweight VM slots;
* :mod:`repro.grid`, :mod:`repro.net`, :mod:`repro.sim` — the grid,
  network, and simulation substrates;
* :mod:`repro.jdl` — the Job Description Language;
* :mod:`repro.baselines` — ssh and Glogin comparators;
* :mod:`repro.interposition` — the same Grid Console protocol on *real*
  subprocesses and TCP sockets;
* :mod:`repro.experiments` — regenerates Table I, Figures 6-8, and the
  ablations (``repro run all``), all through :mod:`repro.runner`.

Quickstart
----------
>>> from repro import Scenario
>>> from repro.jdl import JobDescription
>>> from repro.workloads import immediate_output_app
>>> handle = Scenario(sites=1, scenario="campus", seed=1).build()
>>> job = JobDescription.from_jdl(
...     'Executable="app"; JobType={"interactive","sequential"};')
>>> submitted = handle.submit(job, lambda rank: immediate_output_app())
>>> _ = handle.run(until=submitted.finished)
>>> submitted.report.success
True

Swap ``Scenario(..., broker_mode="pull")`` (or ``"data"``) to run the
same submission through the AliEn-style task queue or the Gridbus-style
data-aware ranking — the handle's ``broker`` keeps the same protocol.

Importing :mod:`repro` loads nothing else: the four names below resolve
to their defining modules on first use (PEP 562), so the simulator
(:mod:`repro.scenario` and everything under it) is loaded by the first
``Scenario`` — for ``repro run``, by the first cell the cache cannot
serve — and never by ``repro --help``, ``repro cache`` or ``repro lint``.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

#: Public name -> defining module.
_EXPORTS = {
    "Calibration": ".calibration",
    "DEFAULT_CALIBRATION": ".calibration",
    "Scenario": ".scenario",
    "ScenarioHandle": ".scenario",
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
