"""Worker purity, by mechanism: a cell leaves ``repro.*`` module state
as it found it.

The runner's serial == parallel == cached contract holds only if a cell
is a pure function of ``(config, key)``: a cell that writes module state
answers differently in process, where it sees what earlier cells left
behind, than in a freshly forked pool worker.  So every quick-plan cell
of every registered experiment runs once to warm up, through
``spec.run_cell``, then twice more through the real worker entry,
:func:`repro.runner.engine._execute_cell`: plain, and under telemetry
plus an empty chaos schedule, whose scopes set and restore
``Environment.telemetry_factory`` and ``ChaosSchedule.scope``.  Each of
those calls sits between two fingerprints of every ``repro.*`` module
global and class attribute (:mod:`tests.module_state`).  The warm-up
is held to the same rule: a cell that sets state and leaves it set
writes only on its first run, and the modules its first run imports
are new, not written.

:data:`W2A_COUNTERS` are the two process-global id counters that
ROADMAP item 1 W2(a) moves into the world.  Until then they are the one
expected write; W2(a) is done when this set is empty.
"""

from __future__ import annotations

import dataclasses
from functools import partial

import pytest

from repro.runner import all_specs

from .module_state import cell_writes, changed, fingerprint, writes_per_call

#: The only module state a cell may write today (ROADMAP 1 W2(a)).
W2A_COUNTERS = {"repro.jdl.job._job_counter",
                "repro.streaming.messages._seq_counter"}


def quick_cells(specs):
    """``(experiment id, quick config, key)`` for every planned cell."""
    for experiment_id, spec in sorted(specs.items()):
        config = spec.make_config(quick=True)
        for key in spec.plan(config):
            yield experiment_id, config, key


def stray(writes):
    """Writes outside :data:`W2A_COUNTERS`, by call."""
    return {label: sorted(set(names) - W2A_COUNTERS)
            for label, names in writes.items()
            if set(names) - W2A_COUNTERS}


class TestRegisteredCells:
    @pytest.fixture(scope="class")
    def writes(self):
        specs = all_specs()
        cells = list(quick_cells(specs))
        warm_up = writes_per_call(
            (f"{experiment_id}/{'/'.join(key)} [warm-up]",
             partial(specs[experiment_id].run_cell, config, key))
            for experiment_id, config, key in cells)
        return {**warm_up, **cell_writes(cells)}

    def test_every_experiment_is_covered(self, writes):
        assert len(all_specs()) == 13
        ran = {label.split("/")[0] for label in writes}
        assert ran == set(all_specs())

    def test_cells_write_no_module_state(self, writes):
        assert stray(writes) == {}

    def test_w2a_counters_are_all_that_is_written(self, writes):
        # Strict: a counter that stops moving must leave this set too.
        assert set().union(*writes.values()) == W2A_COUNTERS


# -- seeded defects: each one is caught and named ------------------------
_SEEDED_ID = "table1"


@pytest.fixture
def seed_cell(monkeypatch):
    """Swap ``table1``'s cell for ``body(key)`` (no simulation) and
    return the two-cell plan to run it on."""
    from repro.runner import spec as spec_module

    def install(body):
        spec = all_specs()[_SEEDED_ID]
        monkeypatch.setitem(
            spec_module._REGISTRY, _SEEDED_ID,
            dataclasses.replace(spec, run_cell=lambda config, key: body(key)))
        config = spec.make_config(quick=True)
        return [(_SEEDED_ID, config, key) for key in spec.plan(config)[:2]]

    return install


class TestSeededDefects:
    def test_module_dict_write(self, monkeypatch, seed_cell):
        import repro.experiments.table1 as table1

        monkeypatch.setattr(table1, "_SEEN", {}, raising=False)

        def note(key):
            table1._SEEN[key] = True

        writes = cell_writes(seed_cell(note))
        # The second leg of a cell re-writes what the first wrote.
        first, _, third, _ = writes.values()
        assert first == third == ["repro.experiments.table1._SEEN"]

    def test_global_rebind(self, monkeypatch, seed_cell):
        import repro.experiments.table1 as table1

        monkeypatch.setattr(table1, "_LAST", None, raising=False)

        def rebind(key):
            table1._LAST = key

        writes = cell_writes(seed_cell(rebind))
        assert "repro.experiments.table1._LAST" in stray(writes)[
            f"{_SEEDED_ID}/campus/idle [plain]"]

    def test_class_attribute_left_set(self, monkeypatch, seed_cell):
        from repro.sim import Environment

        monkeypatch.setattr(Environment, "default_sanitize", False)

        def enable(key):
            Environment.default_sanitize = True

        writes = cell_writes(seed_cell(enable))
        # The first call writes; the rest find it already set.
        first, *rest = writes.values()
        assert first == ["repro.sim.environment.Environment.default_sanitize"]
        assert not any(rest)

    def test_class_attribute_toggled_by_each_cell(self, monkeypatch,
                                                  seed_cell):
        from repro.sim import Environment

        monkeypatch.setattr(Environment, "default_sanitize", False)

        def toggle(key):
            Environment.default_sanitize = not Environment.default_sanitize

        cells = seed_cell(toggle)
        before = fingerprint()
        writes = cell_writes(cells)
        # An even number of calls puts it back: one snapshot around the
        # whole pass sees nothing, a snapshot per call sees every write.
        assert len(writes) % 2 == 0
        assert changed(before, fingerprint()) == set()
        assert all(stray(writes)[label]
                   == ["repro.sim.environment.Environment.default_sanitize"]
                   for label in writes)
