"""The runtime sanitizer finds zero lifecycle leaks in every experiment.

Each registered experiment (quick mode, all of
``repro.runner.all_specs()``) is run inside a ``sanitize_all()``
audit scope: every :class:`~repro.sim.environment.Environment` any cell
builds gets a :class:`~repro.analysis.sanitizer.Sanitizer`, and at the
end we assert that no environment reports a pending non-daemon timer,
an orphaned queue entry, an unterminated non-daemon process, or an
unobserved failure.

These tests are the runtime complement of ``repro lint``: the linter
catches the hazard *patterns* statically, the sanitizer catches actual
leaked state at run exit.  Together they pin the daemon-marking contract
— grid service loops (MDS, LRMS, GRAM accept loops, console pumps) are
``daemon=True``, everything else must wind down.
"""

from __future__ import annotations

import pytest

from repro.analysis.sanitizer import LeakError, sanitize_all
from repro.runner import all_specs, run_experiment


@pytest.mark.parametrize("name", sorted(all_specs()))
def test_experiment_leaves_no_lifecycle_leaks(name):
    with sanitize_all() as audit:
        result = run_experiment(name, quick=True)
    assert result.experiment_id == name  # the experiment actually ran
    assert audit.environments > 0, "no environment was audited"
    audit.assert_clean()


def test_audit_scope_actually_detects_leaks():
    """Guard against a silently broken audit: a deliberate leak is caught."""
    from repro.sim import Environment

    with sanitize_all() as audit:
        env = Environment()
        assert env.sanitizer is not None

        def stuck():
            yield env.event()  # never fires

        env.process(stuck(), name="stuck")
        env.timer(name="leaky").arm(10.0)
        env.run(until=env.timeout(1.0))
    leaks = audit.leaks()
    kinds = {leak.kind for leak in leaks}
    assert "alive-process" in kinds
    assert "pending-timer" in kinds
    with pytest.raises(LeakError):
        audit.assert_clean()


def test_daemon_marks_are_exempt():
    from repro.sim import Environment

    with sanitize_all() as audit:
        env = Environment()

        def service():
            while True:
                yield env.timeout(5.0)

        env.process(service(), name="svc", daemon=True)
        env.timer(name="svc-timer", daemon=True).arm(100.0)
        env.run(until=env.timeout(1.0))
    audit.assert_clean()


def test_daemon_flag_is_inherited_by_children():
    """Children (processes and timers) of a daemon process are daemon."""
    from repro.sim import Environment

    with sanitize_all() as audit:
        env = Environment()
        spawned = []

        def child():
            while True:
                yield env.timeout(3.0)

        def root():
            spawned.append(env.process(child(), name="svc/helper"))
            t = env.timer(name="svc/t")
            t.arm(50.0)
            spawned.append(t)
            yield env.timeout(1000.0)

        env.process(root(), name="svc", daemon=True)
        env.run(until=env.timeout(1.0))
    assert all(obj.daemon for obj in spawned)
    audit.assert_clean()
