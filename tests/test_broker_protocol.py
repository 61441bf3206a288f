"""BrokerProtocol conformance: one contract, three implementations.

Every broker mode must honour the same surface — ``submit`` /
``submit_and_wait`` / ``snapshot`` / ``drain`` with identical typed
parameters — produce deterministic placements under a fixed seed, and
wind down without leaking non-daemon processes or timers.  The suite
also pins the factory contract (``make_broker`` validates mode/config
pairings) and the deprecation path of the legacy world builders.
"""

from __future__ import annotations

import inspect

import pytest

from repro.analysis.sanitizer import sanitize_all
from repro.core import (
    BROKER_MODES,
    BrokerConfig,
    BrokerProtocol,
    CrossBroker,
    DataAwareBroker,
    DataBrokerConfig,
    PullBroker,
    PullBrokerConfig,
    ReplicaCatalog,
    SubmissionPath,
    make_broker,
)
from repro.jdl import JobDescription
from repro.scenario import Scenario, ScenarioHandle
from repro.workloads import cpu_bound_app, immediate_output_app

EXPECTED_CLASS = {"push": CrossBroker, "pull": PullBroker,
                  "data": DataAwareBroker}


def build(mode, sites=3, seed=7, **kwargs):
    return Scenario(sites=sites, scenario="europe", nodes_per_site=2,
                    seed=seed, broker_mode=mode, **kwargs).build()


def interactive_job(owner="alice", job_id=None, **extra):
    attrs = {
        "executable": "app",
        "jobtype": ["interactive", "sequential"],
        "machineaccess": "exclusive",
        "streamingmode": "fast",
    }
    attrs.update(extra)
    job = JobDescription.from_attributes(attrs, owner=owner)
    return job.clone(job_id=job_id) if job_id else job


def drain(handle):
    handle.run(until=handle.env.process(handle.broker.drain(),
                                        name="test/drain"))


# ---------------------------------------------------------------------------
# Protocol surface
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("mode", BROKER_MODES)
def test_broker_satisfies_protocol(mode):
    handle = build(mode)
    broker = handle.broker
    assert isinstance(broker, BrokerProtocol)
    assert isinstance(broker, EXPECTED_CLASS[mode])
    assert broker.mode == mode


@pytest.mark.parametrize("mode", BROKER_MODES)
def test_submit_and_wait_succeeds(mode):
    handle = build(mode)
    submitted = handle.submit(interactive_job(),
                              lambda r: immediate_output_app())
    handle.run(until=submitted.finished)
    report = submitted.report
    assert report.success
    assert report.sites, "a site was recorded"
    assert report.response_time is not None and report.response_time > 0
    if mode == "pull":
        assert report.path is SubmissionPath.PULLED
    else:
        assert report.path is SubmissionPath.INTERACTIVE_EXCLUSIVE
    drain(handle)


@pytest.mark.parametrize("mode", BROKER_MODES)
def test_snapshot_counts_finished_jobs(mode):
    handle = build(mode)
    submitted = handle.submit(interactive_job(),
                              lambda r: immediate_output_app())
    handle.run(until=submitted.finished)
    snap = handle.broker.snapshot([submitted])
    assert len(snap.jobs) == 1
    assert snap.jobs[0].stage == "done"
    assert snap.pending_tasks == 0
    assert snap.render()  # renders without error
    drain(handle)


@pytest.mark.parametrize("mode", BROKER_MODES)
def test_deterministic_placement_under_fixed_seed(mode):
    def run_once():
        handle = build(mode, sites=4, seed=21)
        subs = [handle.submit(interactive_job(owner=f"user{i % 2}",
                                              job_id=f"det-{i:02d}"),
                              lambda r: cpu_bound_app(5.0),
                              attach_console=False)
                for i in range(4)]
        for s in subs:
            handle.run(until=s.finished)
        drain(handle)
        return [(s.report.job_id, tuple(s.report.sites),
                 s.report.submitted_at, s.report.finished_at)
                for s in subs]

    assert run_once() == run_once()


@pytest.mark.parametrize("mode", BROKER_MODES)
def test_drain_is_sanitizer_clean(mode):
    with sanitize_all() as audit:
        handle = build(mode, sanitize=True)
        submitted = handle.submit(interactive_job(),
                                  lambda r: immediate_output_app())
        handle.run(until=submitted.finished)
        drain(handle)
    assert audit.environments > 0
    audit.assert_clean()


def _parameters(func):
    """``(name, kind, default)`` of every parameter after ``self``."""
    params = list(inspect.signature(func).parameters.values())[1:]
    return [(p.name, p.kind.name, p.default) for p in params]


PROTOCOL_METHODS = sorted(
    name for name, member in vars(BrokerProtocol).items()
    if inspect.isfunction(member) and not name.startswith("_"))


def test_protocol_surface_is_the_five_methods():
    assert PROTOCOL_METHODS == ["cancel", "drain", "snapshot", "submit",
                                "submit_and_wait"]


@pytest.mark.parametrize("method", PROTOCOL_METHODS)
@pytest.mark.parametrize("mode", BROKER_MODES)
def test_broker_signatures_match_protocol(mode, method):
    """``runtime_checkable`` only checks that the methods exist; this
    compares what a keyword or default-relying caller depends on:
    parameter names in order, their kinds, which carry defaults, and
    the default values."""
    broker_cls = type(build(mode).broker)
    assert (_parameters(getattr(broker_cls, method))
            == _parameters(getattr(BrokerProtocol, method)))


def test_handle_submit_signature_matches_protocol():
    """ScenarioHandle.submit mirrors BrokerProtocol.submit's typed params."""
    proto = inspect.signature(BrokerProtocol.submit)
    handle = inspect.signature(ScenarioHandle.submit)
    for name in ("ui_host", "attach_console", "daemon"):
        assert name in proto.parameters
        assert name in handle.parameters
        assert (proto.parameters[name].default
                == handle.parameters[name].default)


# ---------------------------------------------------------------------------
# Factory contract
# ---------------------------------------------------------------------------
def _world():
    handle = build("push")
    return handle.env, handle.network, handle.rng, handle.calibration


def test_make_broker_rejects_unknown_mode():
    env, net, rng, cal = _world()
    with pytest.raises(ValueError, match="broker_mode"):
        make_broker(env, net, rng, cal, mode="gossip")


def test_make_broker_rejects_mode_config_mismatch():
    env, net, rng, cal = _world()
    with pytest.raises(TypeError):
        make_broker(env, net, rng, cal, mode="push",
                    config=PullBrokerConfig())
    with pytest.raises(TypeError):
        make_broker(env, net, rng, cal, mode="pull",
                    config=DataBrokerConfig())
    with pytest.raises(TypeError):
        make_broker(env, net, rng, cal, mode="data", config=BrokerConfig())


def test_make_broker_accepts_matching_configs():
    env, net, rng, cal = _world()
    assert make_broker(env, net, rng, cal, mode="push",
                       config=BrokerConfig()).mode == "push"
    assert make_broker(env, net, rng, cal, mode="data",
                       config=DataBrokerConfig()).mode == "data"


def test_scenario_rejects_unknown_broker_mode():
    with pytest.raises(ValueError, match="broker_mode"):
        Scenario(sites=1, scenario="campus", broker_mode="gossip").build()


# ---------------------------------------------------------------------------
# Pull-mode specifics
# ---------------------------------------------------------------------------
def test_pull_rejects_shared_vm_and_multinode():
    handle = build("pull")
    shared = interactive_job(machineaccess="shared", performanceloss=10)
    submitted = handle.submit(shared, lambda r: immediate_output_app())
    handle.run(until=submitted.process)
    assert not submitted.report.success
    assert "push broker" in submitted.report.error

    multi = interactive_job(nodenumber=2, jobtype=["interactive",
                                                   "mpich-g2"])
    submitted = handle.submit(multi, lambda r: immediate_output_app())
    handle.run(until=submitted.process)
    assert not submitted.report.success
    drain(handle)


def test_pull_queues_when_grid_is_full():
    """No fail-fast: a task waits in the queue until capacity frees up."""
    handle = build("pull", sites=1, seed=5)
    blockers = [handle.submit(interactive_job(job_id=f"blk-{i}"),
                              lambda r: cpu_bound_app(120.0),
                              attach_console=False)
                for i in range(2)]  # 1 site x 2 nodes: grid now full
    for b in blockers:
        handle.run(until=b.started)
    queued = handle.submit(interactive_job(job_id="queued"),
                           lambda r: cpu_bound_app(1.0),
                           attach_console=False)
    # 60s later the job is still waiting (queued centrally or optimistically
    # claimed into the site's LRMS queue) — but it has NOT failed fast the
    # way the push broker's exclusive path does on a full grid.
    handle.run(until=handle.env.timeout(60.0))
    assert not queued.finished.triggered
    assert queued.report.error is None
    handle.run(until=queued.finished)
    assert queued.report.success
    assert queued.report.selection_time > 30.0  # the measured queue wait
    drain(handle)


# ---------------------------------------------------------------------------
# Data-aware specifics
# ---------------------------------------------------------------------------
def test_replica_catalog_nearest_and_estimates():
    handle = build("data", sites=3)
    catalog = handle.replicas
    names = sorted(handle.testbed.sites)
    catalog.register("lfn:x", names[0], 8_000_000)
    catalog.register("lfn:x", names[1], 8_000_000)
    assert "lfn:x" in catalog
    assert len(catalog.locations("lfn:x")) == 2
    # Local copy: zero transfer; the nearest pick is the local one.
    local = catalog.nearest("lfn:x", f"gk.{names[0]}")
    assert local.site == names[0]
    assert catalog.transfer_estimate("lfn:x", f"gk.{names[0]}") == 0.0
    assert catalog.transfer_estimate("lfn:x", f"gk.{names[2]}") > 0.0
    assert catalog.transfer_estimate("lfn:missing",
                                     f"gk.{names[0]}") == float("inf")


def test_data_broker_prefers_replica_site():
    handle = build("data", sites=4, seed=13)
    target = sorted(handle.testbed.sites)[0]
    handle.replicas.register("lfn:in", target, 50_000_000)
    job = interactive_job(inputdata=["lfn:in"])
    submitted = handle.submit(job, lambda r: immediate_output_app())
    handle.run(until=submitted.finished)
    assert submitted.report.success
    assert submitted.report.sites == [target]
    assert submitted.report.data_staging_time == 0.0  # local hit
    drain(handle)


def test_data_broker_deadline_gate_fails_impossible_job():
    handle = build("data", sites=2, seed=3)
    target = sorted(handle.testbed.sites)[0]
    handle.replicas.register("lfn:big", target, 10_000_000_000)
    # 1s deadline: no candidate can stage 10 GB + run in time.
    job = interactive_job(inputdata=["lfn:big"], deadline=1.0,
                          estimatedruntime=30.0)
    submitted = handle.submit(job, lambda r: immediate_output_app())
    handle.run(until=submitted.process)
    assert not submitted.report.success
    drain(handle)


def test_data_broker_budget_gate_respects_site_price():
    handle = build("data", sites=2, seed=3)
    # Every site advertises a price; a tiny budget rules them all out.
    for site in handle.testbed.sites.values():
        site.config.extra_attributes["CostPerCpuSecond"] = 2.0
    handle.publish_all_now()
    job = interactive_job(budget=0.5, estimatedruntime=30.0)
    submitted = handle.submit(job, lambda r: immediate_output_app())
    handle.run(until=submitted.process)
    assert not submitted.report.success
    drain(handle)


# ---------------------------------------------------------------------------
# One world-builder: the shims are gone, base_world is the bare primitive
# ---------------------------------------------------------------------------
def test_legacy_world_builders_warn_and_delegate():
    """Id kept from the shim era; what it pins now is their absence:
    Scenario alone names the uab/ifca worlds, and ``base_world`` is the
    undeprecated bare core (no sites, no warning)."""
    import warnings

    import repro.grid

    builders = {name for name in repro.grid.__all__
                if name.endswith(("_grid", "_world", "_testbed"))}
    assert builders == {"base_world", "europe_testbed"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=2, seed=1,
                      publish=False).build().testbed
        assert list(tb.sites) == ["uab"]
        tb = Scenario(sites=1, scenario="wan", nodes_per_site=2, seed=1,
                      publish=False).build().testbed
        assert list(tb.sites) == ["ifca"]
        tb = repro.grid.base_world(seed=1)
    assert tb.sites == {} and tb.index is not None


def test_scenario_builds_do_not_warn():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        build("push", sites=1)
