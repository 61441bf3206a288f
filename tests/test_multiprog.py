"""Unit/integration tests for glide-in agents and lightweight VMs."""

import pytest

from repro import Scenario
from repro.calibration import DEFAULT_CALIBRATION
from repro.grid import NoResourcesError
from repro.grid.workernode import MachineContext
from repro.multiprog import (
    AGENT_PORT,
    AgentRegistry,
    AgentRuntime,
    VmKind,
    VmSlot,
)


def boot_agent(tb, node, interactive_slots=1, registry=None):
    """Boot an AgentRuntime directly on a node (no GRAM path)."""
    runtime = AgentRuntime(tb.env, tb.network, tb.rng, node,
                           DEFAULT_CALIBRATION.middleware,
                           interactive_slots=interactive_slots)
    node.acquire(runtime.agent_id)
    tenant = node.cpu.attach(f"{runtime.agent_id}/daemon",
                             interactive=False, daemon=True)
    ctx = MachineContext(tb.env, node, tenant, tb.rng, runtime.agent_id)
    on_ready = None
    if registry is not None:
        on_ready = lambda rt: registry.register(rt, node.site)
    proc = tb.env.process(runtime.behavior(on_ready=on_ready)(ctx),
                          name="agent")
    return runtime, proc


def cpu_app(duration):
    def behavior(ctx):
        yield from ctx.cpu(duration)
        return duration
    return behavior


class TestVmSlot:
    def test_occupy_vacate(self):
        slot = VmSlot(VmKind.INTERACTIVE)
        slot.occupy("job1", 10.0)
        assert not slot.is_free
        assert slot.jobs_run == 1
        slot.vacate("job1")
        assert slot.is_free

    def test_double_occupy_rejected(self):
        slot = VmSlot(VmKind.BATCH)
        slot.occupy("a", 0.0)
        with pytest.raises(RuntimeError):
            slot.occupy("b", 1.0)

    def test_vacate_by_wrong_job_rejected(self):
        slot = VmSlot(VmKind.BATCH)
        slot.occupy("a", 0.0)
        with pytest.raises(RuntimeError):
            slot.vacate("b")


class TestAgentRuntime:
    def test_boot_creates_two_vms(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=30,
                      publish=False).build().testbed
        runtime, _ = boot_agent(tb, tb.site("uab").nodes[0])
        tb.env.run(until=runtime.ready)
        assert runtime.batch_free
        assert runtime.interactive_free
        assert runtime.is_alive
        assert runtime.server is not None

    def test_run_batch_then_interactive(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=31,
                      publish=False).build().testbed
        env = tb.env
        runtime, _ = boot_agent(tb, tb.site("uab").nodes[0])

        def driver():
            yield runtime.ready
            bt = yield from runtime.run_job("batch", cpu_app(100.0), False, 0)
            yield bt.started
            assert not runtime.batch_free
            it = yield from runtime.run_job("inter", cpu_app(2.0), True, 25)
            result = yield it.finished
            return (result, runtime.interactive_free)

        p = env.process(driver())
        env.run(until=p)
        result, free_again = p.value
        assert result == 2.0
        assert free_again

    def test_busy_slot_rejects_second_job(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=32,
                      publish=False).build().testbed
        env = tb.env
        runtime, _ = boot_agent(tb, tb.site("uab").nodes[0])

        def driver():
            yield runtime.ready
            t1 = yield from runtime.run_job("i1", cpu_app(50.0), True, 10)
            yield t1.started
            try:
                yield from runtime.run_job("i2", cpu_app(1.0), True, 10)
            except NoResourcesError:
                return "rejected"

        p = env.process(driver())
        env.run(until=p)
        assert p.value == "rejected"

    def test_extra_interactive_slots(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=33,
                      publish=False).build().testbed
        env = tb.env
        runtime, _ = boot_agent(tb, tb.site("uab").nodes[0],
                                interactive_slots=2)

        def driver():
            yield runtime.ready
            t1 = yield from runtime.run_job("i1", cpu_app(5.0), True, 10)
            t2 = yield from runtime.run_job("i2", cpu_app(5.0), True, 10)
            yield t1.finished & t2.finished
            return env.now

        p = env.process(driver())
        env.run(until=p)
        # Two tenants time-share: ~2x stretch of the 5 s work.
        assert p.value > 9.0

    def test_agent_leaves_after_batch_completes(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=34,
                      publish=False).build().testbed
        env = tb.env
        node = tb.site("uab").nodes[0]
        runtime, proc = boot_agent(tb, node)

        def driver():
            yield runtime.ready
            bt = yield from runtime.run_job("batch", cpu_app(3.0), False, 0)
            yield bt.finished
            yield proc  # agent behavior returns after leave
            return proc.value

        p = env.process(driver())
        env.run(until=p)
        assert p.value == "left"
        assert runtime.leave.triggered
        assert not runtime.is_alive

    def test_agent_waits_for_interactive_before_leaving(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=35,
                      publish=False).build().testbed
        env = tb.env
        runtime, proc = boot_agent(tb, tb.site("uab").nodes[0])

        def driver():
            yield runtime.ready
            bt = yield from runtime.run_job("batch", cpu_app(2.0), False, 0)
            it = yield from runtime.run_job("inter", cpu_app(10.0), True, 10)
            yield bt.finished
            assert not runtime.leave.triggered  # interactive still running
            yield it.finished
            yield proc
            return env.now

        p = env.process(driver())
        env.run(until=p)
        assert runtime.leave.triggered

    def test_kill_marks_dead(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=36,
                      publish=False).build().testbed
        env = tb.env
        runtime, proc = boot_agent(tb, tb.site("uab").nodes[0])
        env.run(until=runtime.ready)
        runtime.kill("node crashed")
        env.run(until=proc)
        assert proc.value == "dead:node crashed"
        assert not runtime.is_alive

    def test_interactive_slots_validation(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=37,
                      publish=False).build().testbed
        with pytest.raises(ValueError):
            AgentRuntime(tb.env, tb.network, tb.rng,
                         tb.site("uab").nodes[0],
                         DEFAULT_CALIBRATION.middleware,
                         interactive_slots=0)

    def test_rpc_dispatch_path(self):
        from repro.net import RpcClient

        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=38,
                      publish=False).build().testbed
        env = tb.env
        node = tb.site("uab").nodes[0]
        runtime, _ = boot_agent(tb, node)

        def driver():
            yield runtime.ready
            rpc = RpcClient(tb.network, "broker", node.name, AGENT_PORT)
            yield from rpc.connect()
            name = yield from rpc.call("agent.ping")
            ticket = yield from rpc.call("agent.run_job", "j", cpu_app(1.0),
                                         True, 10)
            result = yield ticket.finished
            yield from rpc.close()
            return (name, result)

        p = env.process(driver())
        env.run(until=p)
        assert p.value == (runtime.agent_id, 1.0)


class TestAgentRegistry:
    def test_register_and_query(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=2, seed=39,
                      publish=False).build().testbed
        env = tb.env
        registry = AgentRegistry(env)
        site = tb.site("uab")
        r1, _ = boot_agent(tb, site.nodes[0], registry=registry)
        r2, _ = boot_agent(tb, site.nodes[1], registry=registry)
        env.run(until=r1.ready & r2.ready)
        env.run(until=env.now + 0.1)
        assert len(registry) == 2
        assert len(registry.free_interactive()) == 2
        assert len(registry.free_interactive(site="uab")) == 2
        assert registry.free_interactive(site="elsewhere") == []

    def test_left_agents_removed(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=40,
                      publish=False).build().testbed
        env = tb.env
        registry = AgentRegistry(env)
        runtime, proc = boot_agent(tb, tb.site("uab").nodes[0],
                                   registry=registry)

        def driver():
            yield runtime.ready
            bt = yield from runtime.run_job("b", cpu_app(1.0), False, 0)
            yield bt.finished
            yield proc
            yield env.timeout(0.1)
            return len(registry)

        p = env.process(driver())
        env.run(until=p)
        assert p.value == 0

    def test_dead_agents_recorded(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=41,
                      publish=False).build().testbed
        env = tb.env
        registry = AgentRegistry(env)
        runtime, _ = boot_agent(tb, tb.site("uab").nodes[0],
                                registry=registry)
        env.run(until=runtime.ready)
        runtime.kill("lrms eviction")
        env.run(until=env.now + 1)
        assert registry.deaths == [runtime.agent_id]
        assert len(registry) == 0
