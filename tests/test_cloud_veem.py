"""Integration tests for the VEEM: deployment, shutdown, migration."""

import pytest

from repro.cloud import (
    ComponentCap,
    DeploymentDescriptor,
    DiskImage,
    Host,
    HypervisorTimings,
    ImageRepository,
    LifecycleError,
    Placer,
    PlacementError,
    VEEM,
    VMState,
)
from repro.sim import Environment


TIMINGS = HypervisorTimings(define_s=2, boot_s=45, shutdown_s=10,
                            migrate_suspend_s=5)


def make_veem(env, n_hosts=2, bandwidth=100.0, **veem_kw):
    repo = ImageRepository(bandwidth_mb_per_s=bandwidth)
    repo.add("base", size_mb=1000)  # 10 s transfer at 100 MB/s
    veem = VEEM(env, repository=repo, **veem_kw)
    for i in range(n_hosts):
        veem.add_host(Host(env, f"h{i}", cpu_cores=4, memory_mb=8192,
                           timings=TIMINGS))
    return veem


def make_desc(component="exec", service="svc", networks=(), **kw):
    kw.setdefault("memory_mb", 1024)
    kw.setdefault("cpu", 1)
    return DeploymentDescriptor(
        name=kw.pop("name", component),
        disk_source="http://sm.internal/images/base",
        service_id=service, component_id=component,
        networks=tuple(networks), **kw,
    )


def test_submit_deploys_through_lifecycle():
    env = Environment()
    veem = make_veem(env)
    vm = veem.submit(make_desc())
    assert vm.state is VMState.PENDING
    env.run(until=vm.on_running)
    assert vm.state is VMState.RUNNING
    # 10 s staging + 2 s define + 45 s boot
    assert vm.provisioning_time == pytest.approx(57.0)
    assert vm.host is veem.hosts[0]


def test_provisioning_breakdown_matches_components():
    env = Environment()
    veem = make_veem(env, bandwidth=50.0)  # 20 s transfer
    vm = veem.submit(make_desc())
    env.run(until=vm.on_running)
    assert vm.time_in_state(VMState.STAGING) == pytest.approx(20.0)
    assert vm.time_in_state(VMState.BOOTING) == pytest.approx(47.0)


def test_submit_infeasible_fails_fast():
    env = Environment()
    veem = make_veem(env, n_hosts=1)
    with pytest.raises(PlacementError):
        veem.submit(make_desc(memory_mb=999999))


def test_capacity_reserved_at_submit_not_at_running():
    """Two submissions racing for the last slot: the second must fail at
    submit time, not silently oversubscribe."""
    env = Environment()
    veem = make_veem(env, n_hosts=1)
    veem.submit(make_desc(cpu=4, memory_mb=8192))
    with pytest.raises(PlacementError):
        veem.submit(make_desc())


def test_networks_leased_and_in_customisation():
    env = Environment()
    veem = make_veem(env)
    vm = veem.submit(make_desc(networks=["internal"],
                               customisation={"role": "exec"}))
    env.run(until=vm.on_running)
    assert "internal" in vm.ip_addresses
    props = vm.customisation_disk.properties
    assert props["role"] == "exec"
    assert props["ip.internal"] == vm.ip_addresses["internal"]


def test_shutdown_releases_capacity_and_leases():
    env = Environment()
    veem = make_veem(env, n_hosts=1)
    vm = veem.submit(make_desc(networks=["net"]))
    env.run(until=vm.on_running)
    host = vm.host
    cpu_before = host.cpu_free

    def do_shutdown(env):
        yield veem.shutdown(vm)

    env.process(do_shutdown(env))
    env.run()
    assert vm.state is VMState.STOPPED
    assert host.cpu_free == cpu_before + 1
    assert veem.networks.get("net").allocated == 0


def test_shutdown_takes_hypervisor_time():
    env = Environment()
    veem = make_veem(env)
    vm = veem.submit(make_desc())
    env.run(until=vm.on_running)
    t0 = env.now

    def do_shutdown(env):
        yield veem.shutdown(vm)

    env.process(do_shutdown(env))
    env.run(until=vm.on_stopped)
    assert env.now - t0 == pytest.approx(10.0)


def test_shutdown_non_running_raises():
    env = Environment()
    veem = make_veem(env)
    vm = veem.submit(make_desc())
    with pytest.raises(LifecycleError):
        veem.shutdown(vm)  # still PENDING


def test_migrate_moves_vm():
    env = Environment()
    veem = make_veem(env)
    vm = veem.submit(make_desc())
    env.run(until=vm.on_running)
    source, target = veem.hosts[0], veem.hosts[1]
    assert vm.host is source

    def do_migrate(env):
        yield veem.migrate(vm, target)

    env.process(do_migrate(env))
    env.run()
    assert vm.host is target
    assert vm.state is VMState.RUNNING
    assert source.vms == []
    # Migration cost: 1024 MB memory / 100 MB/s + 5 s suspend ≈ 15.24 s
    rec = veem.trace.last(kind="vm.migrated")
    assert rec is not None and rec.details["to_host"] == "h1"


def test_migrate_to_full_host_rejected():
    env = Environment()
    veem = make_veem(env)
    filler = veem.submit(make_desc(cpu=4, memory_mb=8192))
    vm = veem.submit(make_desc())
    env.run(until=env.all_of([filler.on_running, vm.on_running]))
    with pytest.raises(PlacementError):
        veem.migrate(vm, veem.hosts[0])


def test_migrate_foreign_host_rejected():
    env = Environment()
    veem = make_veem(env)
    vm = veem.submit(make_desc())
    env.run(until=vm.on_running)
    foreign = Host(env, "alien")
    with pytest.raises(PlacementError):
        veem.migrate(vm, foreign)


def test_reconfigure_running_vm():
    env = Environment()
    veem = make_veem(env)
    vm = veem.submit(make_desc(cpu=1, memory_mb=1024))
    env.run(until=vm.on_running)
    veem.reconfigure(vm, cpu=2, memory_mb=2048)
    assert vm.descriptor.cpu == 2
    rec = veem.trace.last(kind="vm.reconfigure")
    assert rec.details["cpu"] == 2


def test_reconfigure_non_running_raises():
    env = Environment()
    veem = make_veem(env)
    vm = veem.submit(make_desc())
    with pytest.raises(LifecycleError):
        veem.reconfigure(vm, cpu=2)


def test_active_and_running_filters():
    env = Environment()
    veem = make_veem(env)
    a = veem.submit(make_desc(component="exec"))
    b = veem.submit(make_desc(component="dbms"))
    assert len(veem.active_vms()) == 2
    assert veem.running_vms() == []
    env.run(until=env.all_of([a.on_running, b.on_running]))
    assert len(veem.running_vms(component_id="exec")) == 1
    assert len(veem.running_vms(service_id="svc")) == 2
    assert veem.running_vms(service_id="other") == []


def test_veem_table_tracks_submitted_fleet():
    env = Environment()
    veem = VEEM(env, repository=ImageRepository(bandwidth_mb_per_s=1000))
    veem.add_host(Host(env, "h0", cpu_cores=4, memory_mb=8192,
                       timings=HypervisorTimings(define_s=1, boot_s=10,
                                                 shutdown_s=2)))
    image = veem.repository.register(
        DiskImage("app-image", "img://app", size_mb=64))
    desc = DeploymentDescriptor(name="app", memory_mb=1024, cpu=1,
                                disk_source=image.href,
                                service_id="svc", component_id="app")
    vm = veem.submit(desc)
    assert veem.active_vm_count == 1
    env.run(until=60)
    assert vm.state is VMState.RUNNING
    assert veem.active_vms(service_id="svc") == [vm]
    assert veem.running_vms() == [vm]
    veem.shutdown(vm)
    env.run(until=120)
    assert vm.state is VMState.STOPPED
    assert veem.active_vm_count == 0


def test_active_vm_count_drops_once_per_failed_vm():
    """The live count falls in the same instant a VM fails, whether it
    was still deploying or running, and never twice for one VM."""
    env = Environment()
    veem = make_veem(env)
    vms = [veem.submit(make_desc(component=c))
           for c in ("exec", "dbms", "exec")]
    assert veem.active_vm_count == 3
    env.run(until=5)                            # all three staging
    assert veem.preempt(1) == [vms[2]]          # newest first
    assert veem.active_vm_count == 2
    env.run(until=env.all_of([vms[0].on_running, vms[1].on_running]))
    assert veem.active_vms(component_id="exec") == [vms[0]]
    veem.inject_vm_failure(vms[0])
    assert veem.active_vm_count == 1
    assert veem.active_vms() == [vms[1]]
    env.run(until=env.now + 100)
    assert veem.active_vm_count == len(veem.active_vms()) == 1


def test_placement_constraints_enforced_by_veem():
    env = Environment()
    repo = ImageRepository()
    repo.add("base", size_mb=100)
    veem = VEEM(env, repository=repo,
                placer=Placer(constraints=[ComponentCap("exec", 1)]))
    veem.add_host(Host(env, "h0", cpu_cores=8, memory_mb=16384))
    veem.submit(make_desc(component="exec"))
    with pytest.raises(PlacementError):
        veem.submit(make_desc(component="exec"))


def test_trace_records_full_lifecycle():
    env = Environment()
    veem = make_veem(env)
    vm = veem.submit(make_desc())
    env.run(until=vm.on_running)

    def do_shutdown(env):
        yield veem.shutdown(vm)

    env.process(do_shutdown(env))
    env.run()
    kinds = [r.kind for r in veem.trace.query()]
    assert kinds == ["vm.submit", "vm.running", "vm.shutdown.request",
                     "vm.stopped"]


def test_duplicate_host_name_rejected():
    env = Environment()
    veem = make_veem(env)
    with pytest.raises(ValueError):
        veem.add_host(Host(env, "h0"))


def test_image_caching_mode_amortises_staging():
    env = Environment()
    veem = make_veem(env, cache_images=True)
    vm1 = veem.submit(make_desc())
    env.run(until=vm1.on_running)
    vm2 = veem.submit(make_desc())  # lands on h0 again (first fit)
    t0 = env.now
    env.run(until=vm2.on_running)
    # Second deploy on the same host skips the 10 s image transfer.
    assert env.now - t0 == pytest.approx(47.0)


def test_suspend_and_resume_cycle():
    env = Environment()
    veem = make_veem(env)
    vm = veem.submit(make_desc())
    env.run(until=vm.on_running)
    host = vm.host
    cpu_when_running = host.cpu_free

    def cycle(env):
        yield veem.suspend(vm)
        assert vm.state is VMState.SUSPENDED
        # Reservation retained while suspended.
        assert host.cpu_free == cpu_when_running
        yield env.timeout(100)
        yield veem.resume(vm)

    t0 = env.now
    env.process(cycle(env))
    env.run()
    assert vm.state is VMState.RUNNING
    # suspend 5? timings: TIMINGS has no suspend/resume → defaults 8 + 6.
    assert env.now - t0 == pytest.approx(8 + 100 + 6)
    kinds = [r.kind for r in veem.trace.query()
             if "suspend" in r.kind or "resume" in r.kind]
    assert kinds == ["vm.suspend.request", "vm.suspended",
                     "vm.resume.request", "vm.resumed"]


def test_suspend_wrong_state_rejected():
    env = Environment()
    veem = make_veem(env)
    vm = veem.submit(make_desc())
    with pytest.raises(LifecycleError):
        veem.suspend(vm)  # still PENDING
    env.run(until=vm.on_running)
    with pytest.raises(LifecycleError):
        veem.resume(vm)  # not suspended


def test_suspended_vm_can_shut_down():
    env = Environment()
    veem = make_veem(env)
    vm = veem.submit(make_desc())
    env.run(until=vm.on_running)

    def run(env):
        yield veem.suspend(vm)
        vm.transition(VMState.SHUTTING_DOWN)
        yield env.timeout(1)
        vm.host.release(vm)
        vm.transition(VMState.STOPPED)

    env.process(run(env))
    env.run()
    assert vm.state is VMState.STOPPED


def test_resume_does_not_refire_on_running():
    env = Environment()
    veem = make_veem(env)
    vm = veem.submit(make_desc())
    env.run(until=vm.on_running)
    first_running_at = vm.running_at

    def cycle(env):
        yield veem.suspend(vm)
        yield veem.resume(vm)

    env.process(cycle(env))
    env.run()
    # on_running is a one-shot event; resuming must not try to re-fire it.
    assert vm.running_at == first_running_at
    assert vm.state is VMState.RUNNING
