"""Crash path of the process-sharded harness.

A shard worker that raises mid-epoch must surface at the coordinator as a
:class:`~repro.sim.ShardError` naming the shard and carrying the remote
traceback (including the flight-recorder dump the worker wrote), and the
pool must be torn down with no worker left alive.
"""

import os
import re

import pytest

from repro.experiments.scale import WARMUP_S, ScaleConfig
from repro.experiments.scale_worker import ScaleShard, ShardSpec
from repro.sim import ShardError, ShardPool


class InjectedShardFault(RuntimeError):
    pass


def _raise_fault(_event):
    raise InjectedShardFault("shard 1 blew up mid-epoch")


def make_faulty_shard(spec: ShardSpec) -> ScaleShard:
    """Pool factory (module-level so ``spawn`` pickles it by reference):
    a real scale shard, with a failing event planted in shard 1 one
    simulated second into the first epoch."""
    shard = ScaleShard(spec)
    if spec.shard == 1:
        shard.env.timeout(1.0).callbacks.append(_raise_fault)
    return shard


def test_worker_crash_raises_shard_error_and_reaps_the_pool():
    cfg = ScaleConfig(sites=2, services=1, hours=0.25)
    specs = [ShardSpec(shard=index, cfg=cfg, site_names=(f"site-{index}",),
                       profiles=())
             for index in range(2)]
    pool = ShardPool(make_faulty_shard, specs)
    with pytest.raises(ShardError) as info:
        with pool:
            pool.epoch(WARMUP_S + cfg.epoch_s)

    error = info.value
    dump = re.search(r"flight recorder dumped to (\S+)",
                     error.remote_traceback)
    if dump and os.path.exists(dump.group(1)):
        os.remove(dump.group(1))
    assert error.shard == 1
    assert "InjectedShardFault: shard 1 blew up" in error.remote_traceback
    assert dump is not None          # ScaleShard._crash_dump ran
    assert not any(process.is_alive() for process in pool.processes)
