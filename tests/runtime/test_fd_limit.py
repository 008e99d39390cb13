"""The wire loop waits in select(2), which cannot watch a descriptor at or
past FD_SETSIZE (1024): a run that would register one fails, classified,
and closes what it opened."""

import gc
import os
import resource
import warnings

import pytest

from repro.core.timebase import seconds
from repro.experiments.common import build_salary_scenario
from repro.runtime import AsyncRuntime, WireRuntimeError

FD_SETSIZE = 1024


needs_fds_past_setsize = pytest.mark.skipif(
    resource.getrlimit(resource.RLIMIT_NOFILE)[0] < FD_SETSIZE + 64,
    reason="needs a soft RLIMIT_NOFILE above FD_SETSIZE",
)


@needs_fds_past_setsize
def test_run_past_fd_setsize_fails_classified_then_recovers():
    salary = build_salary_scenario(
        strategy_kind="propagation", seed=0, runtime=AsyncRuntime(time_scale=1000.0)
    )
    cm = salary.cm
    cm.scenario.sim.at(
        seconds(1), lambda: cm.spontaneous_write("salary1", ("e1",), 50_000.0)
    )
    held = [os.dup(0)]
    try:
        # Hold the lowest free descriptor past FD_SETSIZE: every socket the
        # run opens, the loop's own self-pipe first, is out of select's reach.
        while held[-1] < FD_SETSIZE:
            held.append(os.dup(held[0]))
        with pytest.raises(WireRuntimeError, match="FD_SETSIZE"):
            cm.run(until=seconds(30))
    finally:
        for fd in held:
            os.close(fd)
    # Nothing ran and nothing was left open: the same scenario runs now.
    cm.run(until=seconds(30))
    assert salary.hq_db.query("SELECT salary FROM employees") == [(50000.0,)]


@needs_fds_past_setsize
@pytest.mark.parametrize("free", [2, 3])
def test_a_socket_past_fd_setsize_mid_run_closes_the_run(free, caplog):
    """Only ``free`` descriptors below FD_SETSIZE: the loop's self-pipe
    takes two, so a site's endpoint crosses it after the session began."""
    salary = build_salary_scenario(
        strategy_kind="propagation", seed=0, runtime=AsyncRuntime(time_scale=1000.0)
    )
    cm = salary.cm
    cm.scenario.sim.at(
        seconds(1), lambda: cm.spontaneous_write("salary1", ("e1",), 50_000.0)
    )
    held = [os.dup(0)]
    try:
        while held[-1] < FD_SETSIZE - 1:
            held.append(os.dup(held[0]))
        for fd in held[:free]:
            os.close(fd)
        del held[:free]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(WireRuntimeError, match="FD_SETSIZE"):
                cm.run(until=seconds(30))
            gc.collect()
    finally:
        for fd in held:
            os.close(fd)
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert "Task was destroyed" not in caplog.text
    cm.run(until=seconds(30))
    assert salary.hq_db.query("SELECT salary FROM employees") == [(50000.0,)]
