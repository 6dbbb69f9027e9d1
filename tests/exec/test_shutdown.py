"""Graceful SIGINT/SIGTERM shutdown of a live worker pool.

The pool installs signal handlers only on the main thread, so the
scenario runs in a real subprocess: start a pool on slow tasks, signal
it mid-run, and assert the drain contract — in-flight work finished,
:class:`~repro.exec.pool.PoolInterrupted` carried the partial outcomes
out, no spawn process was orphaned.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

CHILD = """
import sys

from repro.exec.plan import PlannedTask
from repro.exec.pool import PoolInterrupted, WorkerPool


def spec(n, nap):
    return dict(machine="titan", workflow="lammps", method=None,
                nsim=n, nana=max(1, n // 2), steps=1, __sleep__=nap)


def main():
    tasks = [
        PlannedTask(key=f"k{i}", spec=spec(2 + i, 1.0),
                    experiments=["t"], refs=1)
        for i in range(12)
    ]
    # batch_max=1 keeps at most one task in flight per worker, so the
    # signal always finds campaign left to cut short
    pool = WorkerPool(jobs=2, drain_seconds=20.0, batch_max=1)
    print("READY", flush=True)
    try:
        outcomes = pool.run(tasks)
    except PoolInterrupted as exc:
        done = sum(1 for o in exc.outcomes.values() if o.status == "ok")
        cancelled = sum(
            1 for o in exc.outcomes.values() if o.status == "cancelled"
        )
        print(f"INTERRUPTED signum={exc.signum} done={done} "
              f"cancelled={cancelled}", flush=True)
        return 0
    print(f"COMPLETED {len(outcomes)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
"""


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_signal_drains_inflight_then_interrupts(tmp_path, signum):
    script = tmp_path / "pool_child.py"
    script.write_text(CHILD)
    env = dict(os.environ, PYTHONPATH=SRC)
    child = subprocess.Popen(
        [sys.executable, str(script)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env,
    )
    try:
        assert child.stdout.readline().strip() == "READY"
        # let the workers spawn and pin a task in flight, then signal;
        # 12 x 1s of task sleep leaves plenty of campaign to cut short
        time.sleep(3.0)
        child.send_signal(signum)
        out, err = child.communicate(timeout=60)
    except BaseException:
        child.kill()
        child.communicate()
        raise
    assert child.returncode == 0, err
    marker = out.strip().splitlines()[-1]
    assert marker.startswith(f"INTERRUPTED signum={signum}"), out
    # the drain let in-flight tasks finish instead of killing them,
    # and stopped assigning new ones: some done, some never started
    fields = dict(
        part.split("=") for part in marker.split()[1:]
    )
    assert int(fields["done"]) >= 1
    assert int(fields["cancelled"]) >= 1
    # graceful means no orphans: the pool's spawn workers died with it
    time.sleep(0.5)
    assert child.poll() is not None
