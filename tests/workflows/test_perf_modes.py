"""Determinism of the driver, and fidelity as no input.

* **determinism** — the simulation breaks time ties by event id, so the
  same configuration always produces bit-identical results (this is
  what makes the run cache and the golden files sound);
* **fidelity is the code's decision** — whether the steady fast-forward
  engages is decided per run, so the ``fidelity`` keyword is accepted,
  ignored and kept out of the run key.  The exact reference every
  equivalence test compares against is a traced run (:func:`exact_run`).
"""

import pytest

from repro.core import runcache
from repro.workflows import RunSpec, run_coupled
from repro.workflows.trace import ActivityTrace

SCALAR_FIELDS = (
    "end_to_end", "sim_finish", "ana_finish", "put_time", "get_time",
    "bytes_staged", "failure", "server_memory_peaks", "fidelity",
)


def fresh_run(**kwargs):
    """A run that cannot be served from the in-process cache."""
    runcache.clear()
    return run_coupled(**kwargs)


def exact_run(**kwargs):
    """The exact reference: a traced run simulates every step and
    bypasses the run cache, so it shares no snapshot with any run."""
    return run_coupled(trace=ActivityTrace(), **kwargs)


def assert_identical(a, b, ignore=()):
    for field in SCALAR_FIELDS:
        if field in ignore:
            continue
        assert getattr(a, field) == getattr(b, field), field
    for field in ("sim_memory", "ana_memory", "server_memory"):
        if field in ignore:
            continue
        sa, sb = getattr(a, field), getattr(b, field)
        assert (sa is None) == (sb is None), field
        if sa is not None:
            assert sa.times == sb.times, field
            assert sa.values == sb.values, field


# ---------------------------------------------------------- determinism


class TestDeterminism:
    @pytest.mark.parametrize("method", [None, "dataspaces", "mpiio"])
    def test_same_config_bit_identical(self, method):
        kwargs = dict(machine="titan", method=method, nsim=32, nana=16)
        first = fresh_run(**kwargs)
        second = fresh_run(**kwargs)
        assert first is not second
        assert_identical(first, second)

    def test_across_machines_differ(self):
        titan = fresh_run(machine="titan", method="dataspaces", nsim=32, nana=16)
        cori = fresh_run(machine="cori", method="dataspaces", nsim=32, nana=16)
        assert titan.end_to_end != cori.end_to_end


# ------------------------------------------------ fidelity is no input


class TestFidelityRequests:
    def test_exact_default(self):
        result = fresh_run(machine="titan", method=None, nsim=32, nana=16)
        assert result.fidelity == "exact"

    def test_fidelity_is_not_an_input(self):
        # every spelling a caller may still send, valid or not, keys as
        # the run without it
        for fidelity in ("exact", "steady", "steady+clustered"):
            assert RunSpec.of().key == RunSpec.of(fidelity=fidelity).key
