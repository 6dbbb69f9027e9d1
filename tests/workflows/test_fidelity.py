"""The fidelity resolver against exact simulation, on drawn configurations.

Every run is offered the steady fast-forward, and must reproduce the
exact reference (a traced run, which simulates every step) float for
float whether or not the fast-forward engages; every tier that did not
engage must say why with exactly one ``"<tier>: <reason>"`` entry in
``RunResult.fidelity_log``.  Hypothesis draws the configurations; the
hand-picked Figure 2 cells pin where steady engages, so a certificate
that silently stops firing fails here.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.figures import FIG2_METHODS
from repro.sim.monitor import TimeSeries
from repro.workflows.driver import MATCH_CHECKS

from .test_perf_modes import exact_run, fresh_run

#: fields that record how a result was computed, not what it computed
HOW = ("fidelity", "fidelity_log", "forked")

TIERS = ("steady", "prefix")

#: the tier every Figure 2 LAMMPS (32,16) cell engages; the cells
#: missing here run exact
FIG2_LABELS = {
    ("titan", "mpiio"): "steady",
    ("cori", "mpiio"): "steady",
    ("cori", "flexpath"): "steady",
    ("cori", "decaf"): "steady",
}


def assert_same_physics(a, b):
    for f in dataclasses.fields(a):
        if f.name in HOW:
            continue
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, TimeSeries) or isinstance(y, TimeSeries):
            assert (x is None) == (y is None), f.name
            if x is not None:
                assert list(x.times) == list(y.times), f.name
                assert list(x.values) == list(y.values), f.name
        elif isinstance(x, float) and isinstance(y, float):
            assert x == y or (math.isnan(x) and math.isnan(y)), (f.name, x, y)
        else:
            assert x == y, (f.name, x, y)


@given(
    method=st.sampled_from(
        [None, "dataspaces", "dimes", "mpiio", "flexpath", "decaf"]
    ),
    machine=st.sampled_from(["titan", "cori"]),
    workflow=st.sampled_from(["lammps", "laplace"]),
    scale=st.sampled_from([(4, 2), (4, 4), (8, 4), (16, 8), (32, 16)]),
    steps=st.integers(6, 12),
)
@settings(max_examples=25, derandomize=True, deadline=None)
def test_steady_matches_exact_or_logs_why(method, machine, workflow, scale,
                                          steps):
    nsim, nana = scale
    kwargs = dict(machine=machine, workflow=workflow, method=method,
                  nsim=nsim, nana=nana, steps=steps)
    exact = exact_run(**kwargs)
    reduced = fresh_run(**kwargs)
    assert exact.fidelity_log == ("steady: traced run records every step",)
    assert_same_physics(exact, reduced)

    log = reduced.fidelity_log
    assert all(entry.split(": ", 1)[0] in TIERS for entry in log), log
    assert reduced.fidelity in ("steady", "exact"), reduced.fidelity
    engaged = reduced.fidelity == "steady"
    steady = [e for e in log if e.startswith("steady: ")]
    assert len(steady) == (0 if engaged else 1), (reduced.fidelity, log)
    unmatched = "steady: no boundary pair matched ("
    assert all(e[len(unmatched):-1] in MATCH_CHECKS
               for e in steady if e.startswith(unmatched)), log
    prefix = [e for e in log if e.startswith("prefix: ")]
    assert len(prefix) <= 1, log
    assert not prefix or engaged, log


@pytest.mark.parametrize("machine", ["titan", "cori"])
@pytest.mark.parametrize("method", FIG2_METHODS)
def test_fig2_cell_fidelity_labels(machine, method):
    result = fresh_run(machine=machine, method=method, workflow="lammps",
                       nsim=32, nana=16, steps=5)
    assert result.fidelity == FIG2_LABELS.get((machine, method), "exact"), (
        result.fidelity_log
    )
