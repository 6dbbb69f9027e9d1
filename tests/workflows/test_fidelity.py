"""The fidelity resolver against exact simulation, on drawn configurations.

Every reduction a ``steady+clustered`` request can engage (clustered,
steady) must reproduce ``fidelity="exact"`` float for float, and every
requested tier that did not engage must say why with exactly one
``"<tier>: <reason>"`` entry in ``RunResult.fidelity_log``.  Hypothesis
draws the configurations; the hand-picked Figure 2 cells pin which
tiers engage, so a certificate that silently stops firing fails here.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.figures import FIG2_METHODS
from repro.sim.monitor import TimeSeries

from .test_perf_modes import fresh_run

#: fields that record how a result was computed, not what it computed
HOW = ("fidelity", "fidelity_log", "forked", "library")

TIERS = ("clustered", "steady", "prefix")

#: the tier every Figure 2 LAMMPS (32,16) ``steady+clustered`` cell
#: engages; the cells missing here run exact
FIG2_LABELS = {
    ("titan", "mpiio"): "steady",
    ("cori", "mpiio"): "steady",
    ("cori", "flexpath"): "steady",
    ("cori", "decaf"): "steady+clustered",
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
    scale=st.sampled_from([(4, 2), (4, 4), (8, 4), (16, 8), (32, 16)]),
    steps=st.integers(6, 12),
)
@settings(max_examples=25, derandomize=True, deadline=None)
def test_steady_clustered_matches_exact_or_logs_why(
    method, machine, scale, steps,
):
    nsim, nana = scale
    kwargs = dict(machine=machine, method=method, nsim=nsim, nana=nana,
                  steps=steps)
    exact = fresh_run(fidelity="exact", **kwargs)
    reduced = fresh_run(fidelity="steady+clustered", **kwargs)
    assert exact.fidelity_log == ()
    assert_same_physics(exact, reduced)

    log = reduced.fidelity_log
    assert all(entry.split(": ", 1)[0] in TIERS for entry in log), log
    label = set(reduced.fidelity.split("+"))
    for tier in ("clustered", "steady"):
        entries = [e for e in log if e.startswith(f"{tier}: ")]
        assert len(entries) <= 1, (tier, log)
        assert tier in label or len(entries) == 1, (tier, reduced.fidelity, log)
    prefix = [e for e in log if e.startswith("prefix: ")]
    assert len(prefix) <= 1, log
    assert not prefix or "steady" in label, log


@pytest.mark.parametrize("machine", ["titan", "cori"])
@pytest.mark.parametrize("method", FIG2_METHODS)
def test_fig2_cell_fidelity_labels(machine, method):
    result = fresh_run(machine=machine, method=method, workflow="lammps",
                       nsim=32, nana=16, steps=5,
                       fidelity="steady+clustered")
    assert result.fidelity == FIG2_LABELS.get((machine, method), "exact"), (
        result.fidelity_log
    )
