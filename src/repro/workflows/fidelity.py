"""Which speed-up tiers a coupled run engages, decided before it runs.

A ``run_coupled`` request names a fidelity (``"exact"``, ``"clustered"``,
``"steady"`` or ``"steady+clustered"``); each requested reduction
engages only when its certificate proves the result bit-identical to
the exact run.  :func:`resolve_fidelity` makes that whole decision from
the resolved point and the freshly built (not yet bootstrapped) staging
library, and returns the engaged plans together with one ordered record
of why every other requested tier did not engage.

The record is a tuple of ``"<tier>: <reason>"`` strings, one entry per
requested tier that did not engage, in tier order:

* ``clustered`` — requested by ``"clustered"``/``"steady+clustered"``;
* ``steady`` — the periodic-orbit fast-forward, requested by
  ``"steady"``/``"steady+clustered"``;
* ``prefix`` — publishing a reusable steady-boundary snapshot (see
  :mod:`repro.core.forkpoint`).  A steady decline already explains the
  missing snapshot, so ``prefix`` only gets an entry when steady
  engaged and the snapshot still could not be published.

The driver appends the declines only a run can discover (an orbit that
never matched or diverged, a boundary capture refusal) and stores the
result in ``RunResult.fidelity_log``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..staging.base import ClusterPlan, SteadyPlan

CLUSTERED = ("clustered", "steady+clustered")
STEADY = ("steady", "steady+clustered")


@dataclass(frozen=True)
class FidelityDecision:
    """The engaged plans of one run and why the other tiers declined."""

    #: representative-group plan (None: every actor runs)
    plan: Optional[ClusterPlan] = None
    #: steady fast-forward certificate (None: no orbit is sought)
    steady: Optional[SteadyPlan] = None
    #: ``"<tier>: <reason>"`` for every requested tier that declined
    log: Tuple[str, ...] = ()


def resolve_fidelity(point, library, write_regions, read_regions,
                     traced: bool) -> FidelityDecision:
    """Decide the clustered and steady tiers of one run.

    ``point`` is the resolved ``run_coupled`` point (the dict behind the
    cache key); ``library`` is the built staging library, or None for a
    compute-only baseline.  Pure: the library's certificates are
    consulted but nothing is mutated.

    Traced runs need every actor and step; fault injection breaks
    symmetry and periodicity; a recovery policy can arm mid-run
    behaviour (e.g. DRC credential retries) the orbit fingerprint does
    not vouch for.
    """
    fidelity = point["fidelity"]
    fault_plan = point["fault_plan"]
    recovery = point["recovery"]
    log = []

    plan = None
    if fidelity in CLUSTERED:
        if traced:
            log.append("clustered: traced run records every actor")
        elif fault_plan is not None:
            log.append("clustered: fault injection breaks group symmetry")
        elif library is None:
            # Compute-only actors share nothing: one of each suffices.
            plan = ClusterPlan(sim_reps=1, ana_reps=1, server_reps=0, groups=1)
        else:
            plan = library.clustering_plan(write_regions, read_regions)
            if plan is None:
                log.append(
                    f"clustered: {library.name} actors do not split into "
                    "provably identical groups"
                )

    steady = None
    if fidelity in STEADY:
        if traced:
            log.append("steady: traced run records every step")
        elif fault_plan is not None:
            log.append("steady: fault injection breaks periodicity")
        elif recovery is not None:
            log.append("steady: recovery policy armed")
        elif library is None:
            # Compute-only actors fast-forward independently.
            steady = SteadyPlan(warmup=1)
        else:
            steady = library.steady_plan()
            if steady is None:
                log.append(
                    "steady: library holds aperiodic hidden state "
                    "(no certificate)"
                )
            elif point["steps"] < steady.warmup + 3:
                log.append(
                    f"steady: {point['steps']} steps leave no room past "
                    f"the {steady.warmup}-step warm-up"
                )
                steady = None

    return FidelityDecision(plan=plan, steady=steady, log=tuple(log))
