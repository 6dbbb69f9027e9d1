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
* ``batch`` — the whole-run compilation, requested whenever clustered
  is (see :mod:`repro.staging.batch`);
* ``steady`` — the periodic-orbit fast-forward, requested by
  ``"steady"``/``"steady+clustered"``;
* ``prefix`` — publishing a reusable steady-boundary snapshot (see
  :mod:`repro.core.forkpoint`).  A steady decline already explains the
  missing snapshot, so ``prefix`` only gets an entry when steady
  engaged and the snapshot still could not be published.

The driver appends the declines only a run can discover (a runtime
``BatchDecline``, an orbit that never matched or diverged, a boundary
capture refusal) and stores the result in ``RunResult.fidelity_log``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..staging.base import ClusterPlan, SteadyPlan
from ..staging.batch import BatchDecline, BatchPlan

CLUSTERED = ("clustered", "steady+clustered")
STEADY = ("steady", "steady+clustered")

#: the steady entry of a run whose batch compilation engaged
STEADY_SUPERSEDED = "steady: superseded by the batch-actor compilation"
#: what that entry becomes when ``batch_step`` then declines at runtime
STEADY_SKIPPED = (
    "steady: skipped for a batch compilation that then declined at runtime"
)


@dataclass(frozen=True)
class FidelityDecision:
    """The engaged plans of one run and why the other tiers declined."""

    #: representative-group plan (None: every actor runs)
    plan: Optional[ClusterPlan] = None
    #: whole-run compilation certificate (None: per-rank chains run)
    bplan: Optional[BatchPlan] = None
    #: steady fast-forward certificate (None: no orbit is sought)
    steady: Optional[SteadyPlan] = None
    #: ``"<tier>: <reason>"`` for every requested tier that declined
    log: Tuple[str, ...] = ()


def resolve_fidelity(point, library, write_regions, read_regions,
                     traced: bool) -> FidelityDecision:
    """Decide the clustered, batch and steady tiers of one run.

    ``point`` is the resolved ``run_coupled`` point (the dict behind the
    cache key); ``library`` is the built staging library, or None for a
    compute-only baseline.  Pure: the library's certificates are
    consulted but nothing is mutated.

    Traced runs need every actor, hop and step; fault injection breaks
    symmetry, rewires chains mid-run and breaks periodicity; a recovery
    policy can arm mid-run behaviour (e.g. DRC credential retries) that
    neither a compiled schedule nor the orbit fingerprint vouches for.
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

    bplan = None
    if fidelity in CLUSTERED:
        if traced:
            log.append("batch: traced run records every hop")
        elif fault_plan is not None:
            log.append("batch: fault injection mutates chains mid-run")
        elif recovery is not None:
            log.append("batch: recovery policy arms mid-run behaviour")
        elif library is None:
            log.append("batch: compute-only baseline has no chains to compile")
        elif plan is None and not library.batch_full_group:
            log.append("batch: clustered fidelity did not engage")
        else:
            if plan is None:
                # Contended-path libraries compile the trivial full-group
                # plan (every rank a representative) when the requested
                # clustering declined; ``plan`` itself stays None so the
                # run keeps its honest fidelity label.
                topo = library.topology
                target = ClusterPlan(
                    sim_reps=topo.sim_actors,
                    ana_reps=topo.ana_actors,
                    server_reps=topo.server_actors if library.has_servers else 0,
                    groups=1,
                )
            else:
                target = plan
            try:
                bplan = library.batch_plan(target, write_regions, read_regions)
            except BatchDecline as exc:
                log.append(str(exc))

    steady = None
    if fidelity in STEADY:
        if bplan is not None:
            # The compiled schedule replaces every step with closed-form
            # arithmetic: no step loop is left to fast-forward.
            log.append(STEADY_SUPERSEDED)
        elif traced:
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

    return FidelityDecision(plan=plan, bplan=bplan, steady=steady,
                            log=tuple(log))
