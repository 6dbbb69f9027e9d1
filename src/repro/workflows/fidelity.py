"""Which speed-up tiers a coupled run engages, decided before it runs.

Every run is offered the periodic-orbit fast-forward (``steady``); it
engages only when its certificate proves the result bit-identical to
simulating every step, and the run is exact otherwise.  No caller picks
the tier.  :func:`resolve_fidelity` makes that whole decision from the
run's :class:`~repro.workflows.driver.RunSpec` and the freshly built
(not yet bootstrapped) staging library, and returns the engaged
certificate together with one ordered record of why every tier that
did not engage declined.

The record is a tuple of ``"<tier>: <reason>"`` strings, one entry per
tier that did not engage, in tier order:

* ``steady`` — the periodic-orbit fast-forward.  Every run that ends
  exact carries exactly one ``steady:`` entry;
* ``prefix`` — publishing a reusable steady-boundary snapshot (see
  :mod:`repro.core.forkpoint`).  A steady decline already explains the
  missing snapshot, so ``prefix`` only gets an entry when steady
  engaged on a configuration the run cache cannot key (an ad-hoc
  spec), whose snapshot has nowhere to go.

The driver appends the declines only a run can discover (an orbit that
never matched, one that failed its replay-time verification and reran
exact, a run that failed first, and the ad-hoc-spec ``prefix`` entry)
and stores the result in ``RunResult.fidelity_log``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..staging.base import SteadyPlan


@dataclass(frozen=True)
class FidelityDecision:
    """The engaged certificate of one run and why the other tiers declined."""

    #: steady fast-forward certificate (None: no orbit is sought)
    steady: Optional[SteadyPlan] = None
    #: ``"<tier>: <reason>"`` for every tier that declined
    log: Tuple[str, ...] = ()


def resolve_fidelity(spec, library, traced: bool) -> FidelityDecision:
    """Decide the steady tier of one run.

    ``spec`` is the run's resolved ``RunSpec``; ``library`` is the
    built staging library, or None for a compute-only baseline.  Pure:
    the library's certificate is consulted but nothing is mutated.

    Traced runs need every step; fault injection breaks periodicity; a
    recovery policy can arm mid-run behaviour (e.g. DRC credential
    retries) the orbit fingerprint does not vouch for; a compute-only
    baseline has no staging library to certify an orbit, so it runs
    exact.
    """
    if traced:
        return FidelityDecision(log=("steady: traced run records every step",))
    if spec.fault_plan is not None:
        return FidelityDecision(
            log=("steady: fault injection breaks periodicity",)
        )
    if spec.recovery is not None:
        return FidelityDecision(log=("steady: recovery policy armed",))
    if library is None:
        return FidelityDecision(log=(
            "steady: compute-only baseline has no staging orbit to certify",
        ))
    steady = library.steady_plan()
    if steady is None:
        return FidelityDecision(log=(
            "steady: library holds aperiodic hidden state (no certificate)",
        ))
    if spec.steps < steady.warmup + 3:
        return FidelityDecision(log=(
            f"steady: {spec.steps} steps leave no room past "
            f"the {steady.warmup}-step warm-up",
        ))
    return FidelityDecision(steady=steady)
