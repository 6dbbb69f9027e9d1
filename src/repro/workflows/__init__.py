"""Coupled scientific workflows: LAMMPS+MSD, Laplace+MTA, synthetic."""

from .catalog import (
    LAMMPS,
    LAPLACE,
    SYNTHETIC,
    WORKFLOWS,
    WorkflowSpec,
    get_workflow,
    lammps_variable,
    laplace_variable,
    synthetic_variable,
)
from .driver import APP_INIT_SECONDS, RunResult, RunSpec, run_coupled

__all__ = [
    "APP_INIT_SECONDS",
    "LAMMPS",
    "LAPLACE",
    "RunResult",
    "RunSpec",
    "SYNTHETIC",
    "WORKFLOWS",
    "WorkflowSpec",
    "get_workflow",
    "lammps_variable",
    "laplace_variable",
    "run_coupled",
    "synthetic_variable",
]

from .trace import ActivityTrace, Interval  # noqa: E402

__all__ += ["ActivityTrace", "Interval"]
