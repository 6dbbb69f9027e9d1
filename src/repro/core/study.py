"""The study orchestrator: rerun the paper's whole evaluation.

:class:`Study` reruns every figure and table and renders a report —
the reproduction's equivalent of the paper's Sections III and IV.
``python -m repro study`` runs it from the command line.

With ``jobs > 1`` the simulation points are first planned, deduplicated
and executed on the :mod:`repro.exec` worker pool; the figures then
replay serially against the warmed run cache, so the rendered tables
are byte-identical to a serial run at any job count.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, TextIO

from . import figures, runcache
from .conclusions import conclusions
from .configs import table1_build_configs, table2_workflows
from .findings import table5_findings
from .portability import table_portability
from .results import TableResult
from .robustness import table4_robustness
from .usability import table3_usability


class Study:
    """Reruns the paper's evaluation on the simulated substrate."""

    def __init__(
        self,
        full: bool = False,
        verify_findings: bool = False,
        cache_dir: Optional[str] = None,
        jobs: int = 1,
        report_path: Optional[str] = None,
        progress_stream: Optional[TextIO] = None,
        service: Optional[str] = None,
    ) -> None:
        self.full = full
        self.verify_findings = verify_findings
        self.results: Dict[str, TableResult] = {}
        self.cache_dir = cache_dir
        self.jobs = max(1, int(jobs))
        self.report_path = report_path
        self.progress_stream = progress_stream
        #: address of a running ``python -m repro serve`` daemon; when
        #: set, simulation points ride its warm pool and shared cache
        #: instead of a per-run spawn pool (see :mod:`repro.serve`)
        self.service = service
        #: the :class:`repro.exec.RunReport` of the last parallel run
        self.run_report = None
        if cache_dir:
            runcache.enable_disk(cache_dir)

    def experiments(self) -> Dict[str, Callable[[], TableResult]]:
        """Experiment id -> runner, in paper order."""
        return {
            "fig2a": lambda: figures.fig2_end_to_end("lammps", full=self.full),
            "fig2b": lambda: figures.fig2_end_to_end("laplace", full=self.full),
            "fig3": figures.fig3_problem_size,
            "fig4": figures.fig4_rdma_limits,
            "fig5": figures.fig5_memory_timeline,
            "fig6": figures.fig6_index_cost,
            "fig7": figures.fig7_memory_breakdown,
            "fig8": figures.fig8_layout_mapping,
            "fig9": figures.fig9_layout_impact,
            "fig10": figures.fig10_transport,
            "fig11": figures.fig11_decaf_servers,
            "fig12": figures.fig12_dataspaces_servers,
            "fig13": figures.fig13_shared_memory,
            # Beyond the paper: the SST streaming and pmem tier families
            "fig_sst": figures.fig_sst_streaming,
            "fig_pmem": figures.fig_pmem_tier,
            "table1": table1_build_configs,
            "table2": table2_workflows,
            "table3": table3_usability,
            "table4": table4_robustness,
            "table5": lambda: table5_findings(verify=self.verify_findings),
            "portability": table_portability,
            "conclusions": conclusions,
        }

    def select(
        self, only: Optional[List[str]] = None
    ) -> Dict[str, Callable[[], TableResult]]:
        """The experiments ``only`` names (all when None), in paper
        order; an unknown id is a ``ValueError``."""
        experiments = self.experiments()
        if only is not None:
            unknown = [ident for ident in only if ident not in experiments]
            if unknown:
                raise ValueError(
                    f"unknown experiment ids: {', '.join(unknown)} "
                    f"(see 'python -m repro list')"
                )
        return {
            ident: runner
            for ident, runner in experiments.items()
            if only is None or ident in only
        }

    def run(self, only: Optional[List[str]] = None) -> Dict[str, TableResult]:
        """Run all (or the selected) experiments; returns id -> result."""
        selected = self.select(only)
        if (self.jobs > 1 or self.service) and selected:
            from ..exec import execute_parallel

            self.run_report = execute_parallel(
                selected,
                jobs=self.jobs,
                cache_dir=self.cache_dir,
                report_path=self.report_path,
                progress_stream=self.progress_stream,
                service=self.service,
            )
        # Serial replay in canonical (paper) order: with jobs > 1 every
        # point is a cache hit, and the merge order — hence every
        # rendered byte — is the same as a serial run.
        for ident, runner in selected.items():
            self.results[ident] = runner()
        return self.results

    def report(self) -> str:
        """Render every collected result."""
        blocks = [result.render() for result in self.results.values()]
        return "\n\n".join(blocks)
