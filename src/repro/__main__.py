"""Command-line entry point: ``python -m repro``.

Subcommands:

* ``study [ids...] [--full] [--verify-findings] [--export DIR]
  [--cache DIR] [--jobs N] [--service ADDR] [--report PATH]`` — rerun
  the paper's evaluation (default: every figure and table); ``--jobs N``
  simulates the deduplicated work-plan on N worker processes,
  ``--service`` on a running daemon (tables stay byte-identical to a
  serial run);
* ``list`` — list available experiment ids;
* ``findings`` — verify the eight findings (plus the chaos-campaign
  robustness findings) and print the outcome;
* ``chaos [--seed S] [--service ADDR] [--export DIR] [--report PATH]``
  — run the fault-injection campaign and export ``chaos_matrix``,
  ``chaos_blast`` and ``chaos_matrix_ext`` (byte-identical whether its
  points run here or on a daemon; every faulted cell simulates cold);
* ``serve [--socket PATH] [--tcp HOST:PORT] [--jobs N] [--cache DIR]``
  — start the long-running simulation service: a warm spawn-worker
  pool plus a shared run cache behind a newline-JSON
  protocol (see :mod:`repro.serve`); stop with SIGINT/SIGTERM or
  ``repro submit --shutdown``;
* ``submit (--ping | --stats [--stats-out PATH] | --shutdown)`` —
  administer a running daemon.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .core.export import write_files
from .core.findings import FINDINGS
from .core.study import Study


def _cmd_list() -> int:
    study = Study()
    print("available experiments:")
    for ident in study.experiments():
        print(f"  {ident}")
    return 0


def _cmd_findings() -> int:
    from .core.findings import CHAOS_FINDINGS

    failures = 0
    for finding in FINDINGS + CHAOS_FINDINGS:
        ok = finding.verify() if finding.verify else None
        status = "n/a" if ok is None else ("ok" if ok else "FAILED")
        failures += status == "FAILED"
        print(f"Finding {finding.number}: {status}")
        print(f"  {finding.statement}")
    return 1 if failures else 0


def _cmd_study(
    ids: List[str], full: bool, verify: bool, export: Optional[str],
    cache: Optional[str] = None, jobs: int = 1,
    report_path: Optional[str] = None, service: Optional[str] = None,
) -> int:
    if export:
        os.makedirs(export, exist_ok=True)
    if report_path is None and (jobs > 1 or service) and export:
        # the run report lives next to the exported results by default
        report_path = os.path.join(export, "run_report.json")
    try:
        study = Study(
            full=full, verify_findings=verify, cache_dir=cache, jobs=jobs,
            report_path=report_path, service=service,
            progress_stream=sys.stderr if (jobs > 1 or service) else None,
        )
        study.run(only=ids or None)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    print(study.report())
    if study.run_report is not None:
        print(f"\n{study.run_report.summary()}")
        if report_path:
            print(f"run report written to {report_path}")
    if export:
        for ident, table in study.results.items():
            write_files(table, os.path.join(export, ident))
        print(f"\nexported {len(study.results)} tables to {export}/")
    return 0


def _cmd_chaos(
    seed: int, service: Optional[str], export: Optional[str],
    report_path: Optional[str] = None,
) -> int:
    from .chaos.campaign import campaign_experiments
    from .exec import build_tables

    if export:
        os.makedirs(export, exist_ok=True)
    if report_path is None and service and export:
        report_path = os.path.join(export, "chaos_run_report.json")
    tables, run_report = build_tables(
        campaign_experiments(seed), service=service, report_path=report_path,
        progress_stream=sys.stderr if service else None,
    )
    for table in tables.values():
        print(table.render())
        print()
    if run_report is not None:
        print(run_report.summary())
        if report_path:
            print(f"run report written to {report_path}")
    if export:
        for ident, table in tables.items():
            write_files(table, os.path.join(export, ident))
        print(f"exported {len(tables)} tables to {export}/")
    return 0


def _cmd_serve(args) -> int:
    from .serve.daemon import ServeDaemon
    from .serve.protocol import parse_address

    host = port = None
    if args.tcp:
        parts = parse_address(args.tcp)
        if "host" not in parts:
            print(f"error: --tcp wants HOST:PORT, got {args.tcp!r}")
            return 2
        host, port = parts["host"], parts["port"]
    jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    try:
        daemon = ServeDaemon(
            socket_path=args.socket, host=host, port=port, jobs=jobs,
            cache_dir=args.cache, drain_seconds=args.drain,
            recycle_after=args.recycle,
        )
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    where = []
    if args.socket:
        where.append(f"unix:{args.socket}")
    if host is not None:
        where.append(f"tcp:{host}:{port}")
    print(
        f"repro serve: {daemon.pool.effective} warm workers "
        f"({jobs} requested), listening on {', '.join(where)}",
        file=sys.stderr, flush=True,
    )
    daemon.run()
    print("repro serve: drained and stopped", file=sys.stderr, flush=True)
    return 0


def _cmd_submit(args) -> int:
    from .serve.client import ServeClient, ServeError
    from .serve.protocol import parse_address

    if args.tcp and "host" not in parse_address(args.tcp):
        print(f"error: --tcp wants HOST:PORT, got {args.tcp!r}")
        return 2
    try:
        with ServeClient(
            address=args.tcp or args.socket, timeout=args.timeout
        ).connect(retry_seconds=args.connect_retry) as client:
            if args.ping:
                reply = client.ping()
                print(f"pong (protocol {reply['pong']}, "
                      f"up {reply['uptime_seconds']:.1f}s)")
                return 0
            if args.shutdown:
                client.shutdown()
                print("daemon stopping")
                return 0
            stats = client.stats()
    except (ServeError, OSError) as exc:
        print(f"error: {exc}")
        return 1
    if args.stats_out:
        import json

        with open(args.stats_out, "w", encoding="utf-8") as fh:
            json.dump(stats, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"daemon stats written to {args.stats_out}")
    else:
        cache, jobs = stats["cache"], stats["jobs"]
        print(
            f"daemon up {stats['uptime_seconds']:.1f}s: "
            f"{jobs['completed']}/{jobs['submitted']} jobs "
            f"done ({jobs['coalesced']} coalesced), cache "
            f"{cache['hits']} hits / {cache['misses']} misses / "
            f"{cache['stores']} stores, pool "
            f"{stats['pool']['events_total']:,} events at "
            f"{stats['pool']['events_per_second_resident']:,.0f}"
            f" ev/s resident"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Rerun the ICDCS'20 in-memory-computing study "
                    "on the simulated substrate.",
    )
    sub = parser.add_subparsers(dest="command")

    study_p = sub.add_parser("study", help="run figures/tables")
    study_p.add_argument("ids", nargs="*",
                         help="experiment ids (default: all; see "
                              "'repro list')")
    study_p.add_argument("--full", action="store_true",
                         help="the paper's full processor range")
    study_p.add_argument("--verify-findings", action="store_true",
                         help="also run every finding's verifier in Table V")
    study_p.add_argument("--export", metavar="DIR",
                         help="write each table as CSV+JSON into DIR")
    study_p.add_argument("--cache", metavar="DIR",
                         help="persist run results under DIR and reuse "
                              "them on later invocations (shared by the "
                              "--jobs workers)")
    study_p.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                         help="simulate the deduplicated work-plan on N "
                              "worker processes, clamped to the host's "
                              "cpu count (default: 1, serial)")
    study_p.add_argument("--report", metavar="PATH", dest="report_path",
                         help="write the JSON run report here (default with "
                              "--jobs and --export: DIR/run_report.json)")
    study_p.add_argument("--service", metavar="ADDR",
                         help="run the simulation points on a running "
                              "'repro serve' daemon (unix socket path or "
                              "HOST:PORT) instead of a per-run spawn pool")

    sub.add_parser("list", help="list experiment ids")
    sub.add_parser("findings", help="verify the eight findings")

    chaos_p = sub.add_parser(
        "chaos", help="run the fault-injection campaign"
    )
    chaos_p.add_argument("--seed", type=int, default=7, metavar="S",
                         help="campaign seed: fixes every fault plan "
                              "(default: 7, the committed goldens)")
    chaos_p.add_argument("--service", metavar="ADDR",
                         help="run the campaign's points on a running "
                              "'repro serve' daemon (unix socket path or "
                              "HOST:PORT); tables stay byte-identical")
    chaos_p.add_argument("--export", metavar="DIR", default="results",
                         help="write chaos_matrix, chaos_blast and "
                              "chaos_matrix_ext as CSV+JSON into DIR "
                              "(default: results)")
    chaos_p.add_argument("--report", metavar="PATH", dest="report_path",
                         help="write the JSON run report here (default "
                              "with --service: DIR/chaos_run_report.json)")

    serve_p = sub.add_parser(
        "serve", help="start the long-running simulation service"
    )
    serve_p.add_argument("--socket", metavar="PATH",
                         default="repro-serve.sock",
                         help="unix socket to listen on "
                              "(default: repro-serve.sock)")
    serve_p.add_argument("--tcp", metavar="HOST:PORT",
                         help="also listen on a TCP endpoint (trusted "
                              "networks only: the protocol carries pickles)")
    serve_p.add_argument("--jobs", "-j", type=int, default=0, metavar="N",
                         help="warm workers to keep resident, clamped to "
                              "the host's cpu count (default: cpu count)")
    serve_p.add_argument("--cache", metavar="DIR",
                         help="persist run results under DIR so restarts "
                              "keep the cache warm")
    serve_p.add_argument("--drain", type=float, default=10.0, metavar="S",
                         help="seconds to wait for in-flight points on "
                              "shutdown before terminating workers "
                              "(default: 10)")
    serve_p.add_argument("--recycle", type=int, default=None, metavar="N",
                         help="recycle each worker after N tasks "
                              "(default: 256)")

    submit_p = sub.add_parser(
        "submit", help="administer a running 'repro serve' daemon"
    )
    submit_p.add_argument("--socket", metavar="PATH",
                          default="repro-serve.sock",
                          help="daemon unix socket "
                               "(default: repro-serve.sock)")
    submit_p.add_argument("--tcp", metavar="HOST:PORT",
                          help="connect over TCP instead of the socket")
    what = submit_p.add_mutually_exclusive_group(required=True)
    what.add_argument("--ping", action="store_true",
                      help="check the daemon is alive")
    what.add_argument("--stats", action="store_true",
                      help="print the daemon's cache/pool/job counters")
    what.add_argument("--shutdown", action="store_true",
                      help="ask the daemon to drain and stop")
    submit_p.add_argument("--stats-out", metavar="PATH",
                          help="with --stats: write the daemon's stats "
                               "as JSON to PATH instead")
    submit_p.add_argument("--timeout", type=float, default=600.0,
                          metavar="S",
                          help="socket timeout in seconds (default: 600)")
    submit_p.add_argument("--connect-retry", type=float, default=0.0,
                          metavar="S",
                          help="keep retrying the connection for S seconds "
                               "while the daemon boots (default: 0)")

    args = parser.parse_args(argv)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "list":
        return _cmd_list()
    if args.command == "findings":
        return _cmd_findings()
    if args.command == "chaos":
        return _cmd_chaos(args.seed, args.service, args.export,
                          args.report_path)
    if args.command == "study":
        return _cmd_study(args.ids, args.full, args.verify_findings,
                          args.export, args.cache, args.jobs,
                          args.report_path, args.service)
    parser.print_help()
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
