"""``repro.serve`` — the long-running simulation service.

The batch tools (``repro study --jobs N``, ``repro chaos``) pay
interpreter + import start-up per campaign and share nothing across
invocations.  This package turns the simulator into a *service*: a
long-running asyncio daemon that keeps one
:class:`repro.exec.pool.WorkerPool` started (warm spawn workers,
per-point single-flight) over the shared run cache, serving many
concurrent clients.

* :mod:`.protocol` — the newline-delimited JSON wire format (framing,
  figure-id normalization, the pickle side-channel for rich payloads);
* :mod:`.daemon`   — :class:`ServeDaemon`, the asyncio server (unix
  socket and/or TCP) exposing submit / status / stream / cancel /
  stats / shutdown;
* :mod:`.client`   — :class:`ServeClient`, the blocking client the CLI
  and :class:`repro.core.study.Study(service=...) <repro.core.study.Study>`
  use, plus :class:`ServiceRunner`, the :func:`repro.exec.execute_parallel`
  backend that routes a whole campaign through a daemon.

``python -m repro serve`` starts a daemon; ``python -m repro submit``
talks to one.
"""

from .client import ServeClient, ServiceRunner
from .daemon import ServeDaemon

__all__ = [
    "ServeClient",
    "ServeDaemon",
    "ServiceRunner",
]
