"""The scan daemon: ``wape serve`` and its HTTP client.

A long-running process built on :class:`repro.api.Scanner`: the tool is
constructed (and its predictor trained) once, parsed state stays warm
between requests, and repeat scans of an edited project re-analyze only
the dirty include-closure.  Everything speaks JSON over local HTTP:

* :class:`~repro.service.server.ScanService` — the daemon's one front
  door (request queues, per-request timeouts, request ids,
  ``/metrics``, NDJSON streaming) in front of either one in-process
  scan worker or N forked worker processes (``wape serve --workers
  N``): consistent-hash sticky routing, per-worker backpressure and
  memory budgets, crash supervision with cold retry
  (:mod:`repro.service.fleet`);
* :class:`~repro.service.client.ServiceClient` — a thin stdlib client
  used by tests and by ``wape scan --server``-style embedders.

:mod:`repro.api` never imports this package; only front-ends that
actually serve or call HTTP pay for it.
"""

from repro.service.client import ServiceClient  # noqa: F401
from repro.service.server import ScanService  # noqa: F401

__all__ = ["ScanService", "ServiceClient"]
