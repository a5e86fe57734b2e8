"""``wape top``: a live terminal view of a running scan daemon.

Polls the daemon's ``/v1/status`` endpoint (:mod:`repro.service`) and
renders uptime, queue depth, one row per worker (pid, aliveness, queue
depth, scans/restarts/evictions and resident bytes — one row for the
in-process worker, N under ``wape serve --workers N``), in-flight
requests and the warm per-root state (files, findings, approximate
resident bytes).

::

    wape top                          # poll localhost:8711 every 2s
    wape top --port 9000 --interval 5
    wape top --once                   # one snapshot, no loop (scripting)

Stop with Ctrl-C.  ``--once`` prints a single snapshot and exits 0, or
exits 1 when the daemon is unreachable — cheap liveness probe for
scripts and tests.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.exceptions import ServiceError
from repro.service import ServiceClient


def _fmt_bytes(n) -> str:
    if not isinstance(n, (int, float)) or n < 0:
        return "?"
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024:
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024
    return f"{n:.1f}TiB"


def _fmt_uptime(seconds: float) -> str:
    seconds = int(seconds)
    hours, rest = divmod(seconds, 3600)
    minutes, secs = divmod(rest, 60)
    return f"{hours}:{minutes:02d}:{secs:02d}"


def render_status(status: dict) -> str:
    """One status snapshot as a fixed-width panel."""
    requests = status.get("requests") or {}
    lines = [
        f"wape daemon {status.get('version', '?')}  "
        f"uptime {_fmt_uptime(status.get('uptime_seconds', 0))}  "
        f"queue {status.get('queue_depth', 0)}/"
        f"{status.get('max_queue', '?')}  "
        f"served {requests.get('served', 0)}  "
        f"errors {requests.get('errors', 0)}  "
        f"timeouts {requests.get('timeouts', 0)}",
    ]
    workers = status.get("workers") or []
    if isinstance(workers, list) and workers:
        lines.append(f"workers ({len(workers)}):")
        lines.append(f"  {'id':>3} {'pid':>7} {'state':>5} {'queue':>5} "
                     f"{'scans':>6} {'resp.':>5} {'evict':>5} "
                     f"{'roots':>5} {'approx':>8}  current")
        for worker in workers:
            lines.append(
                f"  {worker.get('worker', '?'):>3} "
                f"{worker.get('pid', '?'):>7} "
                f"{'up' if worker.get('alive') else 'DOWN':>5} "
                f"{worker.get('queue_depth', 0):>5} "
                f"{worker.get('scans', 0):>6} "
                f"{worker.get('restarts', 0):>5} "
                f"{worker.get('evictions', 0):>5} "
                f"{worker.get('warm_roots', 0):>5} "
                f"{_fmt_bytes(worker.get('approx_bytes')):>8}  "
                f"{worker.get('current_request') or '-'}")
    in_flight = status.get("in_flight") or []
    if in_flight:
        lines.append("in flight:")
        for req in in_flight:
            flags = " TIMED-OUT" if req.get("timed_out") else ""
            where = f" w{req['worker']}" if "worker" in req else ""
            lines.append(f"  {req.get('request_id', '?'):<18} "
                         f"{req.get('elapsed_seconds', 0.0):>6.1f}s"
                         f"{where}  {req.get('root', '?')}{flags}")
    roots = status.get("roots") or []
    if roots:
        header = (f"  {'files':>6} {'results':>7} {'findings':>8} "
                  f"{'approx':>8}  root")
        lines.append(f"warm roots ({len(roots)}):")
        lines.append(header)
        for root in roots:
            lines.append(f"  {root.get('files', 0):>6} "
                         f"{root.get('results', 0):>7} "
                         f"{root.get('candidates', 0):>8} "
                         f"{_fmt_bytes(root.get('approx_bytes')):>8}  "
                         f"{root.get('root', '?')}")
    else:
        lines.append("warm roots: none")
    return "\n".join(lines)


def build_top_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wape top",
        description="live status view of a running wape scan daemon")
    parser.add_argument("--host", default="127.0.0.1",
                        help="daemon host (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8711,
                        help="daemon port (default: 8711)")
    parser.add_argument("--interval", type=float, default=2.0,
                        metavar="SECONDS",
                        help="refresh interval (default: 2s)")
    parser.add_argument("--once", action="store_true",
                        help="print one snapshot and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_top_parser().parse_args(
        list(sys.argv[1:] if argv is None else argv))
    client = ServiceClient(host=args.host, port=args.port)
    while True:
        try:
            status = client.status()
        except (ServiceError, OSError) as exc:
            print(f"wape top: daemon at {args.host}:{args.port} "
                  f"unreachable ({exc})", file=sys.stderr)
            return 1
        if not args.once:
            # ANSI clear + home keeps the panel in place between polls
            sys.stdout.write("\x1b[2J\x1b[H")
        print(render_status(status))
        if args.once:
            return 0
        sys.stdout.flush()
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
