"""Stdlib-only ops surface: /metrics, /health, /trace/<id>.

A daemon :class:`~http.server.ThreadingHTTPServer` that exposes the
process's registry and tracer while the main thread keeps ingesting —
the ``--metrics-port`` flag on ``repro-syslog listen`` and
``simulate``.  Endpoints:

- ``GET /metrics`` — Prometheus text exposition (v0.0.4).  The full
  wellknown schema is declared first so a scrape of a fresh process
  already carries every family, and the SLO tracker (when configured)
  is re-evaluated so burn gauges are current as of the scrape.
- ``GET /health`` — JSON liveness: ``{"status": "ok", "uptime_seconds",
  "traces"}``.
- ``GET /control`` — JSON control-plane summary (per-lever setpoints,
  ladder rung, shed-by-reason, feedforward prediction, per-tenant
  admission table), assembled from the wellknown metric families.
- ``GET /trace`` — JSON index of finished traces (id, hop count, span).
- ``GET /trace/<id>`` — the hop waterfall for one trace, as text.

Registry/tracer/SLO tracker resolve at *request* time when not pinned,
so a server started before ``use_registry`` swaps still serves the
active registry.  Binding to port 0 picks a free port; ``.port`` holds
the real one after :meth:`OpsServer.start`.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs import wellknown
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.propagation import render_waterfall
from repro.obs.slo import SloTracker
from repro.obs.trace import Tracer, default_tracer

__all__ = ["OpsServer"]


class _Handler(BaseHTTPRequestHandler):
    server: "_OpsHTTPServer"  # set by ThreadingHTTPServer plumbing

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # ops scrapes must not spam the listener's stdout

    def _send(self, status: int, content_type: str, body: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        ops = self.server.ops
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/metrics":
                self._send(
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    ops.render_metrics(),
                )
            elif path == "/health":
                self._send(200, "application/json", json.dumps({
                    "status": "ok",
                    "uptime_seconds": time.time() - ops.started_at,
                    "traces": len(ops.tracer.traces()),
                }))
            elif path == "/control":
                self._send(
                    200, "application/json",
                    json.dumps(ops.control_summary(), sort_keys=True),
                )
            elif path == "/trace":
                self._send(200, "application/json", json.dumps(ops.tracer.index()))
            elif path.startswith("/trace/"):
                trace_id = path[len("/trace/"):]
                body = ops.render_trace(trace_id)
                if body is None:
                    self._send(404, "text/plain", f"no trace {trace_id}\n")
                else:
                    self._send(200, "text/plain; charset=utf-8", body + "\n")
            else:
                self._send(404, "text/plain", f"no route {path}\n")
        except BrokenPipeError:
            pass


class _OpsHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    ops: "OpsServer"


class OpsServer:
    """The metrics/health/trace HTTP thread.

    ::

        ops = OpsServer(port=0, slo_tracker=SloTracker())
        ops.start()
        print(f"scrape http://127.0.0.1:{ops.port}/metrics")
        ...
        ops.stop()
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        slo_tracker: SloTracker | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self._registry = registry
        self._tracer = tracer
        self.slo_tracker = slo_tracker
        self.started_at = time.time()
        self._server: _OpsHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else default_registry()

    @property
    def tracer(self) -> Tracer:
        return self._tracer if self._tracer is not None else default_tracer()

    # -- request bodies (also used directly by tests/CLI) --------------

    def render_metrics(self) -> str:
        """The ``/metrics`` body: SLOs evaluated, full schema declared."""
        if self.slo_tracker is not None:
            self.slo_tracker.evaluate()
        registry = self.registry
        wellknown.declare_all(registry)
        return registry.to_prometheus()

    def control_summary(self) -> dict:
        """The ``/control`` body: the live control plane, from metrics.

        Everything here is read back out of the wellknown control and
        tenant families, so the endpoint works for any controlled
        process — ``simulate --control``, ``listen --control``, or a
        replayed snapshot — without a handle on the controller object:
        per-lever setpoints/actuations/flips, the brownout ladder rung,
        shed counts by reason, the feedforward prediction, and the
        per-tenant admission table.
        """
        registry = self.registry

        def rows(name: str) -> list[tuple[dict, float]]:
            fam = registry.get(name)
            if fam is None:
                return []
            return [(labels, child.value) for labels, child in fam.samples()]

        levers: dict[str, dict] = {}
        for labels, value in rows("repro_control_setpoint"):
            lever = labels.get("lever", "")
            levers.setdefault(lever, {})["setpoint"] = value
        for labels, value in rows("repro_control_actuations_total"):
            entry = levers.setdefault(labels.get("lever", ""), {})
            entry["actuations"] = entry.get("actuations", 0.0) + value
        for labels, value in rows("repro_control_flips_total"):
            levers.setdefault(labels.get("lever", ""), {})["flips"] = value
        for labels, value in rows("repro_control_feedforward_moves_total"):
            levers.setdefault(
                labels.get("lever", ""), {}
            )["feedforward_moves"] = value

        tenants: dict[str, dict] = {}
        for labels, value in rows("repro_ingest_tenant_received_total"):
            tenants.setdefault(labels.get("tenant", ""), {})["received"] = value
        for labels, value in rows("repro_ingest_tenant_accepted_total"):
            tenants.setdefault(labels.get("tenant", ""), {})["accepted"] = value
        for labels, value in rows("repro_ingest_tenant_shed_total"):
            entry = tenants.setdefault(labels.get("tenant", ""), {})
            shed = entry.setdefault("shed", {})
            reason = labels.get("reason", "")
            shed[reason] = shed.get(reason, 0.0) + value

        def scalar(name: str) -> float:
            total = 0.0
            for _labels, value in rows(name):
                total += value
            return total

        return {
            "ticks": scalar("repro_control_ticks_total"),
            "levers": levers,
            "brownout_level": scalar("repro_control_brownout_level"),
            "shed": {
                labels.get("reason", ""): value
                for labels, value in rows("repro_control_shed_total")
            },
            "feedforward_rate": scalar("repro_control_feedforward_rate"),
            "tenants": tenants,
            "tenants_active": scalar("repro_ingest_tenants_active"),
        }

    def render_trace(self, trace_id: str) -> str | None:
        """The ``/trace/<id>`` body: a hop waterfall, or None if unknown."""
        spans = self.tracer.traces().get(trace_id)
        if not spans:
            return None
        return render_waterfall(spans)

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "OpsServer":
        """Bind and serve on a daemon thread; resolves an ephemeral port."""
        server = _OpsHTTPServer((self.host, self.port), _Handler)
        server.ops = self
        self._server = server
        self.port = server.server_address[1]
        self.started_at = time.time()
        self._thread = threading.Thread(
            target=server.serve_forever, name="repro-ops-http", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and join the serving thread."""
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"
