"""A scripted completions server that exposes what the transport does.

``respond(model, prompt, attempt)`` decides each answer and returns
``(status, payload)``; ``attempt`` counts earlier requests for the same
(model, prompt) pair. Every answer keeps the connection alive and leaves
in one write. The server counts accepted and closed connections and
requests, keeps each request's headers, logs each request as (model,
prompt, attempt) in arrival order, and records each model's peak of
concurrent requests. With ``idle_timeout`` set, it closes a kept-alive
connection that stays idle that long, as production servers do.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def completion(top_logprobs: dict) -> dict:
    """A completions body whose first token's top logprobs are ``top_logprobs``."""
    return {"choices": [{"logprobs": {"top_logprobs": [top_logprobs]}}]}


class _QuietServer(ThreadingHTTPServer):
    daemon_threads = True
    request_queue_size = 128

    def handle_error(self, request, client_address) -> None:
        # A client that timed out closes its socket while a handler still
        # sleeps; the late write then fails, which is expected here.
        pass


class StubServer:
    def __init__(self, respond, idle_timeout: float | None = None) -> None:
        self._respond = respond
        self._lock = threading.Lock()
        self._attempts: dict[tuple[str, str], int] = {}
        self.connections = 0
        self.closed = 0
        self.requests = 0
        self.headers: list[dict[str, str]] = []
        self.served: list[tuple[str, str, int]] = []
        self.inflight_peak: dict[str, int] = {}
        self._in_flight: dict[str, int] = {}
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True
            timeout = idle_timeout

            def log_message(self, fmt, *args) -> None:
                pass

            def setup(self) -> None:
                super().setup()
                with outer._lock:
                    outer.connections += 1

            def finish(self) -> None:
                super().finish()
                with outer._lock:
                    outer.closed += 1

            def do_POST(self) -> None:
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                key = (str(body["model"]), str(body["prompt"]))
                with outer._lock:
                    attempt = outer._attempts.get(key, 0)
                    outer._attempts[key] = attempt + 1
                    outer.requests += 1
                    outer.headers.append(dict(self.headers))
                    outer.served.append((*key, attempt))
                    in_flight = outer._in_flight[key[0]] = outer._in_flight.get(key[0], 0) + 1
                    outer.inflight_peak[key[0]] = max(outer.inflight_peak.get(key[0], 0), in_flight)
                try:
                    status, payload = outer._respond(*key, attempt)
                    data = json.dumps(payload).encode("utf-8")
                    head = (
                        f"HTTP/1.1 {status} X\r\nContent-Type: application/json\r\n"
                        f"Content-Length: {len(data)}\r\n\r\n"
                    ).encode("latin-1")
                    self.wfile.write(head + data)
                finally:
                    with outer._lock:
                        outer._in_flight[key[0]] -= 1

        self._server = _QuietServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1/completions"

    def __enter__(self) -> "StubServer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()
