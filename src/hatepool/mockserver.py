"""In-process HTTP servers that replay scripted completions answers.

:class:`CompletionsServer` is the core that tests and demos share. It counts
requests per (model, prompt), requests in all, accepted and closed
connections, and each model's peak of concurrent requests. Its ``answer``
hook decides each reply: a JSON body with ``Content-Length``, framed by
``http.server``, on a connection kept alive unless the hook closes it.
:class:`MockAnnotatorServer` answers from a script that maps (model, prompt)
to token weights or to an HTTP status code to fail with.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Mapping

ScriptOutcome = Mapping[str, float] | int
Script = Callable[[str, str], ScriptOutcome]


def deterministic_weights(model: str, prompt: str) -> dict[str, float]:
    """Default script: label-token weights derived from a hash of (model, prompt)."""
    digest = hashlib.sha256(f"{model}\x00{prompt}".encode("utf-8")).digest()
    u = int.from_bytes(digest[:8], "big") / 2**64
    w_hate = 0.01 + 0.98 * u
    return {"1": w_hate, "2": 1.0 - w_hate, "and": 0.25}


class _Server(ThreadingHTTPServer):
    # socketserver's listen backlog of 5 overflows when the worker threads of
    # four endpoints all connect at once, and the kernel may then reset some
    # of those connections.
    request_queue_size = 128

    def handle_error(self, request, client_address) -> None:
        # A client that timed out closes its socket while a handler still
        # sleeps; the late write then fails, which is expected here.
        pass


class _Handler(BaseHTTPRequestHandler):
    # HTTP/1.0 would close the socket after every response, which makes
    # pooled client connections race the close and see resets.
    protocol_version = "HTTP/1.1"
    # Head and body leave in two writes; TCP_NODELAY keeps the body off a delayed ACK.
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args) -> None:  # keep test output quiet
        pass

    def setup(self) -> None:
        self.owner = self.server.owner
        self.timeout = self.owner._idle_timeout
        super().setup()
        with self.owner._lock:
            self.owner.connections += 1

    def finish(self) -> None:
        super().finish()
        with self.owner._lock:
            self.owner.closed += 1

    def do_POST(self) -> None:
        owner = self.owner
        try:
            body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
            model, prompt = str(body["model"]), str(body["prompt"])
        except (ValueError, KeyError, TypeError):
            self._send(400, {"error": "bad request body"}, True)
            return
        with owner._lock:
            attempt = owner._attempts.get((model, prompt), 0)
            owner._attempts[model, prompt] = attempt + 1
            owner.request_count += 1
            in_flight = owner._in_flight[model] = owner._in_flight.get(model, 0) + 1
            owner.max_in_flight[model] = max(owner.max_in_flight.get(model, 0), in_flight)
        try:
            self._send(*owner.answer(model, prompt, attempt, self.headers))
        finally:
            with owner._lock:
                owner._in_flight[model] -= 1

    def _send(self, status: int, payload: Any, close: bool) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)


class CompletionsServer:
    """Threaded completions-style endpoint bound to an ephemeral local port.

    Subclasses implement ``answer``. With ``idle_timeout`` set, a kept-alive
    connection that stays idle that long is closed, as production servers do.
    """

    def __init__(self, idle_timeout: float | None = None) -> None:
        self._idle_timeout = idle_timeout
        self._lock = threading.Lock()
        self._attempts: dict[tuple[str, str], int] = {}
        self._in_flight: dict[str, int] = {}
        self.max_in_flight: dict[str, int] = {}
        self.request_count = 0
        self.connections = 0
        self.closed = 0
        self._server: _Server | None = None
        self._thread: threading.Thread | None = None

    def answer(self, model: str, prompt: str, attempt: int, headers) -> tuple[int, Any, bool]:
        """(status, JSON payload, close the connection after it) for one request.

        ``attempt`` counts earlier requests for the same (model, prompt).
        """
        raise NotImplementedError

    @property
    def base_url(self) -> str:
        if self._server is None:
            raise RuntimeError("server is not running")
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1/completions"

    def start(self) -> "CompletionsServer":
        self._server = _Server(("127.0.0.1", 0), _Handler)
        self._server.owner = self
        # Poll for shutdown every 0.05 s (default 0.5 s) so that stop() returns promptly.
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "CompletionsServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class MockAnnotatorServer(CompletionsServer):
    """Serves ``script(model, prompt)`` after ``latency`` seconds.

    A status code from the script is answered with ``Connection: close``, and
    the socket is then closed, as ``http.server``'s ``send_error`` does.
    """

    def __init__(self, script: Script | None = None, latency: float = 0.0) -> None:
        super().__init__()
        self._script = script or deterministic_weights
        self._latency = latency

    def answer(self, model: str, prompt: str, attempt: int, headers) -> tuple[int, Any, bool]:
        if self._latency > 0:
            time.sleep(self._latency)
        outcome = self._script(model, prompt)
        if isinstance(outcome, int):
            return outcome, {"error": "scripted failure"}, True
        top_logprobs = {tok: math.log(w) for tok, w in outcome.items() if w > 0}
        best = max(top_logprobs, key=top_logprobs.get) if top_logprobs else ""
        choice = {
            "text": best,
            "index": 0,
            "finish_reason": "length",
            "logprobs": {"tokens": [best], "top_logprobs": [top_logprobs]},
        }
        payload = {"id": "mock", "object": "text_completion", "model": model, "choices": [choice]}
        return 200, payload, False
