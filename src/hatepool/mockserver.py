"""In-process HTTP server that replays scripted annotator responses.

Used by tests and demos to exercise the gateway without real model
endpoints. A script callable decides, per (model, prompt), either a
token-weight mapping to serve or an HTTP status code to fail with. The
server also records the concurrent-request high-water mark per model so
tests can assert in-flight caps.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Mapping

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


class MockAnnotatorServer:
    """Threaded completions-style endpoint bound to an ephemeral local port."""

    def __init__(self, script: Script | None = None, latency: float = 0.0) -> None:
        self._script = script or deterministic_weights
        self._latency = latency
        self._lock = threading.Lock()
        self._in_flight: dict[str, int] = {}
        self.max_in_flight: dict[str, int] = {}
        self.request_count = 0
        self._server: _Server | None = None
        self._thread: threading.Thread | None = None

    @property
    def base_url(self) -> str:
        if self._server is None:
            raise RuntimeError("server is not running")
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1/completions"

    def start(self) -> "MockAnnotatorServer":
        outer = self

        class Handler(BaseHTTPRequestHandler):
            # HTTP/1.0 would close the socket after every response, which
            # makes pooled client connections race the close and see resets.
            protocol_version = "HTTP/1.1"
            # Headers and body go out in separate writes; without TCP_NODELAY,
            # Nagle's algorithm holds the body until the client's delayed ACK
            # (about 40 ms per response).
            disable_nagle_algorithm = True

            def log_message(self, fmt, *args):  # keep test output quiet
                pass

            def do_POST(self) -> None:
                length = int(self.headers.get("Content-Length", 0))
                try:
                    body = json.loads(self.rfile.read(length))
                    model = str(body["model"])
                    prompt = str(body["prompt"])
                except (ValueError, KeyError):
                    self.send_error(400, "bad request body")
                    return
                with outer._lock:
                    outer.request_count += 1
                    outer._in_flight[model] = outer._in_flight.get(model, 0) + 1
                    outer.max_in_flight[model] = max(
                        outer.max_in_flight.get(model, 0), outer._in_flight[model]
                    )
                try:
                    if outer._latency > 0:
                        time.sleep(outer._latency)
                    outcome = outer._script(model, prompt)
                    if isinstance(outcome, int):
                        self.send_error(outcome, "scripted failure")
                        return
                    self._send_completion(model, outcome)
                finally:
                    with outer._lock:
                        outer._in_flight[model] -= 1

            def _send_completion(self, model: str, weights: Mapping[str, float]) -> None:
                top_logprobs = {tok: math.log(w) for tok, w in weights.items() if w > 0}
                best = max(top_logprobs, key=top_logprobs.get) if top_logprobs else ""
                payload = {
                    "id": "mock",
                    "object": "text_completion",
                    "model": model,
                    "choices": [
                        {
                            "text": best,
                            "index": 0,
                            "finish_reason": "length",
                            "logprobs": {
                                "tokens": [best],
                                "top_logprobs": [top_logprobs],
                            },
                        }
                    ],
                }
                data = json.dumps(payload).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

        self._server = _Server(("127.0.0.1", 0), Handler)
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

    def __enter__(self) -> "MockAnnotatorServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
