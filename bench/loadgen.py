"""Load generator for the `annotate` workload: four scripted model endpoints.

Run as its own process so the client under test never shares an
interpreter lock with it:

    python bench/loadgen.py --faults faults.json

It prints ``PORT <n>`` once listening on 127.0.0.1. Completions requests
sleep the fixed service time (``gen.SERVICE_S``) and answer with the bundled
``deterministic_weights``, except where the fault script says otherwise:
a permanent 400 for scripted (model, prompt) pairs, and a 503 on the
first attempt of scripted transient pairs. The fault script keys each
(model, prompt) pair by a hash under the workload seed (``gen.fault_key``).
Control routes:

- ``POST /_reset`` clears the attempt memory and the counters;
- ``GET /_stats`` returns per-model request, status, busy-time,
  in-flight-peak and first/last timestamps (``time.monotonic``);
- ``POST /_shutdown`` stops the server and ends the process.

Unlike the bundled ``MockAnnotatorServer``, every response leaves in one
send on a ``TCP_NODELAY`` socket. The bundled server flushes headers and
body in two sends, and Nagle's algorithm plus delayed ACKs then hold
each response for about 40 ms.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gen import SERVICE_S, FaultScript  # noqa: E402
from hatepool.mockserver import deterministic_weights  # noqa: E402


class Counters:
    """Per-model request accounting, guarded by one lock."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.attempts: dict[tuple[str, str], int] = {}
        self.models: dict[str, dict] = {}
        self.in_flight: dict[str, int] = {}

    def begin(self, model: str, prompt: str, now: float) -> int:
        with self.lock:
            key = (model, prompt)
            attempt = self.attempts.get(key, 0)
            self.attempts[key] = attempt + 1
            m = self.models.setdefault(model, {
                "requests": 0, "status": {}, "busy_s": 0.0, "inflight_peak": 0,
                "first_start": now, "last_end": now,
            })
            m["requests"] += 1
            self.in_flight[model] = self.in_flight.get(model, 0) + 1
            m["inflight_peak"] = max(m["inflight_peak"], self.in_flight[model])
            return attempt

    def end(self, model: str, status: int, started: float, now: float) -> None:
        with self.lock:
            m = self.models[model]
            self.in_flight[model] -= 1
            m["status"][str(status)] = m["status"].get(str(status), 0) + 1
            m["busy_s"] += now - started
            m["last_end"] = max(m["last_end"], now)


def make_handler(script: FaultScript, counters: Counters, server_box: list):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def log_message(self, fmt, *args):
            pass

        def _send(self, status: int, payload: dict) -> None:
            data = json.dumps(payload).encode("utf-8")
            reason = self.responses.get(status, ("",))[0]
            head = (
                f"HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\n\r\n"
            ).encode("latin-1")
            self.wfile.write(head + data)

        def do_GET(self) -> None:
            if self.path != "/_stats":
                self._send(404, {"error": "not found"})
                return
            with counters.lock:
                payload = json.loads(json.dumps(counters.models))
            self._send(200, payload)

        def do_POST(self) -> None:
            started = time.monotonic()
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/_reset":
                with counters.lock:
                    counters.reset()
                self._send(200, {"ok": True})
                return
            if self.path == "/_shutdown":
                self._send(200, {"ok": True})
                threading.Thread(target=server_box[0].shutdown, daemon=True).start()
                return
            request = json.loads(body)
            model, prompt = str(request["model"]), str(request["prompt"])
            attempt = counters.begin(model, prompt, started)
            time.sleep(SERVICE_S)
            status = script.outcome(model, prompt, attempt)
            if status != 200:
                payload = {"error": f"scripted failure {status}"}
            else:
                weights = deterministic_weights(model, prompt)
                top = {tok: math.log(w) for tok, w in weights.items() if w > 0}
                best = max(top, key=top.get)
                payload = {
                    "id": "loadgen", "object": "text_completion", "model": model,
                    "choices": [{"text": best, "index": 0, "finish_reason": "length",
                                 "logprobs": {"tokens": [best], "top_logprobs": [top]}}],
                }
            self._send(status, payload)
            counters.end(model, status, started, time.monotonic())

    return Handler


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--faults", required=True, help="fault script JSON written by gen.py")
    args = parser.parse_args()
    with open(args.faults, encoding="utf-8") as fp:
        script = FaultScript.from_dict(json.load(fp))
    counters = Counters()
    box: list = []
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(script, counters, box))
    server.daemon_threads = True
    box.append(server)
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
