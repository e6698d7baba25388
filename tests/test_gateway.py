import _thread
import collections
import gc
import hashlib
import http.client
import io
import itertools
import json
import math
import signal
import socket
import sys
import threading
import time
import urllib.parse
import warnings

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from hatepool import (
    DEFAULT_TEMPLATE_TEXT,
    AnnotatorEndpoint,
    MockAnnotatorServer,
    PromptTemplate,
    annotate_batch,
    read_annotations,
    render_prompt,
    write_annotations,
)
from hatepool.cli import main

from annotate_oracle import MALFORMED, replay
from conftest import MODEL_IDS
from stub_server import StubServer, completion


def endpoints_for(server, model_ids=MODEL_IDS, **overrides):
    kwargs = dict(max_in_flight=4, timeout=10.0, retry_limit=1, backoff_base=0.001)
    kwargs.update(overrides)
    return [AnnotatorEndpoint(model_id=m, base_url=server.base_url, **kwargs) for m in model_ids]


def expected_p_hate(model, prompt):
    """Independent replay of the default mock script's weight derivation."""
    digest = hashlib.sha256(f"{model}\x00{prompt}".encode("utf-8")).digest()
    u = int.from_bytes(digest[:8], "big") / 2**64
    w = 0.01 + 0.98 * u
    return w / (w + (1.0 - w))


class TestAnnotateBatch:
    def test_probabilities_match_scripted_weights(self):
        texts = [(f"t{i}", f"text number {i}") for i in range(20)]
        template = PromptTemplate()
        with MockAnnotatorServer() as server:
            results, quarantined = annotate_batch(texts, endpoints_for(server), template)
        assert quarantined == []
        assert [r.id for r in results] == [t[0] for t in texts]
        for (text_id, text), result in zip(texts, results):
            prompt = render_prompt(template, text)
            for entry in result.vector.entries:
                assert entry.p_hate == pytest.approx(
                    expected_p_hate(entry.model_id, prompt), abs=1e-9
                )

    def test_raw_weights_recorded_for_label_tokens(self):
        with MockAnnotatorServer() as server:
            results, _ = annotate_batch([("a", "hello")], endpoints_for(server))
        raw = results[0].raw_weights
        assert set(raw) == set(MODEL_IDS)
        for weights in raw.values():
            assert set(weights) == {"1", "2"}

    def test_in_flight_cap_respected(self):
        texts = [(f"t{i}", f"text {i}") for i in range(12)]
        with MockAnnotatorServer(latency=0.03) as server:
            results, quarantined = annotate_batch(
                texts, endpoints_for(server, max_in_flight=3)
            )
            highwater = dict(server.max_in_flight)
        assert quarantined == []
        assert len(results) == 12
        assert set(highwater) == set(MODEL_IDS)
        for model, peak in highwater.items():
            assert 1 <= peak <= 3, f"{model} exceeded its cap: {peak}"

    def test_transient_failures_retry_and_succeed(self):
        failures = {}
        lock = threading.Lock()

        def flaky(model, prompt):
            with lock:
                if not failures.get((model, prompt)):
                    failures[(model, prompt)] = True
                    return 500
            return {"1": 0.6, "2": 0.4}

        with MockAnnotatorServer(script=flaky) as server:
            results, quarantined = annotate_batch(
                [("a", "x"), ("b", "y")], endpoints_for(server, retry_limit=2)
            )
        assert quarantined == []
        for result in results:
            for entry in result.vector.entries:
                assert entry.p_hate == pytest.approx(0.6, abs=1e-9)

    def test_persistent_failure_quarantines_only_that_text(self):
        def selective(model, prompt):
            if model == "Mistral-7B" and "poison" in prompt:
                return 503
            return {"1": 0.5, "2": 0.5}

        texts = [("good1", "fine"), ("bad", "poison pill"), ("good2", "also fine")]
        with MockAnnotatorServer(script=selective) as server:
            results, quarantined = annotate_batch(texts, endpoints_for(server))
        assert [r.id for r in results] == ["good1", "good2"]
        assert [q.id for q in quarantined] == ["bad"]
        (failure,) = quarantined[0].failures
        assert failure.model_id == "Mistral-7B"
        assert failure.attempts == 2  # first try plus retry_limit=1
        assert "503" in failure.error

    def test_missing_label_tokens_fail_without_retry(self):
        calls = {}
        lock = threading.Lock()

        def no_labels(model, prompt):
            with lock:
                calls[model] = calls.get(model, 0) + 1
            return {"the": 0.7, "a": 0.3}

        with MockAnnotatorServer(script=no_labels) as server:
            results, quarantined = annotate_batch([("t", "x")], endpoints_for(server))
        assert results == []
        assert len(quarantined) == 1
        assert len(quarantined[0].failures) == 4
        assert all(f.attempts == 1 for f in quarantined[0].failures)
        assert all(n == 1 for n in calls.values())

    def test_unreachable_endpoint_quarantines(self):
        endpoints = [
            AnnotatorEndpoint(
                model_id=m,
                base_url="http://127.0.0.1:9/none",  # discard port, never open
                timeout=0.5,
                retry_limit=0,
                backoff_base=0.0,
            )
            for m in MODEL_IDS
        ]
        results, quarantined = annotate_batch([("t", "x")], endpoints)
        assert results == []
        assert [q.id for q in quarantined] == ["t"]

    def test_endpoint_count_and_uniqueness_enforced(self):
        with MockAnnotatorServer() as server:
            three = endpoints_for(server)[:3]
            with pytest.raises(ValueError):
                annotate_batch([("t", "x")], three)
            dupes = endpoints_for(server, model_ids=("m", "m", "n", "o"))
            with pytest.raises(ValueError):
                annotate_batch([("t", "x")], dupes)

    def test_duplicate_text_ids_rejected(self):
        with MockAnnotatorServer() as server:
            with pytest.raises(ValueError, match="duplicate text id"):
                annotate_batch([("t", "x"), ("t", "y")], endpoints_for(server))


class TestEndpointValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"model_id": ""},
            {"base_url": ""},
            {"max_in_flight": 0},
            {"timeout": 0},
            {"retry_limit": -1},
            {"logprobs_top_k": 0},
        ],
    )
    def test_bad_values(self, kwargs):
        base = dict(model_id="m", base_url="http://x/v1")
        base.update(kwargs)
        with pytest.raises(ValueError):
            AnnotatorEndpoint(**base)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown endpoint"):
            AnnotatorEndpoint.from_dict({"model_id": "m", "base_url": "u", "port": 1})

    @pytest.mark.parametrize(
        "url",
        [
            "htp://x/v1",
            "ftp://x/v1",
            "x/v1",
            "//x/v1",
            "http:///v1",
            "http://x:99999/v1",
            "http://x:port/v1",
            "http://[::1/v1",
        ],
    )
    def test_bad_base_url_is_a_config_error(self, url):
        with pytest.raises(ValueError, match="base_url"):
            AnnotatorEndpoint(model_id="m", base_url=url)
        with pytest.raises(ValueError, match="base_url"):
            AnnotatorEndpoint.from_dict({"model_id": "m", "base_url": url})

    @pytest.mark.parametrize(
        "url", ["http://x/v1", "https://x:8443/v1/completions?k=1", "http://127.0.0.1:9", "HTTP://X/"]
    )
    def test_good_base_url_accepted(self, url):
        assert AnnotatorEndpoint(model_id="m", base_url=url).base_url == url


class TestAnnotationWireFormat:
    def make_results(self):
        with MockAnnotatorServer() as server:
            results, _ = annotate_batch(
                [("a", "first text"), ("b", "second text")], endpoints_for(server)
            )
        return results

    def test_header_then_rows_roundtrip(self):
        results = self.make_results()
        buffer = io.StringIO()
        write_annotations(
            buffer,
            results,
            lang_by_id={"a": "eng", "b": "deu"},
            raw_label_by_id={"a": "Hate"},
        )
        buffer.seek(0)
        first_line = buffer.readline()
        assert first_line.startswith('{"model_order":')
        buffer.seek(0)
        model_order, rows = read_annotations(buffer)
        rows = list(rows)
        assert model_order == sorted(MODEL_IDS)
        assert [r.id for r in rows] == ["a", "b"]
        assert rows[0].lang == "eng"
        assert rows[0].raw_label == "Hate"
        assert rows[1].raw_label is None
        for original, row in zip(results, rows):
            assert row.vector.p_hate == pytest.approx(original.vector.p_hate, abs=1e-12)
            assert row.raw_weights.keys() == original.raw_weights.keys()

    def test_rows_read_back_are_written_with_the_same_bytes(self):
        # Without lang_by_id and raw_label_by_id, each row lost its lang and raw_label.
        buffer = io.StringIO()
        write_annotations(buffer, self.make_results(), lang_by_id={"a": "eng", "b": "deu"},
                          raw_label_by_id={"a": "Hate"})
        model_order, rows = read_annotations(io.StringIO(buffer.getvalue()))
        again = io.StringIO()
        write_annotations(again, list(rows), model_order=model_order)
        assert again.getvalue() == buffer.getvalue()

    def test_model_set_mismatch_detected(self):
        results = self.make_results()
        buffer = io.StringIO()
        write_annotations(buffer, results)
        tampered = buffer.getvalue().replace("Mistral-7B", "Other-1B", 1)
        _, rows = read_annotations(io.StringIO(tampered))
        with pytest.raises(ValueError, match="model set"):
            list(rows)

    def test_missing_header_detected(self):
        with pytest.raises(ValueError, match="model_order"):
            read_annotations(io.StringIO('{"id": "a", "models": {}}\n'))

    def test_empty_file_detected(self):
        with pytest.raises(ValueError, match="empty"):
            read_annotations(io.StringIO(""))

    def test_header_only_writes_with_explicit_order(self):
        buffer = io.StringIO()
        write_annotations(buffer, [], model_order=sorted(MODEL_IDS))
        model_order, rows = read_annotations(io.StringIO(buffer.getvalue()))
        assert model_order == sorted(MODEL_IDS)
        assert list(rows) == []


GOOD = completion({"1": math.log(0.6), "2": math.log(0.4)})


def answer_all(model, prompt, attempt):
    return 200, GOOD


@pytest.fixture
def connection_objects(monkeypatch):
    """The ``HTTPConnection`` objects the client builds while the test runs."""
    built = []

    class Counted(http.client.HTTPConnection):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(http.client, "HTTPConnection", Counted)
    return built


class TestKeepAliveTransport:
    def test_consecutive_requests_reuse_one_connection(self):
        texts = [(f"t{i}", f"text {i}") for i in range(10)]
        with StubServer(answer_all) as server:
            results, quarantined = annotate_batch(texts, endpoints_for(server, max_in_flight=1))
        assert quarantined == []
        assert len(results) == 10
        assert server.request_count == 40
        assert server.connections == 4  # one per endpoint worker, kept alive

    def test_connection_close_error_reconnects_without_spending_an_attempt(self):
        # The bundled server answers a scripted failure with
        # "Connection: close" and closes the socket.
        seen = set()
        lock = threading.Lock()

        def fail_first(model, prompt):
            with lock:
                first = (model, prompt) not in seen
                seen.add((model, prompt))
            return 500 if first else {"1": 0.6, "2": 0.4}

        sleeps = []
        texts = [(f"t{i}", f"text {i}") for i in range(5)]
        with MockAnnotatorServer(script=fail_first) as server:
            results, quarantined = annotate_batch(
                texts, endpoints_for(server, max_in_flight=1, retry_limit=1), sleep=sleeps.append
            )
            requests = server.request_count
        assert quarantined == []
        assert len(results) == 5
        assert requests == 2 * 5 * 4  # each 500 cost exactly one retry
        assert len(sleeps) == 5 * 4

    def test_server_closing_an_idle_connection_costs_no_retry(self, connection_objects):
        # The 503 keeps the connection alive; the client then backs off for
        # longer than the server keeps an idle connection open.
        def busy_once(model, prompt, attempt):
            return (503, {"error": "busy"}) if attempt == 0 else (200, GOOD)

        with StubServer(busy_once, idle_timeout=0.05) as server:
            results, quarantined = annotate_batch(
                [("a", "x")],
                endpoints_for(server, retry_limit=1),
                sleep=lambda seconds: time.sleep(0.4),
            )
        assert quarantined == []
        assert len(results) == 1
        assert server.request_count == 8  # the 503 and one retry per endpoint, none sent twice
        assert server.connections == 8  # each retry went out on a new connection
        assert len(connection_objects) == 4  # one per worker, reopened by http.client

    def test_timeout_is_transient_and_the_next_request_reconnects(self, connection_objects):
        def slow_once(model, prompt, attempt):
            if model == "Mistral-7B" and "slow" in prompt:
                time.sleep(0.5)
            return 200, GOOD

        texts = [("a", "slow text"), ("b", "quick text")]
        with StubServer(slow_once) as server:
            results, quarantined = annotate_batch(
                texts, endpoints_for(server, max_in_flight=1, timeout=0.2, retry_limit=0)
            )
        assert [r.id for r in results] == ["b"]
        assert [q.id for q in quarantined] == ["a"]
        (failure,) = quarantined[0].failures
        assert failure.model_id == "Mistral-7B"
        assert failure.error.startswith("request failed:")
        assert "timed out" in failure.error
        assert server.connections == 5  # Mistral-7B dropped the timed-out connection
        assert len(connection_objects) == 4  # one per worker, reopened by http.client

    def test_auth_token_is_sent_as_bearer(self):
        with StubServer(answer_all) as server:
            annotate_batch([("a", "x")], endpoints_for(server, auth_token="s3cret"))
            annotate_batch([("b", "y")], endpoints_for(server))
        tokens = [h.get("Authorization") for h in server.headers]
        assert sorted(tokens, key=str) == ["Bearer s3cret"] * 4 + [None] * 4


class TestRequestShape:
    def test_exact_request_line_headers_and_body(self):
        # Each of the four connections gets one request, read byte by byte
        # off the socket, and one answer that closes it.
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(10)
        answer = json.dumps(GOOD).encode("utf-8")
        requests = []

        def serve():
            for _ in MODEL_IDS:
                sock, _ = listener.accept()
                sock.settimeout(10)
                with sock, sock.makefile("rb") as fp:
                    request_line = fp.readline().decode("latin-1")
                    headers = {}
                    while (line := fp.readline()) not in (b"\r\n", b""):
                        name, _, value = line.decode("latin-1").partition(":")
                        headers[name.strip().lower()] = value.strip()
                    body = fp.read(int(headers["content-length"]))
                    requests.append((request_line, headers, json.loads(body)))
                    sock.sendall(
                        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                        + f"Content-Length: {len(answer)}\r\nConnection: close\r\n\r\n".encode()
                        + answer
                    )

        server = threading.Thread(target=serve)
        server.start()
        try:
            base_url = f"http://127.0.0.1:{listener.getsockname()[1]}/v1/completions?k=1"
            endpoints = [
                AnnotatorEndpoint(model_id=m, base_url=base_url, max_in_flight=1, timeout=10.0,
                                  retry_limit=0, logprobs_top_k=7)
                for m in MODEL_IDS
            ]
            results, quarantined = annotate_batch([("a", "some text")], endpoints)
        finally:
            server.join(timeout=15)
            listener.close()
        assert quarantined == [] and [r.id for r in results] == ["a"]
        prompt = render_prompt(PromptTemplate(), "some text")
        assert sorted(body["model"] for _, _, body in requests) == sorted(MODEL_IDS)
        for request_line, headers, body in requests:
            assert request_line == "POST /v1/completions?k=1 HTTP/1.1\r\n"
            assert headers["content-type"] == "application/json"
            assert "authorization" not in headers
            assert body == {"model": body["model"], "prompt": prompt, "max_tokens": 1, "logprobs": 7}


def raw_post(sock, model="Gemma2-9B", prompt="x"):
    """POST one completions request on ``sock``; the parsed response and its body."""
    body = json.dumps({"model": model, "prompt": prompt}).encode("utf-8")
    sock.sendall(
        b"POST /v1/completions HTTP/1.1\r\nHost: mock\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
        + body
    )
    response = http.client.HTTPResponse(sock)
    response.begin()
    return response, response.read()


class TestMockServerWire:
    def test_success_keeps_the_connection_alive(self):
        with MockAnnotatorServer() as server:
            url = urllib.parse.urlsplit(server.base_url)
            with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
                for prompt in ("first", "second"):
                    response, body = raw_post(sock, prompt=prompt)
                    assert response.status == 200
                    assert response.getheader("Content-Type") == "application/json"
                    assert response.getheader("Content-Length") == str(len(body))
                    assert not response.will_close
                    assert json.loads(body)["choices"][0]["logprobs"]["top_logprobs"]
            assert server.request_count == 2
            assert server.connections == 1

    def test_scripted_failure_answers_json_and_closes(self):
        with MockAnnotatorServer(script=lambda model, prompt: 503) as server:
            url = urllib.parse.urlsplit(server.base_url)
            with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
                response, body = raw_post(sock)
                assert response.status == 503
                assert response.getheader("Content-Type") == "application/json"
                assert response.getheader("Content-Length") == str(len(body))
                assert response.getheader("Connection") == "close"
                assert json.loads(body) == {"error": "scripted failure"}
                assert sock.recv(1) == b""  # the server closed its end


class TestMalformedCompletion:
    @pytest.mark.parametrize("logprob", [None, "abc", 1e6, math.nan, math.inf])
    def test_bad_logprob_quarantines_only_that_text(self, logprob):
        def respond(model, prompt, attempt):
            if model == "Qwen2.5-14B" and "poison" in prompt:
                return 200, completion({"1": logprob, "2": -0.5})
            return 200, GOOD

        texts = [("ok1", "fine"), ("bad", "poison"), ("ok2", "also fine")]
        with StubServer(respond) as server:
            results, quarantined = annotate_batch(texts, endpoints_for(server))
        assert [r.id for r in results] == ["ok1", "ok2"]
        assert [q.id for q in quarantined] == ["bad"]
        (failure,) = quarantined[0].failures
        assert failure.model_id == "Qwen2.5-14B"
        assert failure.attempts == 2  # retried like any transient failure
        assert failure.error.startswith("malformed completion response")

    def test_deeply_nested_body_quarantines_only_that_text(self):
        # The server core's json.dumps cannot encode this body, so a raw
        # listener answers every request, one per connection.
        deep = b"[" * 5000 + b"]" * 5000
        good = json.dumps(GOOD).encode("utf-8")
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(0.1)
        stop = threading.Event()

        def serve():
            while not stop.is_set():
                try:
                    sock, _ = listener.accept()
                except socket.timeout:
                    continue
                sock.settimeout(10)
                with sock, sock.makefile("rb") as fp:
                    fp.readline()
                    length = 0
                    while (line := fp.readline()) not in (b"\r\n", b""):
                        name, _, value = line.decode("latin-1").partition(":")
                        if name.strip().lower() == "content-length":
                            length = int(value)
                    body = json.loads(fp.read(length))
                    poisoned = body["model"] == "Mistral-7B" and "poison" in body["prompt"]
                    answer = deep if poisoned else good
                    sock.sendall(
                        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                        + f"Content-Length: {len(answer)}\r\nConnection: close\r\n\r\n".encode()
                        + answer
                    )

        server = threading.Thread(target=serve)
        server.start()
        try:
            base_url = f"http://127.0.0.1:{listener.getsockname()[1]}/v1/completions"
            endpoints = [
                AnnotatorEndpoint(model_id=m, base_url=base_url, max_in_flight=1, timeout=10.0,
                                  retry_limit=1, backoff_base=0.001)
                for m in MODEL_IDS
            ]
            texts = [("ok1", "fine"), ("bad", "poison"), ("ok2", "also fine")]
            results, quarantined = annotate_batch(texts, endpoints, sleep=lambda s: None)
        finally:
            stop.set()
            server.join(timeout=15)
            listener.close()
        assert [r.id for r in results] == ["ok1", "ok2"]
        assert [q.id for q in quarantined] == ["bad"]
        (failure,) = quarantined[0].failures
        assert failure.model_id == "Mistral-7B"
        assert failure.attempts == 2  # retried like any transient failure
        assert failure.error == "response is not JSON: nested too deeply"

    def test_nan_probability_is_a_malformed_response(self):
        # Finite logprobs whose pooled hate weight overflows to inf give
        # p_hate = inf / inf = nan.
        template = PromptTemplate(hate_aliases=(" 1",))

        def respond(model, prompt, attempt):
            if model == "Gemma2-9B":
                return 200, completion({"1": 709.7, " 1": 709.7, "2": 0.0})
            return 200, GOOD

        with StubServer(respond) as server:
            results, quarantined = annotate_batch([("t", "x")], endpoints_for(server), template)
        assert results == []
        (failure,) = quarantined[0].failures
        assert failure.model_id == "Gemma2-9B"
        assert failure.error.startswith("malformed completion response")

    @pytest.mark.parametrize("logprob", [None, "abc"])
    def test_cli_keeps_good_rows_and_exits_partial(self, tmp_path, logprob):
        def respond(model, prompt, attempt):
            if model == "Llama3.1-8B" and "poison" in prompt:
                return 200, completion({"1": logprob})
            return 200, GOOD

        texts = tmp_path / "texts.jsonl"
        texts.write_text(
            "".join(
                json.dumps({"id": i, "text": t}) + "\n"
                for i, t in (("ok1", "fine"), ("bad", "poison"), ("ok2", "also fine"))
            )
        )
        out = tmp_path / "ann.jsonl"
        with StubServer(respond) as server:
            config = tmp_path / "endpoints.json"
            config.write_text(
                json.dumps(
                    {
                        "endpoints": [
                            {"model_id": m, "base_url": server.base_url, "backoff_base": 0.001}
                            for m in MODEL_IDS
                        ]
                    }
                )
            )
            code = main(
                ["annotate", "--input", str(texts), "--output", str(out), "--endpoints", str(config)]
            )
        assert code == 3
        with open(out, encoding="utf-8") as fp:
            _, rows = read_annotations(fp)
            assert [r.id for r in rows] == ["ok1", "ok2"]
        with open(f"{out}.deadletter.jsonl", encoding="utf-8") as fp:
            dead = [json.loads(line) for line in fp]
        assert [d["id"] for d in dead] == ["bad"]
        assert dead[0]["errors"][0]["error"].startswith("malformed completion response")


def annotate_threads():
    return [t for t in threading.enumerate() if t.name.startswith("annotate-")]


@pytest.fixture
def python_handles_sigint():
    """Python's SIGINT handler, installed for the test.

    ``_thread.interrupt_main()`` does nothing while SIGINT is ignored, and a
    process started in the background by a shell without job control (``cmd &``
    in ``bash -c``) inherits SIGINT ignored.
    """
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    yield
    signal.signal(signal.SIGINT, previous)


class TestDispatch:
    def test_backing_off_retry_holds_no_slot(self):
        # Mistral-7B's only slot serves texts 1-3 while text 0 backs off; the
        # backoff ends once text 3 arrives, and the due retry then goes ahead
        # of the remaining fresh texts.
        texts = [(f"t{i}", f"text {i}") for i in range(8)]
        prompts = [render_prompt(PromptTemplate(), text) for _, text in texts]
        released = threading.Event()

        def respond(model, prompt, attempt):
            if model == "Mistral-7B" and prompt == prompts[0] and attempt == 0:
                return 503, {"error": "busy"}
            if model == "Mistral-7B" and prompt == prompts[3]:
                released.set()
                time.sleep(0.2)  # the retry is requeued before this answer leaves
            return 200, GOOD

        def sleep(seconds):
            if not released.wait(timeout=5):
                raise TimeoutError("texts 1-3 were not served while text 0 backed off")

        with StubServer(respond) as server:
            results, quarantined = annotate_batch(
                texts, endpoints_for(server, max_in_flight=1, retry_limit=1), sleep=sleep
            )
        assert quarantined == []
        assert [r.id for r in results] == [t[0] for t in texts]
        assert server.max_in_flight == {m: 1 for m in MODEL_IDS}
        order = [(prompts.index(p), a) for m, p, a in server.served if m == "Mistral-7B"]
        assert order == [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (4, 0), (5, 0), (6, 0), (7, 0)]

    def test_interrupt_stops_the_batch(self, python_handles_sigint):
        # Request k interrupts the main thread; it and every later request
        # answer slowly, so a client that keeps dispatching would send more.
        k = 40
        texts = [(f"t{i}", f"text {i}") for i in range(200)]
        flaky = {render_prompt(PromptTemplate(), text) for _, text in texts[:12]}
        arrived = itertools.count(1)
        log = []

        def respond(model, prompt, attempt):
            n = next(arrived)
            if n == k:
                log.append(f"request {k} arrived")
                _thread.interrupt_main()
                log.append("interrupt sent")
            time.sleep(0.3 if n >= k else 0.005)
            if model == "Gemma2-9B" and prompt in flaky and attempt == 0:
                return 503, {"error": "busy"}  # backoffs are pending at the interrupt
            return 200, GOOD

        with StubServer(respond) as server:
            endpoints = endpoints_for(server, max_in_flight=1, retry_limit=2, backoff_base=0.05)
            started = time.monotonic()
            with pytest.raises(KeyboardInterrupt):
                annotate_batch(texts, endpoints)
                pytest.fail(f"the batch ran to its end; {log or 'request k never arrived'}")
            elapsed = time.monotonic() - started
            requests = server.request_count
        assert k <= requests <= k + sum(ep.max_in_flight for ep in endpoints)
        assert annotate_threads() == []
        assert elapsed < 3.0

    @pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
    def test_no_thread_or_connection_outlives_the_batch(self, raises):
        def respond(model, prompt, attempt):
            if "text 2" in prompt and attempt == 0:
                return 503, {"error": "busy"}
            return 200, GOOD

        def settle(condition):
            deadline = time.monotonic() + 5
            while not condition() and time.monotonic() < deadline:
                time.sleep(0.01)
            return condition()

        def sleep(seconds):
            if raises:
                # Fail only once every model has connected; failing earlier
                # stops the batch before some worker has opened a connection.
                settle(lambda: {m for m, _, _ in server.served} == set(MODEL_IDS))
                raise RuntimeError("backoff failed")

        texts = [(f"t{i}", f"text {i}") for i in range(6)]
        baseline = threading.active_count()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with StubServer(respond) as server:
                endpoints = endpoints_for(server, max_in_flight=2, retry_limit=1)
                if raises:
                    with pytest.raises(RuntimeError, match="backoff failed"):
                        annotate_batch(texts, endpoints, sleep=sleep)
                else:
                    results, quarantined = annotate_batch(texts, endpoints, sleep=sleep)
                    assert len(results) == 6 and quarantined == []
                assert annotate_threads() == []
                assert settle(lambda: server.closed == server.connections)
                assert server.connections >= 4
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        assert settle(lambda: threading.active_count() == baseline)

    def test_stress_every_text_gets_exactly_its_requests(self):
        # Sixteen workers and their backoffs share four dispatchers under a
        # tiny switch interval; a lost update to a queue or to the count of
        # open texts would drop, repeat or strand a text.
        texts = [(f"t{i}", f"text {i}") for i in range(60)]
        prompts = [render_prompt(PromptTemplate(), text) for _, text in texts]
        flaky = set(prompts[::3])

        def respond(model, prompt, attempt):
            if prompt in flaky and attempt < 2:
                return 503, {"error": "busy"}
            return 200, GOOD

        outcome = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with StubServer(respond) as server:
                endpoints = endpoints_for(server, max_in_flight=4, retry_limit=2)
                runner = threading.Thread(
                    target=lambda: outcome.update(
                        batch=annotate_batch(texts, endpoints, sleep=lambda seconds: None)
                    )
                )
                runner.start()
                runner.join(timeout=60)
                assert not runner.is_alive()
        finally:
            sys.setswitchinterval(interval)
        results, quarantined = outcome["batch"]
        assert quarantined == []
        assert [r.id for r in results] == [t[0] for t in texts]
        served = collections.Counter((model, prompt) for model, prompt, _ in server.served)
        assert served == {(m, p): 3 if p in flaky else 1 for m in MODEL_IDS for p in prompts}
        assert all(peak <= 4 for peak in server.max_in_flight.values())


LOGPROBS = st.floats(-30.0, 0.0)
# One answer to one request. Most score the text, the rest cover each way an
# attempt can fail: no label token (final), an unreadable completion, and
# statuses 4xx and 5xx (all retried).
ANSWERS = st.one_of(
    st.builds(lambda h, n: (200, completion({"1": h, "2": n, " yes": -3.0})), LOGPROBS, LOGPROBS),
    st.builds(lambda w, token: (200, completion({token: w})), LOGPROBS, st.sampled_from("12")),
    st.one_of(
        st.just((200, completion({" yes": -0.5}))),
        st.sampled_from([(200, {}), (200, {"choices": []})]),
        st.sampled_from([400, 404, 429, 500, 503]).map(lambda status: (status, {"error": "x"})),
    ),
)


@st.composite
def scripted_batches(draw):
    """(texts, {model: (max_in_flight, retry_limit)}, {(model, text index): answers})."""
    n_texts = draw(st.integers(1, 30))
    limits = {m: (draw(st.integers(1, 4)), draw(st.integers(0, 3))) for m in MODEL_IDS}
    answers = {
        (m, i): draw(st.lists(ANSWERS, min_size=retries + 1, max_size=retries + 1))
        for m, (_, retries) in limits.items()
        for i in range(n_texts)
    }
    return [(f"t{i}", f"text {i}") for i in range(n_texts)], limits, answers


# No shrink phase: each example starts stub servers and a batch, so shrinking
# a failure took minutes; the unshrunk example is still reported.
@settings(max_examples=60, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink],
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(batch=scripted_batches())
def test_batch_equals_the_oracle_replay(batch):
    # Each dispatcher test above checks one fixed fault script; this one
    # derives the outcome of any script from a replay without threads.
    texts, limits, answers = batch
    index = {render_prompt(PromptTemplate(), text): i for i, (_, text) in enumerate(texts)}

    def respond(model, prompt, attempt):
        script = answers[model, index[prompt]]
        return script[attempt] if attempt < len(script) else (200, GOOD)

    with StubServer(respond) as server:
        endpoints = [AnnotatorEndpoint(model_id=m, base_url=server.base_url, max_in_flight=cap,
                                       retry_limit=retries, backoff_base=0.0)
                     for m, (cap, retries) in limits.items()]
        results, quarantined = annotate_batch(texts, endpoints, sleep=lambda seconds: None)
    rows, expected_quarantined, requests = replay(
        texts, {m: retries for m, (_, retries) in limits.items()}, respond, DEFAULT_TEMPLATE_TEXT)

    def cut(error):
        return MALFORMED if error.startswith(MALFORMED) else error

    assert [(r.id, [(e.model_id, e.p_hate, e.p_neutral, r.raw_weights[e.model_id])
                    for e in r.vector.entries]) for r in results] == rows
    assert [{**q, "errors": [{**e, "error": cut(e["error"])} for e in q["errors"]]}
            for q in (q.to_dict() for q in quarantined)] == expected_quarantined
    assert collections.Counter((m, p) for m, p, _ in server.served) == requests
    assert all(server.max_in_flight[m] <= cap for m, (cap, _) in limits.items())
