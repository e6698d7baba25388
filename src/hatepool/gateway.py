"""Concurrent fan-out of annotation prompts to four model endpoints.

Each endpoint has its own dispatcher, served by ``max_in_flight``
long-lived worker threads, so one slow model never throttles the others.
Requests use the completions wire shape: one generated token with top-k
logprobs, from which the two label-token weights are read.

Each worker holds one client for its endpoint, and the client makes
every attempt the worker sends: it builds the request, posts it, checks
the status and reads the two label-token weights from the response. A
worker makes one attempt at a time. It takes a retry whose backoff has
elapsed ahead of the next fresh text, and fresh texts in input order.
A failed attempt worth retrying gives up its slot: its exponential
backoff with jitter runs on the batch's backoff pool, which holds no slot
and requeues the retry when it is due. Every non-200 status is retried
this way, permanent 4xx included. Texts that still fail on any endpoint
are quarantined instead of aborting the batch. A batch runs at most
``max_in_flight`` workers per endpoint plus as many backoff threads as
all the endpoints' ``max_in_flight`` together, however many texts or
retries it has. An exception in the batch, an interrupt included, stops
the dispatchers and drops the backoffs that have not started; each worker
finishes at most its current request, and every thread is joined before
the exception propagates. Each annotated text comes back as an
:class:`hatepool.annotations.AnnotationRow`; :mod:`hatepool.annotations`
writes the annotation file and reads it back.

The transport is the standard library's ``http.client``. Each worker
has one connection object to its endpoint, an HTTP/1.1 keep-alive
connection, and reads every response body in full, so the connection can
carry the next request. A connection that fails or times out is closed,
and ``http.client`` reopens it on the next request. One that the server
closed while idle is closed before the next request goes out, which
costs no retry and never sends a request twice (RFC 9112 §9.3). Proxy
variables (``HTTP_PROXY``, ``HTTPS_PROXY``) are not read and redirects
are not followed: ``base_url`` is the URL that gets the POST.
"""

from __future__ import annotations

import json
import math
import random
import threading
import time
from collections import deque
from contextlib import closing
from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence
from urllib.parse import urlsplit

from ._jsonl import from_json_object
from .annotations import AnnotationRow
# Imported only for bench/traced.py, which imports these two from this module.
from .annotations import read_annotations, write_annotations  # noqa: F401
from .ensemble import ENSEMBLE_SIZE, ProbabilityVector
from .prompt import (
    ExtractionError,
    ModelProbability,
    PromptTemplate,
    extract_label_probabilities,
    render_prompt,
)


@dataclass(frozen=True)
class AnnotatorEndpoint:
    """One model endpoint and its transport limits.

    ``retry_limit`` is the number of retries after the first attempt;
    ``max_in_flight`` caps concurrent requests to this endpoint.
    """

    model_id: str
    base_url: str
    auth_token: str | None = None
    max_in_flight: int = 4
    timeout: float = 30.0
    retry_limit: int = 2
    backoff_base: float = 0.25
    logprobs_top_k: int = 20

    def __post_init__(self) -> None:
        if not self.model_id:
            raise ValueError("model_id must be nonempty")
        try:
            url = urlsplit(self.base_url)
            url.port  # parsed lazily; raises on a bad or out-of-range port
        except ValueError as exc:
            raise ValueError(f"base_url {self.base_url!r}: {exc}") from None
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"base_url must be an http:// or https:// URL, got {self.base_url!r}")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")
        # The socket layer raises OverflowError on a longer timeout.
        if not 0 < self.timeout <= threading.TIMEOUT_MAX:
            raise ValueError(f"timeout must be positive and at most {threading.TIMEOUT_MAX}")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be nonnegative")
        if not 0 <= self.backoff_base < math.inf:
            raise ValueError("backoff_base must be nonnegative and finite")
        if self.logprobs_top_k < 1:
            raise ValueError("logprobs_top_k must be at least 1")

    @classmethod
    def from_dict(cls, cfg: Mapping) -> "AnnotatorEndpoint":
        return from_json_object(cls, cfg, "endpoint")


class TransientRequestError(RuntimeError):
    """A failure worth retrying: transport error, non-200 status, bad payload."""


@dataclass
class AnnotationFailure:
    model_id: str
    attempts: int
    error: str


@dataclass
class QuarantinedText:
    """A text dropped from the batch, with the per-endpoint failures."""

    id: str
    failures: list[AnnotationFailure] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"id": self.id, "errors": [asdict(f) for f in self.failures]}


def _token_weights_from_response(body: Mapping) -> dict[str, float]:
    try:
        top = body["choices"][0]["logprobs"]["top_logprobs"][0]
    except (KeyError, IndexError, TypeError) as exc:
        raise TransientRequestError(f"malformed completion response: {exc!r}") from exc
    if not isinstance(top, Mapping):
        raise TransientRequestError("top_logprobs entry is not an object")
    weights: dict[str, float] = {}
    for token, lp in top.items():
        try:
            logprob = float(lp)
            weight = math.exp(logprob)
        except (TypeError, ValueError, OverflowError):
            logprob = math.nan
        if not math.isfinite(logprob):
            raise TransientRequestError(
                f"malformed completion response: logprob {lp!r} for token {token!r}"
            )
        weights[str(token)] = weight
    return weights


def _closed_while_idle(sock) -> bool:
    """Whether an idle kept-alive socket has turned readable.

    Between requests the server has nothing to send, so a readable socket
    means it closed the connection (or broke the protocol). Either way the
    socket must not carry the next request.
    """
    import selectors  # loaded with http.client already; kept off the read-only commands

    with selectors.DefaultSelector() as selector:
        selector.register(sock, selectors.EVENT_READ)
        return bool(selector.select(0))


class _Client:
    """One worker's client for one endpoint, over one keep-alive connection object.

    What no attempt changes is worked out once, here: the connection
    object, the request target, the headers and the label tokens.
    ``http.client`` is imported here, not at module top: it pulls in
    ``ssl``, and the commands that only read annotation files never send a
    request.
    """

    def __init__(self, endpoint: AnnotatorEndpoint, template: PromptTemplate) -> None:
        import http.client

        url = urlsplit(endpoint.base_url)
        factory = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}
        self._conn = factory[url.scheme](url.hostname, url.port, timeout=endpoint.timeout)
        self._transport_errors = (OSError, http.client.HTTPException)
        self._target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._headers = {"Content-Type": "application/json"}
        if endpoint.auth_token:
            self._headers["Authorization"] = f"Bearer {endpoint.auth_token}"
        self._endpoint = endpoint
        self._template = template
        self._label_tokens = (*template.hate_tokens, *template.neutral_tokens)

    def annotate(self, text_id: str, prompt: str) -> tuple[ModelProbability, dict[str, float]]:
        """One attempt at one text: (probability, raw label-token weights).

        Raises :class:`TransientRequestError` for a failure worth retrying and
        :class:`ExtractionError` for a well-formed response without label
        tokens, which will not improve on retry. Finite weights can still pool
        to an infinite sum and a NaN probability; that is a malformed response.
        The response body is read in full whatever the status, so the
        connection can carry the next request; one that fails is closed, and
        ``request`` reopens it.
        """
        ep = self._endpoint
        body = json.dumps(
            {"model": ep.model_id, "prompt": prompt, "max_tokens": 1, "logprobs": ep.logprobs_top_k}
        ).encode("utf-8")
        conn = self._conn
        if conn.sock is not None and _closed_while_idle(conn.sock):
            conn.close()
        try:
            conn.request("POST", self._target, body=body, headers=self._headers)
            with conn.getresponse() as response:
                status, data = response.status, response.read()
        except BaseException as exc:
            conn.close()
            if isinstance(exc, self._transport_errors):
                raise TransientRequestError(f"request failed: {exc}") from exc
            raise
        if status != 200:
            raise TransientRequestError(f"HTTP {status}")
        try:
            payload = json.loads(data)
        except ValueError as exc:
            raise TransientRequestError(f"response is not JSON: {exc}") from exc
        except RecursionError as exc:
            raise TransientRequestError("response is not JSON: nested too deeply") from exc
        weights = _token_weights_from_response(payload)
        try:
            probability = extract_label_probabilities(
                weights, self._template, model_id=ep.model_id, text_id=text_id
            )
        except ExtractionError:
            raise
        except ValueError as exc:
            raise TransientRequestError(f"malformed completion response: {exc}") from exc
        return probability, {tok: weights[tok] for tok in self._label_tokens if tok in weights}

    def close(self) -> None:
        self._conn.close()


class _Dispatcher:
    """One endpoint's work queue and the outcome of each text on it.

    A job is (text index, attempt). :meth:`take` hands out a retry whose
    backoff has elapsed ahead of the next fresh text, and fresh texts in
    input order. It returns None once every text has its outcome, or once
    the batch has stopped.
    """

    def __init__(self, endpoint: AnnotatorEndpoint, n_texts: int, rng: random.Random) -> None:
        self.endpoint = endpoint
        self.rng = rng
        self.outcomes: list = [None] * n_texts
        self._cond = threading.Condition()
        self._due: deque[tuple[int, int]] = deque()
        self._fresh = 0
        self._open = n_texts
        self._stopped = False

    def take(self) -> tuple[int, int] | None:
        with self._cond:
            while not self._stopped:
                if self._due:
                    return self._due.popleft()
                if self._fresh < len(self.outcomes):
                    self._fresh += 1
                    return self._fresh - 1, 0
                if not self._open:
                    return None
                self._cond.wait()
            return None

    def requeue(self, job: tuple[int, int]) -> None:
        with self._cond:
            self._due.append(job)
            self._cond.notify()

    def finish(self, index: int, outcome) -> None:
        """Record a text's final outcome: (probability, raw weights) or an AnnotationFailure."""
        self.outcomes[index] = outcome
        with self._cond:
            self._open -= 1
            if not self._open:
                self._cond.notify_all()

    def stop(self) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify_all()


def annotate_batch(
    texts: Sequence[tuple[str, str]],
    endpoints: Sequence[AnnotatorEndpoint],
    template: PromptTemplate | None = None,
    seed: int = 0,
    sleep=time.sleep,
) -> tuple[list[AnnotationRow], list[QuarantinedText]]:
    """Annotate (id, text) pairs on all four endpoints.

    Results and quarantined texts each come back in input order; a text
    lands in exactly one of the two lists. Rendering the prompt happens
    once per text and is shared across endpoints. ``sleep`` is called
    with each backoff delay, on a backoff thread.
    """
    from concurrent.futures import ThreadPoolExecutor  # kept off the read-only commands

    template = template or PromptTemplate()
    if len(endpoints) != ENSEMBLE_SIZE:
        raise ValueError(f"expected {ENSEMBLE_SIZE} endpoints, got {len(endpoints)}")
    ids = [ep.model_id for ep in endpoints]
    if len(set(ids)) != ENSEMBLE_SIZE:
        raise ValueError(f"duplicate endpoint model ids: {ids}")
    seen_text_ids = set()
    for text_id, _ in texts:
        if text_id in seen_text_ids:
            raise ValueError(f"duplicate text id {text_id!r}")
        seen_text_ids.add(text_id)

    ordered = sorted(endpoints, key=lambda ep: ep.model_id)
    prompts = [render_prompt(template, text) for _, text in texts]
    rng = random.Random(seed)
    dispatchers = [
        _Dispatcher(ep, len(texts), random.Random(rng.getrandbits(64))) for ep in ordered
    ]
    backoff = ThreadPoolExecutor(
        max_workers=sum(ep.max_in_flight for ep in ordered), thread_name_prefix="annotate-backoff"
    )
    errors: list[BaseException] = []

    def fail(exc: BaseException) -> None:
        errors.append(exc)
        for dispatcher in dispatchers:
            dispatcher.stop()

    def back_off(dispatcher: _Dispatcher, job: tuple[int, int], delay: float) -> None:
        try:
            sleep(delay)
        except BaseException as exc:
            fail(exc)
        else:
            dispatcher.requeue(job)

    def serve(dispatcher: _Dispatcher) -> None:
        ep = dispatcher.endpoint
        try:
            with closing(_Client(ep, template)) as client:
                while (job := dispatcher.take()) is not None:
                    index, attempt = job
                    try:
                        outcome = client.annotate(texts[index][0], prompts[index])
                    except TransientRequestError as exc:
                        if attempt < ep.retry_limit:
                            jitter = 0.5 + dispatcher.rng.random()
                            delay = ep.backoff_base * (2.0 ** attempt) * jitter
                            backoff.submit(back_off, dispatcher, (index, attempt + 1), delay)
                            continue
                        outcome = AnnotationFailure(ep.model_id, attempt + 1, str(exc))
                    except ExtractionError as exc:
                        outcome = AnnotationFailure(ep.model_id, attempt + 1, str(exc))
                    dispatcher.finish(index, outcome)
        except BaseException as exc:
            fail(exc)

    workers = [
        threading.Thread(target=serve, args=(d,), name=f"annotate-{d.endpoint.model_id}-{i}")
        for d in dispatchers
        for i in range(min(d.endpoint.max_in_flight, len(texts)))
    ]
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            while worker.is_alive():
                worker.join(0.1)  # a timed wait lets an interrupt through
    finally:
        for dispatcher in dispatchers:
            dispatcher.stop()
        backoff.shutdown(wait=False, cancel_futures=True)
        for worker in workers:
            if worker.ident is not None:
                worker.join()
        backoff.shutdown(wait=True)
    if errors:
        raise errors[0]

    results: list[AnnotationRow] = []
    quarantined: list[QuarantinedText] = []
    for index, (text_id, _) in enumerate(texts):
        outcomes = [d.outcomes[index] for d in dispatchers]
        failures = [o for o in outcomes if isinstance(o, AnnotationFailure)]
        if failures:
            quarantined.append(QuarantinedText(id=text_id, failures=failures))
        else:
            results.append(
                AnnotationRow(
                    id=text_id,
                    lang=None,
                    vector=ProbabilityVector(tuple(probability for probability, _ in outcomes)),
                    raw_weights={ep.model_id: raw for ep, (_, raw) in zip(ordered, outcomes)},
                )
            )
    return results, quarantined
