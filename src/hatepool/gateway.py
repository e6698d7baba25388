"""Concurrent fan-out of annotation prompts to four model endpoints.

Each endpoint gets its own worker pool capped at its ``max_in_flight``,
so one slow model never throttles the others. Requests use the
completions wire shape: one generated token with top-k logprobs, from
which the two label-token weights are read. Transient failures retry
with exponential backoff and jitter; texts that still fail on any
endpoint are quarantined instead of aborting the batch.

The transport is the standard library's ``http.client``. Each worker
thread keeps one HTTP/1.1 keep-alive connection to its endpoint and reads
every response body in full, so the connection can carry the next
request. A connection that fails or times out is discarded. One that the
server closed while idle is replaced before the next request goes out,
which costs no retry and never sends a request twice (RFC 9112 §9.3).
Proxy variables (``HTTP_PROXY``, ``HTTPS_PROXY``) are not read and
redirects are not followed: ``base_url`` is the URL that gets the POST.
"""

from __future__ import annotations

import json
import math
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence, TextIO
from urllib.parse import urlsplit

from ._jsonl import iter_jsonl, write_jsonl_line
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
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be nonnegative")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be nonnegative")
        if self.logprobs_top_k < 1:
            raise ValueError("logprobs_top_k must be at least 1")

    @classmethod
    def from_dict(cls, cfg: Mapping) -> "AnnotatorEndpoint":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(cfg) - known
        if unknown:
            raise ValueError(f"unknown endpoint keys: {sorted(unknown)}")
        return cls(**dict(cfg))


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
        return {
            "id": self.id,
            "errors": [
                {"model_id": f.model_id, "attempts": f.attempts, "error": f.error}
                for f in self.failures
            ],
        }


@dataclass
class AnnotationResult:
    """All four model probabilities for one text, plus the raw token weights seen."""

    id: str
    vector: ProbabilityVector
    raw_weights: dict[str, dict[str, float]]


def _completion_payload(endpoint: AnnotatorEndpoint, prompt: str) -> dict:
    return {
        "model": endpoint.model_id,
        "prompt": prompt,
        "max_tokens": 1,
        "logprobs": endpoint.logprobs_top_k,
    }


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


def _label_probability(
    weights: Mapping[str, float], template: PromptTemplate, model_id: str, text_id: str
) -> ModelProbability:
    """Extract the class probabilities, treating an unusable result as a bad response.

    Finite weights can still pool to an infinite sum and a NaN probability;
    that is a malformed response worth retrying, unlike a response with no
    label token at all (:class:`ExtractionError`, passed through).
    """
    try:
        return extract_label_probabilities(weights, template, model_id=model_id, text_id=text_id)
    except ExtractionError:
        raise
    except ValueError as exc:
        raise TransientRequestError(f"malformed completion response: {exc}") from exc


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


class _EndpointConnections:
    """Keep-alive connections to one endpoint, one per worker thread."""

    def __init__(self, endpoint: AnnotatorEndpoint) -> None:
        self._endpoint = endpoint
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open: set = set()

    def post(self, body: bytes, headers: Mapping[str, str]) -> tuple[int, bytes]:
        """POST ``body`` on this thread's connection; return (status, response body).

        The body is read in full whatever the status, so the connection
        stays usable. ``http.client`` is imported here, not at module top:
        it pulls in ``ssl``, and the commands that only read annotation
        files never send a request.
        """
        import http.client

        current = getattr(self._local, "current", None)
        if current is not None and current[0].sock is not None and _closed_while_idle(
            current[0].sock
        ):
            self._discard()
            current = None
        try:
            if current is None:
                current = self._local.current = self._connect()
            conn, target = current
            conn.request("POST", target, body=body, headers=headers)
            with conn.getresponse() as response:
                return response.status, response.read()
        except BaseException as exc:
            self._discard()
            if isinstance(exc, (OSError, http.client.HTTPException)):
                raise TransientRequestError(f"request failed: {exc}") from exc
            raise

    def _connect(self) -> tuple:
        """A new (connection, request target) for ``base_url``."""
        import http.client

        url = urlsplit(self._endpoint.base_url)
        factory = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}
        conn = factory[url.scheme](url.hostname, url.port, timeout=self._endpoint.timeout)
        with self._lock:
            self._open.add(conn)
        return conn, (url.path or "/") + (f"?{url.query}" if url.query else "")

    def _discard(self) -> None:
        current = getattr(self._local, "current", None)
        if current is not None:
            self._local.current = None
            current[0].close()
            with self._lock:
                self._open.discard(current[0])

    def close_all(self) -> None:
        with self._lock:
            for conn in self._open:
                conn.close()
            self._open.clear()


def _query_endpoint(
    connections: _EndpointConnections,
    endpoint: AnnotatorEndpoint,
    prompt: str,
) -> dict[str, float]:
    headers = {"Content-Type": "application/json"}
    if endpoint.auth_token:
        headers["Authorization"] = f"Bearer {endpoint.auth_token}"
    body = json.dumps(_completion_payload(endpoint, prompt)).encode("utf-8")
    status, data = connections.post(body, headers)
    if status != 200:
        raise TransientRequestError(f"HTTP {status}")
    try:
        payload = json.loads(data)
    except ValueError as exc:
        raise TransientRequestError(f"response is not JSON: {exc}") from exc
    return _token_weights_from_response(payload)


def _annotate_one(
    connections: _EndpointConnections,
    endpoint: AnnotatorEndpoint,
    template: PromptTemplate,
    text_id: str,
    prompt: str,
    rng: random.Random,
    sleep=time.sleep,
) -> tuple[ModelProbability, dict[str, float]]:
    """One text on one endpoint, with retries. Raises AnnotationError on give-up."""
    attempts = endpoint.retry_limit + 1
    last_error = "unknown"
    for attempt in range(attempts):
        try:
            weights = _query_endpoint(connections, endpoint, prompt)
            probability = _label_probability(weights, template, endpoint.model_id, text_id)
        except TransientRequestError as exc:
            last_error = str(exc)
            if attempt + 1 < attempts:
                delay = endpoint.backoff_base * (2.0 ** attempt)
                sleep(delay * (0.5 + rng.random()))
            continue
        except ExtractionError as exc:
            # A well-formed response without label tokens will not improve
            # on retry; fail the text on this endpoint immediately.
            raise AnnotationError(endpoint.model_id, attempt + 1, str(exc)) from exc
        label_tokens = (*template.hate_tokens, *template.neutral_tokens)
        raw = {tok: weights[tok] for tok in label_tokens if tok in weights}
        return probability, raw
    raise AnnotationError(endpoint.model_id, attempts, last_error)


class AnnotationError(RuntimeError):
    def __init__(self, model_id: str, attempts: int, message: str) -> None:
        super().__init__(f"{model_id}: {message} (after {attempts} attempts)")
        self.model_id = model_id
        self.attempts = attempts
        self.message = message


def annotate_batch(
    texts: Sequence[tuple[str, str]],
    endpoints: Sequence[AnnotatorEndpoint],
    template: PromptTemplate | None = None,
    seed: int = 0,
    sleep=time.sleep,
) -> tuple[list[AnnotationResult], list[QuarantinedText]]:
    """Annotate (id, text) pairs on all four endpoints.

    Results and quarantined texts each come back in input order; a text
    lands in exactly one of the two lists. Rendering the prompt happens
    once per text and is shared across endpoints.
    """
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

    executors = {
        ep.model_id: ThreadPoolExecutor(
            max_workers=ep.max_in_flight, thread_name_prefix=f"annotate-{ep.model_id}"
        )
        for ep in ordered
    }
    connections = {ep.model_id: _EndpointConnections(ep) for ep in ordered}
    rng = random.Random(seed)
    rngs = {ep.model_id: random.Random(rng.getrandbits(64)) for ep in ordered}
    results: list[AnnotationResult] = []
    quarantined: list[QuarantinedText] = []
    try:
        futures = {}
        for index, (text_id, _) in enumerate(texts):
            for ep in ordered:
                futures[(index, ep.model_id)] = executors[ep.model_id].submit(
                    _annotate_one,
                    connections[ep.model_id],
                    ep,
                    template,
                    text_id,
                    prompts[index],
                    rngs[ep.model_id],
                    sleep,
                )
        for index, (text_id, _) in enumerate(texts):
            probabilities: list[ModelProbability] = []
            raw_weights: dict[str, dict[str, float]] = {}
            failures: list[AnnotationFailure] = []
            for ep in ordered:
                try:
                    probability, raw = futures[(index, ep.model_id)].result()
                except AnnotationError as exc:
                    failures.append(
                        AnnotationFailure(
                            model_id=exc.model_id, attempts=exc.attempts, error=exc.message
                        )
                    )
                    continue
                probabilities.append(probability)
                raw_weights[ep.model_id] = raw
            if failures:
                quarantined.append(QuarantinedText(id=text_id, failures=failures))
            else:
                results.append(
                    AnnotationResult(
                        id=text_id,
                        vector=ProbabilityVector(tuple(probabilities)),
                        raw_weights=raw_weights,
                    )
                )
    finally:
        for executor in executors.values():
            executor.shutdown(wait=True)
        for endpoint_connections in connections.values():
            endpoint_connections.close_all()
    return results, quarantined


# --- annotation JSONL wire format ------------------------------------------
#
# First line: {"model_order": [...]}  (sorted model ids)
# Then one row per text:
#   {"id": ..., "lang": ..., "models": {model_id: {"hate": h, "neutral": n,
#    "raw": {token: weight, ...}}}, ...optional "raw_label"}


@dataclass
class AnnotationRow:
    """One decoded annotation row."""

    id: str
    lang: str | None
    vector: ProbabilityVector
    raw_weights: dict[str, dict[str, float]]
    raw_label: str | None = None


def write_annotations(
    fp: TextIO,
    results: Sequence[AnnotationResult],
    lang_by_id: Mapping[str, str] | None = None,
    raw_label_by_id: Mapping[str, str] | None = None,
    model_order: Sequence[str] | None = None,
) -> None:
    if model_order is None:
        if not results:
            raise ValueError("no annotation results and no explicit model order")
        model_order = list(results[0].vector.model_ids)
    else:
        model_order = list(model_order)
    write_jsonl_line(fp, {"model_order": model_order})
    for result in results:
        if list(result.vector.model_ids) != model_order:
            raise ValueError(f"result {result.id!r} has a different model set")
        row: dict = {
            "id": result.id,
            "models": {
                entry.model_id: {
                    "hate": entry.p_hate,
                    "neutral": entry.p_neutral,
                    "raw": result.raw_weights.get(entry.model_id, {}),
                }
                for entry in result.vector.entries
            },
        }
        if lang_by_id is not None:
            row["lang"] = lang_by_id.get(result.id)
        if raw_label_by_id is not None and result.id in raw_label_by_id:
            row["raw_label"] = raw_label_by_id[result.id]
        write_jsonl_line(fp, row)


def read_annotations(fp: TextIO) -> tuple[list[str], Iterator[AnnotationRow]]:
    """Read the header and return (model_order, row iterator)."""
    expected: tuple[str, ...] | None = None

    def decode(row: dict):
        nonlocal expected
        if expected is None:
            if "model_order" not in row:
                raise ValueError("annotation file must start with a model_order header line")
            model_order = [str(m) for m in row["model_order"]]
            expected = tuple(sorted(model_order))
            return model_order
        models = row["models"]
        if tuple(sorted(models)) != expected:
            raise ValueError(f"model set {sorted(models)} does not match header")
        entries = tuple(
            ModelProbability(
                model_id=mid,
                p_hate=float(models[mid]["hate"]),
                p_neutral=float(models[mid]["neutral"]),
            )
            for mid in expected
        )
        raw = {mid: dict(models[mid].get("raw", {})) for mid in expected}
        raw_label = row.get("raw_label")
        return AnnotationRow(
            id=str(row["id"]),
            lang=row.get("lang"),
            vector=ProbabilityVector(entries),
            raw_weights=raw,
            raw_label=None if raw_label is None else str(raw_label),
        )

    stream = iter_jsonl(fp, decode)
    model_order = next(stream, None)
    if model_order is None:
        raise ValueError("annotation file is empty")
    return model_order, stream
