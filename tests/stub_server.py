"""A scripted completions server that logs what the transport sent.

``StubServer(respond, idle_timeout)`` runs the package's completions server
core (:class:`hatepool.mockserver.CompletionsServer`): ``respond(model,
prompt, attempt)`` returns ``(status, payload)`` for each request, and every
answer keeps the connection alive. Besides the core's counts
(``request_count``, ``connections``, ``closed``, ``max_in_flight``), it keeps
each request's ``headers`` and logs each request as (model, prompt, attempt)
in ``served``.
"""

from __future__ import annotations

from hatepool.mockserver import CompletionsServer


def completion(top_logprobs: dict) -> dict:
    """A completions body whose first token's top logprobs are ``top_logprobs``."""
    return {"choices": [{"logprobs": {"top_logprobs": [top_logprobs]}}]}


class StubServer(CompletionsServer):
    def __init__(self, respond, idle_timeout: float | None = None) -> None:
        super().__init__(idle_timeout)
        self._respond = respond
        self.headers: list[dict[str, str]] = []
        self.served: list[tuple[str, str, int]] = []

    def answer(self, model, prompt, attempt, headers):
        self.headers.append(dict(headers))
        self.served.append((model, prompt, attempt))
        return (*self._respond(model, prompt, attempt), False)

    def stop(self) -> None:
        thread = self._thread
        super().stop()
        assert thread is None or not thread.is_alive()
