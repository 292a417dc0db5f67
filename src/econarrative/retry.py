"""The JSON transport shared by the chat client and the embedding client."""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable


def check_settings(max_parallel: int, max_retries: int) -> None:
    for name, value in (("max_parallel", max_parallel), ("max_retries", max_retries)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1")


class JsonService:
    """One JSON endpoint: a session, a bearer key, retries, a request count
    and a parallel map.

    The key is resolved once, here: an empty or absent `api_key` falls back
    to NARRATIVE_LLM_API_KEY, and with neither no Authorization header is
    sent. `requests` is imported here, not at module level, so commands that
    build no client never load the HTTP stack.
    """

    def __init__(
        self,
        endpoint: str,
        name: str,
        error_cls: type[Exception],
        api_key: str | None,
        max_parallel: int,
        max_retries: int,
        backoff: float,
        timeout: float,
    ) -> None:
        import requests

        check_settings(max_parallel, max_retries)
        self._http = requests
        self.endpoint = endpoint
        self.name = name
        self.error_cls = error_cls
        self.max_parallel = max_parallel
        self.max_retries = max_retries
        self.backoff = backoff
        self.timeout = timeout
        key = api_key or os.environ.get("NARRATIVE_LLM_API_KEY")
        self.headers = {"Authorization": f"Bearer {key}"} if key else {}
        self.session = requests.Session()
        self.requests = 0  # requests sent, retries included
        self._requests_guard = threading.Lock()

    def post(self, body: dict, extract: Callable[[object], object]):
        """POST `body` as JSON and return `extract(reply JSON)`.

        Transport errors, 5xx replies and replies `extract` cannot read are
        retried, `max_retries` attempts in all, sleeping `backoff` seconds
        before the second attempt and doubling the sleep before each later
        one; a 4xx reply raises `error_cls` at once.
        """
        delay = self.backoff
        last: Exception | None = None
        for attempt in range(self.max_retries):
            if attempt:
                time.sleep(delay)
                delay *= 2
            # the clients post from several threads
            with self._requests_guard:
                self.requests += 1
            try:
                resp = self.session.post(
                    self.endpoint, json=body, headers=self.headers, timeout=self.timeout
                )
                if resp.status_code >= 500:
                    raise self._http.HTTPError(f"server error {resp.status_code}")
                if resp.status_code < 400:
                    return extract(resp.json())
            # TypeError: JSON that is not the object `extract` reads, such as [1, 2]
            except (self._http.RequestException, KeyError, IndexError, TypeError, ValueError) as exc:
                last = exc
                continue
            raise self.error_cls(f"{self.name} rejected the request: client error {resp.status_code}")
        raise self.error_cls(f"{self.name} failed after {self.max_retries} tries: {last}")

    def map(self, fn: Callable, items: Iterable) -> list:
        """`[fn(item) for item in items]`, at most `max_parallel` at a time."""
        with ThreadPoolExecutor(max_workers=self.max_parallel) as pool:
            return list(pool.map(fn, items))
