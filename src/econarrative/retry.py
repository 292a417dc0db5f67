"""The HTTP retry loop shared by the chat client and the embedding client."""

from __future__ import annotations

import time
from typing import Callable

import requests


def post_with_retries(
    session: requests.Session,
    url: str,
    body: dict,
    headers: dict,
    timeout: float,
    retries: int,
    backoff: float,
    extract: Callable[[object], object],
    error_cls: type[Exception],
    service: str,
    on_attempt: Callable[[], None] | None = None,
):
    """POST `body` as JSON and return `extract(reply JSON)`.

    Transport errors, 5xx replies and replies `extract` cannot read are
    retried, `retries` attempts in all, sleeping `backoff` seconds before
    the second attempt and doubling the sleep before each later one; a
    4xx reply raises `error_cls` at once. `on_attempt` runs before every
    request.
    """
    delay = backoff
    last: Exception | None = None
    for attempt in range(retries):
        if attempt:
            time.sleep(delay)
            delay *= 2
        if on_attempt is not None:
            on_attempt()
        try:
            resp = session.post(url, json=body, headers=headers, timeout=timeout)
            if resp.status_code >= 500:
                raise requests.HTTPError(f"server error {resp.status_code}")
            if resp.status_code < 400:
                return extract(resp.json())
        # TypeError: JSON that is not the object `extract` reads, such as [1, 2]
        except (requests.RequestException, KeyError, IndexError, TypeError, ValueError) as exc:
            last = exc
            continue
        raise error_cls(f"{service} rejected the request: client error {resp.status_code}")
    raise error_cls(f"{service} failed after {retries} tries: {last}")
