"""The JSON transport shared by the chat client and the embedding client."""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable

from . import __version__

# the retry policy of both clients; JsonService.post reads it on each call
ATTEMPTS = 3
BACKOFF_S = 0.5


def check_settings(max_parallel: int) -> None:
    if max_parallel < 1:
        raise ValueError("max_parallel must be >= 1")


class JsonService:
    """One JSON endpoint: kept-alive connections, a bearer key, retries, a
    request count and a parallel map.

    Everything the environment decides is resolved once, here: an empty or
    absent `api_key` falls back to NARRATIVE_LLM_API_KEY (with neither, no
    Authorization header is sent), and HTTP_PROXY, HTTPS_PROXY and NO_PROXY
    pick the route. https is verified against the system CA store. The
    standard library's HTTP modules are imported here, not at module level,
    so commands that build no client never load the HTTP stack.
    """

    def __init__(
        self,
        endpoint: str,
        name: str,
        error_cls: type[Exception],
        api_key: str | None,
        max_parallel: int,
        timeout: float,
    ) -> None:
        import base64
        import http.client
        import ssl
        import urllib.request
        from urllib.parse import unquote, urlsplit

        check_settings(max_parallel)
        url = urlsplit(endpoint)
        if url.scheme not in ("http", "https") or not url.hostname or url.username is not None:
            raise ValueError(
                f"{name} endpoint must be an http:// or https:// URL without credentials, got {endpoint!r}"
            )
        self.name = name
        self.error_cls = error_cls
        self.max_parallel = max_parallel
        self._transport_errors = (OSError, http.client.HTTPException)
        key = api_key or os.environ.get("NARRATIVE_LLM_API_KEY")
        self.headers = {"Content-Type": "application/json", "User-Agent": f"econarrative/{__version__}"}
        if key:
            self.headers["Authorization"] = f"Bearer {key}"

        host, port = url.hostname, url.port or {"http": 80, "https": 443}[url.scheme]
        if url.scheme == "https":
            tls = ssl.create_default_context()
            self._open = lambda host, port: http.client.HTTPSConnection(host, port, timeout=timeout, context=tls)
        else:
            self._open = lambda host, port: http.client.HTTPConnection(host, port, timeout=timeout)
        self._address = (host, port)
        self._target = url.path or "/"
        if url.query:
            self._target += "?" + url.query
        self._tunnel: tuple | None = None
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and not urllib.request.proxy_bypass(host):
            via = urlsplit(proxy if "://" in proxy else "http://" + proxy)
            if via.scheme != "http" or not via.hostname:
                raise ValueError(f"{name}: only http:// proxies are supported, got {proxy!r}")
            auth = {}
            if via.username:
                user = f"{unquote(via.username)}:{unquote(via.password or '')}"
                auth["Proxy-Authorization"] = "Basic " + base64.b64encode(user.encode("utf-8")).decode("ascii")
            self._address = (via.hostname, via.port or 80)
            if url.scheme == "https":
                self._tunnel = (host, port, auth)
            else:  # a plain-http proxy takes the absolute URL as the request target
                self._target = f"http://{url.netloc}{self._target}"
                self.headers.update(auth)

        self._idle: list = []  # kept-alive connections no caller holds
        self._idle_guard = threading.Lock()
        self.requests = 0  # requests sent, retries included
        self._requests_guard = threading.Lock()

    def post(self, body: dict, extract: Callable[[object], object]):
        """POST `body` as JSON and return `extract(reply JSON)`.

        Transport errors, 5xx replies and replies `extract` cannot read are
        retried, ATTEMPTS attempts in all, sleeping BACKOFF_S seconds before
        the second attempt and doubling the sleep before each later one; a
        4xx or 3xx reply (redirects are not followed) and a body that is not
        JSON raise `error_cls` at once.
        """
        try:
            payload = json.dumps(body, allow_nan=False).encode("utf-8")
        except (TypeError, ValueError) as exc:  # NaN or infinity, or an object JSON has no form for
            raise self.error_cls(f"{self.name}: the request body is not JSON: {exc}") from exc
        last: object = None
        for attempt in range(ATTEMPTS):
            if attempt:
                time.sleep(BACKOFF_S * 2 ** (attempt - 1))
            # the clients post from several threads
            with self._requests_guard:
                self.requests += 1
            try:
                status, headers, reply = self._send(payload)
                if status < 300:
                    return extract(json.loads(reply))
            # TypeError: JSON that is not the object `extract` reads, such as [1, 2]
            except (*self._transport_errors, KeyError, IndexError, TypeError, ValueError) as exc:
                last = exc
                continue
            if status >= 500:
                last = f"server error {status}"
                continue
            if status >= 400:
                raise self.error_cls(f"{self.name} rejected the request: client error {status}")
            raise self.error_cls(
                f"{self.name} answered with redirect {status} to {headers.get('Location')}; "
                "redirects are not followed, so set the endpoint to the final URL"
            )
        raise self.error_cls(f"{self.name} failed after {ATTEMPTS} tries: {last}")

    def _send(self, payload: bytes):
        """One POST of `payload`: (status, reply headers, reply body).

        It goes over an idle kept-alive connection if there is one, else a
        new one. A kept-alive connection the server has closed since is
        reopened at once, once.
        """
        with self._idle_guard:
            conn = self._idle.pop() if self._idle else None
        if conn is not None:
            try:
                return self._exchange(conn, payload)
            except ConnectionError:
                pass
        conn = self._open(*self._address)
        if self._tunnel is not None:
            conn.set_tunnel(*self._tunnel)
        return self._exchange(conn, payload)

    def _exchange(self, conn, payload: bytes):
        try:
            conn.request("POST", self._target, payload, self.headers)
            resp = conn.getresponse()
            reply = resp.read()
        except BaseException:
            conn.close()
            raise
        if not resp.will_close:
            with self._idle_guard:
                self._idle.append(conn)
        return resp.status, resp.headers, reply

    def close(self) -> None:
        """Close and forget the idle kept-alive connections; a later `post` opens a new one."""
        with self._idle_guard:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def map(self, fn: Callable, items: Iterable) -> list:
        """`[fn(item) for item in items]`, at most `max_parallel` at a time."""
        with ThreadPoolExecutor(max_workers=self.max_parallel) as pool:
            return list(pool.map(fn, items))
