"""In-process stub of a chat-completion endpoint for the llm-replay workload.

It speaks HTTP/1.1 with keep-alive, turns Nagle's algorithm off and sends
each reply (status line, headers and body) in a single write. A stub that
writes headers and body separately with Nagle on makes every request wait
for the peer's delayed ACK (about 40 ms on Linux), and the benchmark would
then time the TCP stack instead of the client.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class StubChatServer:
    """Answers every POST with one fixed, well-formed tagged analysis."""

    def __init__(self, content: str) -> None:
        body = json.dumps(
            {"choices": [{"message": {"role": "assistant", "content": content}}]}
        ).encode("utf-8")
        reply = (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
            + body
        )
        self._calls = 0
        self._lock = threading.Lock()
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True
            timeout = 30  # an idle keep-alive connection ends its handler thread

            def do_POST(self):
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                with server._lock:
                    server._calls += 1
                self.wfile.write(reply)

            def log_message(self, *args):
                pass

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}/v1/chat/completions"

    @property
    def calls(self) -> int:
        with self._lock:
            return self._calls

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=10)
