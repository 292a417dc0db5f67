import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest


class _StubState:
    """Scriptable chat/embedding endpoint shared with the handler."""

    def __init__(self):
        self.calls = 0
        self.headers = {}  # the last request's
        self.lock = threading.Lock()
        self.reply = lambda payload: {"choices": [{"message": {"content": "ok"}}]}
        self.status = 200

    def set_chat_content(self, content: str):
        self.reply = lambda payload: {"choices": [{"message": {"content": content}}]}

    def set_chat_fn(self, fn):
        """fn(request_payload) -> content string"""
        self.reply = lambda payload: {"choices": [{"message": {"content": fn(payload)}}]}

    def set_embedding(self, dimension: int):
        self.reply = lambda payload: {
            "vectors": [[float(len(t) % 7)] * dimension for t in payload["texts"]]
        }

    def set_raw(self, fn):
        self.reply = fn


def _make_handler(state: _StubState):
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length) or b"{}")
            with state.lock:
                state.calls += 1
                state.headers = dict(self.headers)
                status = state.status
                body = json.dumps(state.reply(payload)).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    return Handler


class StubServer:
    def __init__(self):
        self.state = _StubState()
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), _make_handler(self.state))
        # shutdown() waits out one poll, so a short poll keeps teardown fast
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self.thread.start()

    @property
    def url(self) -> str:
        host, port = self.server.server_address
        return f"http://{host}:{port}/"

    @property
    def calls(self) -> int:
        return self.state.calls

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def stub_server():
    server = StubServer()
    yield server
    server.close()


@pytest.fixture
def write_jsonl(tmp_path):
    def _write(records, name="tweets.jsonl"):
        path = tmp_path / name
        with path.open("w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
        return path

    return _write


@pytest.fixture
def write_csv(tmp_path):
    def _write(rows, header="date,value", name="series.csv"):
        path = tmp_path / name
        path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""), encoding="utf-8")
        return path

    return _write
