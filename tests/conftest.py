import json
import ssl
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

TLS = Path(__file__).parent / "goldens" / "tls"  # a self-signed localhost certificate, for tests only


class _StubState:
    """Scriptable chat/embedding endpoint shared with the handler."""

    def __init__(self):
        self.calls = 0
        self.headers = {}  # the last request's
        self.path = None  # the last request's target, as sent
        self.lock = threading.Lock()
        self.reply = lambda payload: {"choices": [{"message": {"content": "ok"}}]}
        self.status = 200
        self.reply_headers = {}  # sent with every reply, after Content-Type and Content-Length

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
                state.path = self.path
                status = state.status
                extra = dict(state.reply_headers)
                body = json.dumps(state.reply(payload)).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in extra.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def do_CONNECT(self):
            # a proxy tunnel request: recorded, then refused
            with state.lock:
                state.headers = dict(self.headers)
                state.path = self.path
            self.send_error(502)

        def log_message(self, *args):
            pass

    return Handler


class StubServer:
    def __init__(self, tls=None):
        """`tls`: an ssl.SSLContext the stub serves https with."""
        self.state = _StubState()
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), _make_handler(self.state))
        if tls is not None:
            self.server.socket = tls.wrap_socket(self.server.socket, server_side=True)
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
def tls_cert():
    return TLS / "localhost.crt"


@pytest.fixture
def tls_stub_server(tls_cert):
    """The stub over https, with a certificate for localhost no CA store trusts."""
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(tls_cert, TLS / "localhost.key")
    server = StubServer(tls=context)
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
