"""The one JSON transport behind the chat client and the embedding client."""

import ast
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from econarrative import embed, narrative, retry
from econarrative.embed import EmbeddingServiceError, ExternalEmbedder
from econarrative.narrative import LlmClient, LlmClientConfig

KEY_VAR = "NARRATIVE_LLM_API_KEY"


def _chat(url, **settings):
    client = LlmClient(LlmClientConfig(endpoint=url, model="m", **settings))
    return lambda: client.complete("hello")


def _embedding(url, **settings):
    embedder = ExternalEmbedder(endpoint=url, dimension=2, **settings)
    return lambda: embedder.embed_batch(["alpha"])


CLIENTS = {"chat": _chat, "embedding": _embedding}


@pytest.fixture
def either_reply(stub_server):
    """A stub that answers both clients' protocols."""
    stub_server.state.set_raw(lambda payload: {
        "choices": [{"message": {"content": "ok"}}],
        "vectors": [[0.0, 1.0] for _ in payload.get("texts", [])],
    })
    return stub_server


class TestBearerKey:
    @pytest.mark.parametrize("client", CLIENTS)
    @pytest.mark.parametrize("api_key, env, want", [
        ("explicit", None, "Bearer explicit"),
        ("explicit", "from-env", "Bearer explicit"),
        (None, "from-env", "Bearer from-env"),
        ("", "from-env", "Bearer from-env"),
        (None, None, None),
        ("", None, None),
    ])
    def test_header(self, either_reply, monkeypatch, client, api_key, env, want):
        if env is None:
            monkeypatch.delenv(KEY_VAR, raising=False)
        else:
            monkeypatch.setenv(KEY_VAR, env)
        send = CLIENTS[client](either_reply.url, api_key=api_key)
        send()
        assert either_reply.state.headers.get("Authorization") == want

    @pytest.mark.parametrize("client", CLIENTS)
    def test_key_is_resolved_when_the_client_is_built(self, either_reply, monkeypatch, client):
        monkeypatch.delenv(KEY_VAR, raising=False)
        send = CLIENTS[client](either_reply.url)
        monkeypatch.setenv(KEY_VAR, "too-late")
        send()
        assert "Authorization" not in either_reply.state.headers


class TestRequestCount:
    def test_embedder_counts_every_request(self, stub_server):
        stub_server.state.set_embedding(dimension=2)
        e = ExternalEmbedder(endpoint=stub_server.url, dimension=2, batch_size=2, max_parallel=2)
        e.embed_batch(["a", "b", "c", "d", "e"])
        assert e.service.requests == stub_server.calls == 3

    def test_embedder_counts_retries(self, stub_server, monkeypatch):
        monkeypatch.setattr(retry, "time", SimpleNamespace(sleep=lambda s: None))
        stub_server.state.status = 503
        e = ExternalEmbedder(endpoint=stub_server.url, dimension=2, max_retries=3)
        with pytest.raises(EmbeddingServiceError, match="failed after 3 tries"):
            e.embed_batch(["alpha"])
        assert e.service.requests == stub_server.calls == 3


def test_map_keeps_order_and_bounds_threads():
    service = retry.JsonService("http://unused.invalid/", "test service", RuntimeError, None,
                                max_parallel=3, max_retries=1, backoff=0.0, timeout=1.0)
    guard, active, peak = threading.Lock(), [0], [0]

    def square(x):
        with guard:
            active[0] += 1
            peak[0] = max(peak[0], active[0])
        time.sleep(0.005)
        with guard:
            active[0] -= 1
        return x * x

    assert service.map(square, range(20)) == [x * x for x in range(20)]
    assert 1 <= peak[0] <= 3
    assert service.map(str, []) == []


def test_only_the_transport_imports_http_and_threads():
    # the clients reach the network and their thread pool through retry.JsonService
    for module in (narrative, embed):
        tree = ast.parse(Path(module.__file__).read_text("utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported |= {node.module or ""} | {alias.name for alias in node.names}
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert "requests" not in imported, module.__name__
        assert "ThreadPoolExecutor" not in imported | names, module.__name__


IMPORT_PROBE = """
import json, sys
import econarrative.cli, econarrative.experiment, econarrative.narrative, econarrative.embed
on_import = "requests" in sys.modules
econarrative.narrative.LlmClient(
    econarrative.narrative.LlmClientConfig(endpoint="http://unused.invalid/", model="m"))
print(json.dumps([on_import, "requests" in sys.modules]))
"""


def test_http_stack_loads_only_when_a_client_is_built():
    # a fresh interpreter: this one has loaded requests already
    src = str(Path(retry.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    on_import, after_client = json.loads(proc.stdout)
    assert not on_import, "importing the package loaded requests"
    assert after_client, "building an LlmClient did not load requests"
