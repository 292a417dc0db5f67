"""Versioned JSON serialization of trained models.

Parameter tensors travel as base64-encoded little-endian float64 bytes
so documents round-trip bit-exactly.
"""

from __future__ import annotations

import base64

import numpy as np

from ..embed import HashingEmbedder
from .columns import Standardized
from .darnn import AttentionRnn
from .linear import LinearModel
from .logistic import LogisticModel
from .textclf import TextClassifier

SCHEMA_VERSION = 2


def _encode(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype="<f8")
    return {"shape": list(arr.shape), "data": base64.b64encode(arr.tobytes()).decode("ascii")}


def _decode(doc: dict) -> np.ndarray:
    raw = base64.b64decode(doc["data"])
    return np.frombuffer(raw, dtype="<f8").reshape(doc["shape"]).copy()


def model_to_doc(model, kind: str = "F", task: str | None = None, horizon: int | None = None) -> dict:
    """Serialize a trained predictor with its role metadata."""
    if isinstance(model, Standardized):
        doc = model_to_doc(model.model, kind, task, horizon)
        doc["transform"] = {"mean": _encode(model.mean), "scale": _encode(model.scale)}
        return doc
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "task": task,
        "horizon": horizon,
    }
    if isinstance(model, LinearModel):
        doc["architecture"] = "linear"
        doc["config"] = {"regularization": model.regularization, "lam": model.lam}
        doc["parameters"] = {"weights": _encode(model.weights), "bias": _encode(np.array(model.bias))}
        doc["shapes"] = {"features": int(model.weights.shape[0])}
    elif isinstance(model, LogisticModel):
        doc["architecture"] = "logistic"
        doc["config"] = {"threshold": model.threshold}
        doc["parameters"] = {"weights": _encode(model.weights), "bias": _encode(np.array(model.bias))}
        doc["shapes"] = {"features": int(model.weights.shape[0])}
    elif isinstance(model, AttentionRnn):
        doc["architecture"] = "attention-rnn"
        doc["config"] = {"seed": model.seed}
        doc["shapes"] = {"T": model.T, "n": model.n, "m": model.m, "p": model.p}
        doc["parameters"] = {k: _encode(v) for k, v in sorted(model.params.items())}
    elif isinstance(model, TextClassifier):
        if not isinstance(model.embedder, HashingEmbedder):
            raise ValueError("only reference-hash embedders serialize; external services do not")
        doc["architecture"] = "text-classifier"
        doc["config"] = {
            "embedder": {"dimension": model.embedder.dimension, "seed": model.embedder.seed},
            "threshold": model.head.threshold,
        }
        doc["shapes"] = {"features": int(model.head.weights.shape[0])}
        doc["parameters"] = {
            "weights": _encode(model.head.weights),
            "bias": _encode(np.array(model.head.bias)),
        }
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    return doc


def model_from_doc(doc: dict):
    """Rebuild what model_to_doc wrote. Schema 2 added the `transform` of a
    standardised column model; a doc without one, as every schema 1 doc,
    reads as the bare model it holds."""
    if doc.get("schema") not in (1, SCHEMA_VERSION):
        raise ValueError(f"unsupported schema version {doc.get('schema')!r}")
    arch = doc.get("architecture")
    params = doc.get("parameters", {})
    if arch in ("linear", "logistic"):
        weights, bias = _decode(params["weights"]), float(_decode(params["bias"]))
        if arch == "linear":
            config = doc["config"]
            model = LinearModel(weights, bias, config["regularization"], config["lam"])
        else:
            model = LogisticModel(weights, bias, doc["config"].get("threshold", 0.5))
        transform = doc.get("transform")
        if transform is None:
            return model
        return Standardized(model, _decode(transform["mean"]), _decode(transform["scale"]))
    if arch == "attention-rnn":
        shapes = doc["shapes"]
        model = AttentionRnn.init(
            T=shapes["T"], n=shapes["n"], m=shapes["m"], p=shapes["p"], seed=doc["config"]["seed"]
        )
        model.params = {k: _decode(v) for k, v in params.items()}
        return model
    if arch == "text-classifier":
        emb_cfg = doc["config"]["embedder"]
        head = LogisticModel(
            weights=_decode(params["weights"]),
            bias=float(_decode(params["bias"])),
            threshold=doc["config"].get("threshold", 0.5),
        )
        return TextClassifier(
            embedder=HashingEmbedder(dimension=emb_cfg["dimension"], seed=emb_cfg["seed"]),
            head=head,
        )
    raise ValueError(f"unknown architecture {arch!r}")
