"""Versioned JSON serialization of trained models: a standardised column
model or an attention RNN.

Parameter tensors travel as base64-encoded little-endian float64 bytes
so documents round-trip bit-exactly.
"""

from __future__ import annotations

import base64

import numpy as np

from .columns import Standardized
from .darnn import AttentionRnn
from .linear import LinearModel
from .logistic import LogisticModel

SCHEMA_VERSION = 2


def _encode(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype="<f8")
    return {"shape": list(arr.shape), "data": base64.b64encode(arr.tobytes()).decode("ascii")}


def _decode(doc: dict) -> np.ndarray:
    raw = base64.b64decode(doc["data"])
    return np.frombuffer(raw, dtype="<f8").reshape(doc["shape"]).copy()


def model_to_doc(model: Standardized | AttentionRnn) -> dict:
    """Serialize a standardised column model or an attention RNN."""
    doc = {"schema": SCHEMA_VERSION}
    if isinstance(model, Standardized):
        column = model.model
        if isinstance(column, LinearModel):
            doc["architecture"] = "linear"
            doc["config"] = {"regularization": column.regularization, "lam": column.lam}
        else:
            doc["architecture"] = "logistic"
            doc["config"] = {"threshold": column.threshold}
        doc["parameters"] = {"weights": _encode(column.weights), "bias": _encode(np.array(column.bias))}
        doc["transform"] = {"mean": _encode(model.mean), "scale": _encode(model.scale)}
    elif isinstance(model, AttentionRnn):
        doc["architecture"] = "attention-rnn"
        doc["config"] = {"seed": model.seed}
        doc["shapes"] = {"T": model.T, "n": model.n, "m": model.m, "p": model.p}
        doc["parameters"] = {k: _encode(v) for k, v in sorted(model.params.items())}
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    return doc


def model_from_doc(doc: dict) -> Standardized | AttentionRnn:
    """Rebuild what model_to_doc wrote. Schema 2 added the `transform` of a
    column model; a column doc without one, as every schema 1 doc, reads
    with the identity transform, mean 0 and scale 1."""
    if doc.get("schema") not in (1, SCHEMA_VERSION):
        raise ValueError(f"unsupported schema version {doc.get('schema')!r}")
    arch = doc.get("architecture")
    params = doc.get("parameters", {})
    if arch in ("linear", "logistic"):
        weights, bias = _decode(params["weights"]), float(_decode(params["bias"]))
        config = doc["config"]
        if arch == "linear":
            model = LinearModel(weights, bias, config["regularization"], config["lam"])
        else:
            model = LogisticModel(weights, bias, config.get("threshold", 0.5))
        transform = doc.get("transform")
        if transform is None:
            return Standardized(model)
        return Standardized(model, _decode(transform["mean"]), _decode(transform["scale"]))
    if arch == "attention-rnn":
        shapes = doc["shapes"]
        model = AttentionRnn.init(
            T=shapes["T"], n=shapes["n"], m=shapes["m"], p=shapes["p"], seed=doc["config"]["seed"]
        )
        model.params = {k: _decode(v) for k, v in params.items()}
        return model
    raise ValueError(f"unknown architecture {arch!r}")
