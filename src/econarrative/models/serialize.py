"""Versioned JSON serialization of trained models: a standardised column
model or an attention RNN.

Parameter tensors travel as base64-encoded little-endian float64 bytes
so documents round-trip bit-exactly.
"""

from __future__ import annotations

import base64
import binascii

import numpy as np

from .columns import Standardized
from .darnn import AttentionRnn
from .linear import LinearModel
from .logistic import LogisticModel

SCHEMA_VERSION = 2


def _encode(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype="<f8")
    return {"shape": list(arr.shape), "data": base64.b64encode(arr.tobytes()).decode("ascii")}


def _decode(name: str, doc: dict) -> np.ndarray:
    try:
        raw = base64.b64decode(doc["data"], validate=True)
    except binascii.Error:
        raise ValueError(f"tensor {name!r}: data is not base64") from None
    return np.frombuffer(raw, dtype="<f8").reshape(doc["shape"]).copy()


def model_to_doc(model: Standardized | AttentionRnn) -> dict:
    """Serialize a standardised column model or an attention RNN."""
    doc = {"schema": SCHEMA_VERSION}
    if isinstance(model, Standardized):
        column = model.model
        doc["architecture"] = "linear" if isinstance(column, LinearModel) else "logistic"
        doc["parameters"] = {"weights": _encode(column.weights), "bias": _encode(np.array(column.bias))}
        doc["transform"] = {"mean": _encode(model.mean), "scale": _encode(model.scale)}
    elif isinstance(model, AttentionRnn):
        doc["architecture"] = "attention-rnn"
        doc["shapes"] = {"T": model.T, "n": model.n, "m": model.m, "p": model.p}
        doc["parameters"] = {k: _encode(v) for k, v in sorted(model.params.items())}
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    return doc


def model_from_doc(doc: dict) -> Standardized | AttentionRnn:
    """Rebuild what model_to_doc wrote. Schema 2 added the `transform` of a
    column model; a column doc without one, as every schema 1 doc, reads
    with the identity transform, mean 0 and scale 1. The `config` of an older
    doc is not read: for an attention RNN the seed of its initial weights, for
    a column model the penalty it was fitted with or the 0.5 threshold."""
    if not isinstance(doc, dict):
        raise ValueError("the top level must be an object")
    if doc.get("schema") not in (1, SCHEMA_VERSION):
        raise ValueError(f"unsupported schema version {doc.get('schema')!r}")
    arch = doc.get("architecture")
    params = doc.get("parameters", {})
    if arch in ("linear", "logistic"):
        weights, bias = _decode("weights", params["weights"]), float(_decode("bias", params["bias"]))
        model = (LinearModel if arch == "linear" else LogisticModel)(weights, bias)
        transform = doc.get("transform")
        if transform is None:
            return Standardized(model)
        parts = {name: _decode(name, transform[name]) for name in ("mean", "scale")}
        for name, part in parts.items():
            if part.shape not in ((), weights.shape):  # () for the identity transform
                raise ValueError(f"transform {name!r} has shape {part.shape}, "
                                 f"neither () nor the weights' {weights.shape}")
        return Standardized(model, **parts)
    if arch == "attention-rnn":
        shapes = doc["shapes"]
        model = AttentionRnn.init(T=shapes["T"], n=shapes["n"], m=shapes["m"], p=shapes["p"])
        tensors = {name: _decode(name, tensor) for name, tensor in params.items()}
        for name in sorted(model.params.keys() | tensors.keys()):
            if name not in tensors:
                raise ValueError(f"missing tensor {name!r}")
            if name not in model.params:
                raise ValueError(f"unknown tensor {name!r}")
            if tensors[name].shape != model.params[name].shape:
                raise ValueError(f"tensor {name!r} has shape {tensors[name].shape}, "
                                 f"but shapes {shapes} give {model.params[name].shape}")
        model.params = tensors
        return model
    raise ValueError(f"unknown architecture {arch!r}")
