"""Binary classifier over embedded prompt texts.

Embeds the prompts in one batch with the supplied embedder and fits a logistic head.
The same embedder instance must be used at train and inference time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .logistic import LogisticModel, fit_logistic


@dataclass(frozen=True)
class TextClassifier:
    embedder: object
    head: LogisticModel

    def _matrix(self, prompts: Sequence[str]) -> np.ndarray:
        return self.embedder.embed_batch(prompts)

    def predict_proba(self, prompts: Sequence[str]) -> np.ndarray:
        return self.head.predict_proba(self._matrix(prompts))

    def predict(self, prompts: Sequence[str]) -> np.ndarray:
        return self.head.predict(self._matrix(prompts))


def fit_text_classifier(
    prompts: Sequence[str], labels, embedder, lam: float = 0.01
) -> TextClassifier:
    if len(prompts) == 0:
        raise ValueError("no prompts to fit on")
    X = embedder.embed_batch(prompts)
    head = fit_logistic(X, np.asarray(labels, dtype=float), lam=lam)
    return TextClassifier(embedder=embedder, head=head)
