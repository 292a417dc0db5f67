"""Dual-stage attention RNN over an exogenous driver matrix.

Forward pass, per sample: an encoder walks T steps of n driving series,
re-weighting the drivers at every step with an input-attention softmax
conditioned on its own LSTM state; a decoder then attends over the T
encoder hidden states (temporal attention), combines the context vector
with the target history, and a final affine map emits a scalar.

All gradients are derived by hand and verified against central finite
differences (see gradient_check); training is plain mini-batch gradient
descent on the mean squared error.

Shapes: drivers (B, T, n), target history (B, T), labels (B,).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .logistic import _sigmoid


class DivergenceError(RuntimeError):
    pass


def _lstm(W, b, h, s, x):
    """One LSTM step over input x, gates stacked [i, f, o, g] in W and b.

    Returns the new hidden and cell states and the step's cache for
    _lstm_backward.
    """
    k = h.shape[1]
    lstm_in = np.concatenate([h, x], axis=1)
    pre = lstm_in @ W.T + b
    gi = _sigmoid(pre[:, :k])
    gf = _sigmoid(pre[:, k:2 * k])
    go = _sigmoid(pre[:, 2 * k:3 * k])
    gg = np.tanh(pre[:, 3 * k:])
    s_new = gf * s + gi * gg
    h_new = go * np.tanh(s_new)
    return h_new, s_new, (lstm_in, s, s_new, gi, gf, go, gg)


def _lstm_backward(W, g_W, g_b, cell, g_h, g_s):
    """Backward through one _lstm step, given the gradients of its new
    hidden and cell states. Adds into g_W and g_b; returns the gradients
    of [h; x] and of the previous cell state."""
    lstm_in, s_prev, s_new, gi, gf, go, gg = cell
    tc = np.tanh(s_new)
    g_s_tot = g_s + g_h * go * (1.0 - tc * tc)
    g_pre = np.concatenate(
        [
            g_s_tot * gg * gi * (1.0 - gi),
            g_s_tot * s_prev * gf * (1.0 - gf),
            g_h * tc * go * (1.0 - go),
            g_s_tot * gi * (1.0 - gg * gg),
        ],
        axis=1,
    )
    g_W += g_pre.T @ lstm_in
    g_b += g_pre.sum(axis=0)
    return g_pre @ W, g_s_tot * gf


def _attend(W, v, h, s, proj):
    """Additive attention over K items: softmax(tanh([h; s] W^T + proj) v)
    over axis 1, where proj (B, K, d) is the items' own projection.

    Returns the (B, K) weights and the step's cache for _attend_backward.
    """
    z = np.concatenate([h, s], axis=1)
    G = np.tanh((z @ W.T)[:, None, :] + proj)
    E = G @ v
    e = np.exp(E - E.max(axis=1, keepdims=True))
    weights = e / e.sum(axis=1, keepdims=True)
    return weights, (z, G, weights)


def _attend_backward(W, v, g_W, g_v, att, g_weights):
    """Backward through one _attend step, given the gradient of its
    weights. Adds into g_W and g_v; returns the gradients of proj and of
    [h; s]."""
    z, G, weights = att
    g_E = weights * (g_weights - (g_weights * weights).sum(axis=1, keepdims=True))
    g_v += np.einsum("bk,bkd->d", g_E, G)
    g_G = g_E[:, :, None] * v[None, None, :]
    g_proj = g_G * (1.0 - G * G)
    g_state = g_proj.sum(axis=1)
    g_W += g_state.T @ z
    return g_proj, g_state @ W


@dataclass
class AttentionRnn:
    """Parameter container; use AttentionRnn.init to build one."""

    T: int
    n: int
    m: int
    p: int
    seed: int
    params: dict[str, np.ndarray]
    epoch_mse: list[float] = field(default_factory=list)

    @classmethod
    def init(cls, T: int, n: int, m: int, p: int, seed: int = 0) -> "AttentionRnn":
        if T < 1:
            raise ValueError("window length T must be >= 1")
        if n < 1:
            raise ValueError("model requires at least one exogenous driver series")
        if m < 1 or p < 1:
            raise ValueError("hidden sizes must be positive")
        rng = np.random.default_rng(seed)

        def uniform(shape, fan):
            r = 1.0 / np.sqrt(fan)
            return rng.uniform(-r, r, size=shape)

        params = {
            # input attention over the n drivers
            "att_in_W": uniform((T, 2 * m), 2 * m),
            "att_in_U": uniform((T, T), T),
            "att_in_v": uniform((T,), T),
            # encoder LSTM, gates stacked [i, f, o, g]
            "enc_W": uniform((4 * m, m + n), m + n),
            "enc_b": np.zeros(4 * m),
            # temporal attention over the T encoder states
            "att_tm_W": uniform((m, 2 * p), 2 * p),
            "att_tm_U": uniform((m, m), m),
            "att_tm_v": uniform((m,), m),
            # target history + context combiner
            "mix_w": uniform((1 + m,), 1 + m),
            "mix_b": np.zeros(1),
            # decoder LSTM over the combined scalar
            "dec_W": uniform((4 * p, p + 1), p + 1),
            "dec_b": np.zeros(4 * p),
            # output map over [decoder state; context]
            "out_W": uniform((p, p + m), p + m),
            "out_b": np.zeros(p),
            "out_v": uniform((p,), p),
            "out_c": np.zeros(1),
        }
        return cls(T=T, n=n, m=m, p=p, seed=seed, params=params)

    def copy(self) -> "AttentionRnn":
        return AttentionRnn(
            T=self.T,
            n=self.n,
            m=self.m,
            p=self.p,
            seed=self.seed,
            params={k: v.copy() for k, v in self.params.items()},
            epoch_mse=list(self.epoch_mse),
        )

    # -- forward ---------------------------------------------------------

    def _check_shapes(self, X: np.ndarray, Y: np.ndarray) -> None:
        if X.ndim != 3 or X.shape[1:] != (self.T, self.n):
            raise ValueError(f"drivers must have shape (B, {self.T}, {self.n}), got {X.shape}")
        if Y.shape != X.shape[:2]:
            raise ValueError(f"target history must have shape (B, {self.T}), got {Y.shape}")

    def forward(self, X, Y, want_cache: bool = False):
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        self._check_shapes(X, Y)
        with np.errstate(over="ignore", invalid="ignore"):
            # overflow during divergence is surfaced by the callers'
            # finite checks, not as a warning
            return self._forward(X, Y, want_cache)

    def _forward(self, X, Y, want_cache: bool):
        B, T, n = X.shape
        m, p = self.m, self.p
        P = self.params

        # driver-series projection, shared by every encoder step
        att_in_proj = np.einsum("ts,bsk->bkt", P["att_in_U"], X)  # (B, n, T)

        h = np.zeros((B, m))
        s = np.zeros((B, m))
        H = np.zeros((B, T, m))
        enc_steps = []
        alphas = np.zeros((B, T, n))
        for t in range(T):
            alpha, att = _attend(P["att_in_W"], P["att_in_v"], h, s, att_in_proj)
            h, s, cell = _lstm(P["enc_W"], P["enc_b"], h, s, alpha * X[:, t, :])
            enc_steps.append((att, cell))
            alphas[:, t, :] = alpha
            H[:, t, :] = h

        att_tm_proj = np.einsum("mj,btj->btm", P["att_tm_U"], H)   # (B, T, m)

        dh = np.zeros((B, p))
        ds = np.zeros((B, p))
        dec_steps = []
        betas = np.zeros((B, T, T))
        context = np.zeros((B, m))
        for t in range(T):
            beta, att = _attend(P["att_tm_W"], P["att_tm_v"], dh, ds, att_tm_proj)
            context = np.einsum("bt,btm->bm", beta, H)
            mix_in = np.concatenate([Y[:, t:t + 1], context], axis=1)  # (B, 1+m)
            y_mix = mix_in @ P["mix_w"] + P["mix_b"]               # (B,)
            dh, ds, cell = _lstm(P["dec_W"], P["dec_b"], dh, ds, y_mix[:, None])
            dec_steps.append((att, mix_in, cell))
            betas[:, t, :] = beta

        final_in = np.concatenate([dh, context], axis=1)           # (B, p+m)
        q = final_in @ P["out_W"].T + P["out_b"]                   # (B, p)
        y_hat = q @ P["out_v"] + P["out_c"]                        # (B,)

        if not want_cache:
            return y_hat
        cache = {
            "X": X, "att_in_proj": att_in_proj, "enc_steps": enc_steps, "H": H,
            "att_tm_proj": att_tm_proj, "dec_steps": dec_steps,
            "final_in": final_in, "q": q, "alphas": alphas, "betas": betas,
        }
        return y_hat, cache

    def predict(self, X, Y) -> np.ndarray:
        return self.forward(X, Y)

    # -- backward --------------------------------------------------------

    def loss(self, X, Y, labels) -> float:
        labels = np.asarray(labels, dtype=float)
        y_hat = self.forward(X, Y)
        with np.errstate(over="ignore", invalid="ignore"):
            # overflow here is how divergence gets detected upstream
            return float(np.mean((y_hat - labels) ** 2))

    def loss_and_grads(self, X, Y, labels):
        """MSE on the batch and its gradient for every parameter tensor."""
        labels = np.asarray(labels, dtype=float)
        y_hat, cache = self.forward(X, Y, want_cache=True)
        with np.errstate(over="ignore", invalid="ignore"):
            # as in forward: divergence surfaces in train_darnn's finite checks
            return self._backward(y_hat, labels, cache)

    def _backward(self, y_hat, labels, cache):
        B = y_hat.shape[0]
        m, p, T = self.m, self.p, self.T
        P = self.params
        grads = {k: np.zeros_like(v) for k, v in P.items()}

        loss = float(np.mean((y_hat - labels) ** 2))
        g_yhat = 2.0 * (y_hat - labels) / B                        # (B,)

        # output affine
        grads["out_c"] += g_yhat.sum()
        grads["out_v"] += cache["q"].T @ g_yhat
        g_q = g_yhat[:, None] * P["out_v"][None, :]
        grads["out_W"] += g_q.T @ cache["final_in"]
        grads["out_b"] += g_q.sum(axis=0)
        g_final = g_q @ P["out_W"]
        g_dh = g_final[:, :p]
        g_context_out = g_final[:, p:]
        g_ds = np.zeros((B, p))

        H = cache["H"]
        g_H = np.zeros_like(H)
        g_att_tm_proj = np.zeros_like(cache["att_tm_proj"])

        for t in range(T - 1, -1, -1):
            att, mix_in, cell = cache["dec_steps"][t]
            g_in, g_ds_prev = _lstm_backward(
                P["dec_W"], grads["dec_W"], grads["dec_b"], cell, g_dh, g_ds
            )
            g_ymix = g_in[:, p]
            grads["mix_w"] += mix_in.T @ g_ymix
            grads["mix_b"] += g_ymix.sum()
            g_context = g_ymix[:, None] * P["mix_w"][None, 1:]
            if t == T - 1:
                g_context = g_context + g_context_out

            g_beta = np.einsum("bm,btm->bt", g_context, H)
            g_H += cache["betas"][:, t, :, None] * g_context[:, None, :]
            g_proj, g_z = _attend_backward(
                P["att_tm_W"], P["att_tm_v"], grads["att_tm_W"], grads["att_tm_v"], att, g_beta
            )
            g_att_tm_proj += g_proj
            g_dh = g_in[:, :p] + g_z[:, :p]
            g_ds = g_ds_prev + g_z[:, p:]

        # shared temporal projection: att_tm_proj = H @ att_tm_U.T
        grads["att_tm_U"] += np.einsum("btm,btj->mj", g_att_tm_proj, H)
        g_H += np.einsum("btm,mj->btj", g_att_tm_proj, P["att_tm_U"])

        X = cache["X"]
        g_att_in_proj = np.zeros_like(cache["att_in_proj"])
        g_h = np.zeros((B, m))
        g_s = np.zeros((B, m))
        for t in range(T - 1, -1, -1):
            att, cell = cache["enc_steps"][t]
            g_in, g_s_prev = _lstm_backward(
                P["enc_W"], grads["enc_W"], grads["enc_b"], cell, g_h + g_H[:, t, :], g_s
            )
            g_proj, g_z = _attend_backward(
                P["att_in_W"], P["att_in_v"], grads["att_in_W"], grads["att_in_v"], att,
                g_in[:, m:] * X[:, t, :],
            )
            g_att_in_proj += g_proj
            g_h = g_in[:, :m] + g_z[:, :m]
            g_s = g_s_prev + g_z[:, m:]

        # shared driver projection: att_in_proj[b,k,t] = sum_s att_in_U[t,s] X[b,s,k]
        grads["att_in_U"] += np.einsum("bkt,bsk->ts", g_att_in_proj, X)

        return loss, grads


def train_darnn(
    model: AttentionRnn,
    drivers,
    target_history,
    labels,
    epochs: int = 100,
    learning_rate: float = 1e-3,
    seed: int = 0,
    batch_size: int = 32,
) -> AttentionRnn:
    """Mini-batch gradient descent on MSE; returns a new trained model.

    Per-epoch full-data MSE is recorded on the returned model's
    epoch_mse list. Raises DivergenceError on a non-finite loss.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    X = np.asarray(drivers, dtype=float)
    Y = np.asarray(target_history, dtype=float)
    labels = np.asarray(labels, dtype=float)
    trained = model.copy()
    trained.epoch_mse = []
    rng = np.random.default_rng(seed)
    n_samples = X.shape[0]
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n_samples)
        for start in range(0, n_samples, batch_size):
            idx = order[start:start + batch_size]
            loss, grads = trained.loss_and_grads(X[idx], Y[idx], labels[idx])
            if not np.isfinite(loss):
                raise DivergenceError(f"training diverged at epoch {epoch}")
            for key, grad in grads.items():
                trained.params[key] -= learning_rate * grad
                if not np.isfinite(trained.params[key]).all():
                    raise DivergenceError(f"training diverged at epoch {epoch}")
        epoch_loss = trained.loss(X, Y, labels)
        if not np.isfinite(epoch_loss):
            raise DivergenceError(f"training diverged at epoch {epoch}")
        trained.epoch_mse.append(epoch_loss)
    return trained


def gradient_check(model: AttentionRnn, drivers, target_history, labels, step: float = 1e-5) -> float:
    """Max relative error of analytic gradients vs central differences.

    The error is measured per parameter tensor in the inf-norm: the
    largest entrywise disagreement divided by the largest gradient
    magnitude in that tensor, floored at 1e-6. The floor reflects the
    oracle's resolution: a central difference on a float64 loss carries
    ~1e-11 absolute noise, so tensors whose whole gradient sits below
    1e-6 can only be verified absolutely, not relatively. A non-finite
    gradient on either side makes the result NaN, which fails any bound.
    """
    X = np.asarray(drivers, dtype=float)
    Y = np.asarray(target_history, dtype=float)
    labels = np.asarray(labels, dtype=float)
    _, grads = model.loss_and_grads(X, Y, labels)
    errors = []
    probe = model.copy()
    for key in sorted(probe.params):
        tensor = probe.params[key]
        flat = tensor.reshape(-1)
        analytic = grads[key].reshape(-1)
        numeric = np.empty_like(analytic)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + step
            up = probe.loss(X, Y, labels)
            flat[idx] = original - step
            down = probe.loss(X, Y, labels)
            flat[idx] = original
            numeric[idx] = (up - down) / (2.0 * step)
        scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-6)
        errors.append(float(np.abs(analytic - numeric).max()) / scale)
    return float(np.max(errors))  # np.max propagates NaN where max() would drop it
