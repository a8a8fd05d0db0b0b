"""Deterministic desk-scale classifier backend.

A hashed bag-of-tokens featurizer feeding a one-layer tanh encoder, a
linear softmax head over the training labels, a degenerate prefix block (a
trainable bias added to the encoded features), and a linear real-vs-
synthetic discriminator. Everything is float64 numpy with closed-form
gradients, trained by full-batch gradient descent, so runs are exactly
reproducible and gradients can be checked against finite differences.

Training steps along ``descent_direction``, which wraps the two loss
kernels: the classifier groups get the gradient of CE minus lam times IV
(the discriminator's real-vs-synthetic NLL), the discriminator the
gradient of IV alone (gradient reversal). The finite-difference tests
check this method, so the checked direction is the trained one.

Hashed features are about 3% non-zero, so ``featurize_pairs`` returns a
``scipy.sparse.csr_array`` and the encoder's products take it as it is; the
head, prefix and discriminator work on the dense 32-wide encoding. Each
backend memoizes its featurized rows by (arg1, arg2, domain token), which
makes one backend instance a feature store for every model that shares it.

A CE step on a few hundred rows takes under a millisecond, so work it
redoes on inputs that do not change between steps shows. The CE kernel
takes ``x.T`` from a caller that built it once, and ``encoder.W`` in either
memory order with the same bits: the CSR product reads ``W.T`` row-major,
so a column-major ``W`` is read in place where a row-major one is copied.

Parameter groups mirror the classifier contract: encoder, head, prefix,
discriminator. The discriminator's parameters are disjoint from the head.
"""

from __future__ import annotations

import hashlib
import math
import re
from typing import Mapping, NamedTuple, Sequence

import numpy as np
from scipy import sparse

from .records import ArgumentPair
from .taxonomy import RelationLabel, training_label_set

Params = dict[str, np.ndarray]
# dense rows or a CSR matrix; every product below is written for both
Features = np.ndarray | sparse.csr_array

# runs of alphanumerics, exactly the characters ``str.isalnum`` accepts
_TOKEN = re.compile(r"[^\W_]+")

PARAMETER_GROUPS: Mapping[str, tuple[str, ...]] = {
    "encoder": ("encoder.W", "encoder.b"),
    "prefix": ("prefix.p",),
    "head": ("head.W", "head.b"),
    "discriminator": ("disc.w", "disc.b"),
}


def group_keys(groups: Sequence[str]) -> list[str]:
    keys: list[str] = []
    for group in groups:
        if group not in PARAMETER_GROUPS:
            raise KeyError(f"unknown parameter group {group!r}")
        keys.extend(PARAMETER_GROUPS[group])
    return keys


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    expz = np.exp(z[~positive])
    out[~positive] = expz / (1.0 + expz)
    return out


class SparseRow(NamedTuple):
    """One featurized row: sorted distinct slots and their (read-only) values."""

    indices: np.ndarray
    values: np.ndarray


class ReferenceBackend:
    """Token-count featurizer + linear softmax classifier (float64)."""

    name = "reference"

    def __init__(
        self,
        labels: Sequence[RelationLabel] | None = None,
        feature_dim: int = 512,
        hidden_dim: int = 32,
    ):
        self.labels = list(labels if labels is not None else training_label_set())
        self.label_index = {label: i for i, label in enumerate(self.labels)}
        self.feature_dim = feature_dim
        self.hidden_dim = hidden_dim
        self._token_slots: dict[str, int] = {}
        self._rows: dict[tuple[str, str, str | None], SparseRow] = {}

    # --- featurization -------------------------------------------------

    def _slot(self, token: str) -> int:
        slot = self._token_slots.get(token)
        if slot is None:
            digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
            slot = int.from_bytes(digest, "big") % self.feature_dim
            self._token_slots[token] = slot
        return slot

    def _tokens(self, text: str) -> list[str]:
        return _TOKEN.findall(text.lower())

    def featurize(self, pair: ArgumentPair, domain_token: str | None = None) -> SparseRow:
        """Hashed counts with argument-position prefixes, L2-capped; memoized."""
        key = (pair.arg1, pair.arg2, domain_token)
        row = self._rows.get(key)
        if row is not None:
            return row
        counts: dict[int, int] = {}
        arg1 = pair.arg1 if domain_token is None else f"{domain_token} {pair.arg1}"
        for prefix, text in (("a1:", arg1), ("a2:", pair.arg2)):
            for token in self._tokens(text):
                slot = self._slot(prefix + token)
                counts[slot] = counts.get(slot, 0) + 1
        slots = sorted(counts)
        indices = np.array(slots, dtype=np.int32)
        values = np.array([counts[slot] for slot in slots], dtype=np.float64)
        # the integer sum of squared counts is exact, so this is the dense row's norm
        norm = math.sqrt(sum(count * count for count in counts.values()))
        if norm > 1.0:
            values /= norm
        values.flags.writeable = False
        row = self._rows[key] = SparseRow(indices, values)
        return row

    def featurize_pairs(
        self, pairs: Sequence[ArgumentPair], domain_tokens: Sequence[str | None] | None = None
    ) -> sparse.csr_array:
        if domain_tokens is None:
            domain_tokens = [None] * len(pairs)
        rows = [self.featurize(p, t) for p, t in zip(pairs, domain_tokens)]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([row.indices.size for row in rows], out=indptr[1:])
        indices = np.concatenate([row.indices for row in rows] + [np.empty(0, np.int32)])
        values = np.concatenate([row.values for row in rows] + [np.empty(0)])
        return sparse.csr_array((values, indices, indptr), shape=(len(rows), self.feature_dim))

    # --- parameters -----------------------------------------------------

    def init_params(self, rng: np.random.Generator) -> Params:
        v, h, c = self.feature_dim, self.hidden_dim, len(self.labels)
        return {
            "encoder.W": rng.normal(0.0, 1.0 / np.sqrt(v), size=(h, v)),
            "encoder.b": np.zeros(h),
            "prefix.p": np.zeros(h),
            "head.W": rng.normal(0.0, 1.0 / np.sqrt(h), size=(c, h)),
            "head.b": np.zeros(c),
            "disc.w": rng.normal(0.0, 1.0 / np.sqrt(h), size=h),
            "disc.b": np.zeros(1),
        }

    @staticmethod
    def copy_params(params: Params) -> Params:
        return {key: value.copy() for key, value in params.items()}

    # --- forward --------------------------------------------------------

    @staticmethod
    def _hidden(params: Params, x: Features) -> np.ndarray:
        """The tanh encoder's output, before the prefix bias (a fresh array).

        The bits do not depend on the layout of ``encoder.W``: the CSR
        product reads ``W.T`` row-major either way, and a dense product is
        given the row-major ``W`` because BLAS rounds differently by layout.
        """
        w = params["encoder.W"]
        if not sparse.issparse(x):
            w = np.ascontiguousarray(w)
        pre = x @ w.T
        pre += params["encoder.b"]
        return np.tanh(pre, out=pre)

    @staticmethod
    def _encoder_grads(x_t: Features, hidden: np.ndarray, d_encoded: np.ndarray) -> Params:
        """Prefix and encoder gradients from the loss gradient at the encoding.

        ``x_t`` is the transposed batch. Overwrites ``hidden`` with the
        gradient at the encoder's pre-activation.
        """
        d_pre = hidden
        d_pre *= hidden
        np.subtract(1.0, d_pre, out=d_pre)
        d_pre *= d_encoded
        return {
            "prefix.p": d_encoded.sum(axis=0),
            "encoder.W": (x_t @ d_pre).T,
            "encoder.b": d_pre.sum(axis=0),
        }

    def encode(self, params: Params, x: Features) -> np.ndarray:
        """Encoded features with the prefix bias block applied."""
        encoded = self._hidden(params, x)
        encoded += params["prefix.p"]
        return encoded

    def classify(self, params: Params, features: np.ndarray) -> np.ndarray:
        return features @ params["head.W"].T + params["head.b"]

    def score_matrix(self, params: Params, x: Features) -> np.ndarray:
        return self.classify(params, self.encode(params, x))

    # --- losses and gradients --------------------------------------------

    def ce_loss_and_grads(
        self, params: Params, x: Features, y: np.ndarray, x_t: Features | None = None
    ) -> tuple[float, Params]:
        """Mean cross-entropy and its gradient for the encoder, prefix and head groups.

        ``x_t`` is ``x.T``, built here unless the caller passes it in.
        """
        n = x.shape[0]
        hidden = self._hidden(params, x)
        encoded = hidden + params["prefix.p"]
        log_probs = encoded @ params["head.W"].T
        log_probs += params["head.b"]
        # row max as one elementwise pass per label column: numpy's reduction
        # along the short axis is several times slower at a few hundred rows,
        # and a max is exact in any order
        row_max = log_probs[:, 0].copy()
        for j in range(1, log_probs.shape[1]):
            np.maximum(row_max, log_probs[:, j], out=row_max)
        log_probs -= row_max[:, None]
        d_scores = np.exp(log_probs)
        log_probs -= np.log(d_scores.sum(axis=1))[:, None]
        # flat index of each row's gold label, for the gather and the scatter
        gold = np.arange(n) * log_probs.shape[1] + y
        loss = -float(log_probs.take(gold).mean())

        np.exp(log_probs, out=d_scores)
        d_scores.reshape(-1)[gold] -= 1.0
        d_scores /= n
        d_encoded = d_scores @ params["head.W"]
        return loss, {
            "head.W": d_scores.T @ encoded,
            "head.b": d_scores.sum(axis=0),
            **self._encoder_grads(x.T if x_t is None else x_t, hidden, d_encoded),
        }

    def iv_loss_and_grads(
        self, params: Params, x: Features, domain: np.ndarray
    ) -> tuple[float, Params]:
        """Binary NLL of the discriminator on real(0)-vs-synthetic(1) rows.

        Returns gradients for the discriminator, prefix and encoder groups; the
        head does not enter this loss.
        """
        m = x.shape[0]
        hidden = self._hidden(params, x)
        encoded = hidden + params["prefix.p"]
        z = encoded @ params["disc.w"] + params["disc.b"][0]
        loss = float((_softplus(z) - domain * z).mean())

        d_z = (_sigmoid(z) - domain) / m
        d_encoded = np.outer(d_z, params["disc.w"])
        return loss, {
            "disc.w": encoded.T @ d_z,
            "disc.b": np.array([d_z.sum()]),
            **self._encoder_grads(x.T, hidden, d_encoded),
        }

    def descent_direction(
        self,
        params: Params,
        x: Features,
        y: np.ndarray,
        lam: float,
        x_domain: Features | None,
        domain: np.ndarray | None,
        x_t: Features | None = None,
    ) -> tuple[float, Params]:
        """CE minus lam times IV, and the direction one training step descends.

        The classifier groups get the gradient of the returned loss; the
        discriminator gets the gradient of IV alone, so it minimizes the loss
        the classifier maximizes (gradient reversal). At lam=0 this is the CE
        kernel's result and the domain batch is not read. ``x_t`` is handed to
        the CE kernel as ``x.T``.
        """
        ce_loss, direction = self.ce_loss_and_grads(params, x, y, x_t)
        if lam == 0.0:
            return ce_loss, direction
        iv_loss, iv_grads = self.iv_loss_and_grads(params, x_domain, domain)
        for key, value in iv_grads.items():
            direction[key] = direction[key] - lam * value if key in direction else value
        return ce_loss - lam * iv_loss, direction
