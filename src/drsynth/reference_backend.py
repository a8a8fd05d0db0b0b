"""Deterministic desk-scale classifier backend.

A hashed bag-of-tokens featurizer feeding a one-layer tanh encoder, a
linear softmax head over the training labels, a degenerate prefix block (a
trainable bias added to the encoded features), and a linear real-vs-
synthetic discriminator. Everything is float64 numpy with closed-form
gradients, trained by full-batch gradient descent, so runs are exactly
reproducible and gradients can be checked against finite differences.

Hashed features are about 3% non-zero, so ``featurize_pairs`` returns a
``scipy.sparse.csr_array`` and the encoder's products take it as it is; the
head, prefix and discriminator work on the dense 32-wide encoding. Each
backend memoizes its featurized rows by (arg1, arg2, domain token), which
makes one backend instance a feature store for every model that shares it.

Parameter groups mirror the classifier contract: encoder, head, prefix,
discriminator. The discriminator's parameters are disjoint from the head.
"""

from __future__ import annotations

import hashlib
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
        # a sum of squared integer counts is exact, so this is the dense row's norm
        norm = np.linalg.norm(values)
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

    def encode(self, params: Params, x: Features) -> np.ndarray:
        """Encoded features with the prefix bias block applied."""
        hidden = np.tanh(x @ params["encoder.W"].T + params["encoder.b"])
        return hidden + params["prefix.p"]

    def classify(self, params: Params, features: np.ndarray) -> np.ndarray:
        return features @ params["head.W"].T + params["head.b"]

    def score_matrix(self, params: Params, x: Features) -> np.ndarray:
        return self.classify(params, self.encode(params, x))

    # --- losses and gradients --------------------------------------------

    def ce_loss_and_grads(
        self, params: Params, x: Features, y: np.ndarray
    ) -> tuple[float, Params]:
        n = x.shape[0]
        hidden = np.tanh(x @ params["encoder.W"].T + params["encoder.b"])
        encoded = hidden + params["prefix.p"]
        scores = encoded @ params["head.W"].T + params["head.b"]
        shift = scores - scores.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shift).sum(axis=1))
        log_probs = shift - log_z[:, None]
        loss = -float(log_probs[np.arange(n), y].mean())

        d_scores = np.exp(log_probs)
        d_scores[np.arange(n), y] -= 1.0
        d_scores /= n
        d_encoded = d_scores @ params["head.W"]
        d_pre = d_encoded * (1.0 - hidden**2)
        grads = {
            "head.W": d_scores.T @ encoded,
            "head.b": d_scores.sum(axis=0),
            "prefix.p": d_encoded.sum(axis=0),
            "encoder.W": (x.T @ d_pre).T,
            "encoder.b": d_pre.sum(axis=0),
            "disc.w": np.zeros_like(params["disc.w"]),
            "disc.b": np.zeros_like(params["disc.b"]),
        }
        return loss, grads

    def iv_loss_and_grads(
        self, params: Params, x: Features, domain: np.ndarray
    ) -> tuple[float, Params]:
        """Binary NLL of the discriminator on real(0)-vs-synthetic(1) rows."""
        m = x.shape[0]
        hidden = np.tanh(x @ params["encoder.W"].T + params["encoder.b"])
        encoded = hidden + params["prefix.p"]
        z = encoded @ params["disc.w"] + params["disc.b"][0]
        loss = float((_softplus(z) - domain * z).mean())

        d_z = (_sigmoid(z) - domain) / m
        d_encoded = np.outer(d_z, params["disc.w"])
        d_pre = d_encoded * (1.0 - hidden**2)
        grads = {
            "disc.w": encoded.T @ d_z,
            "disc.b": np.array([d_z.sum()]),
            "prefix.p": d_encoded.sum(axis=0),
            "encoder.W": (x.T @ d_pre).T,
            "encoder.b": d_pre.sum(axis=0),
            "head.W": np.zeros_like(params["head.W"]),
            "head.b": np.zeros_like(params["head.b"]),
        }
        return loss, grads

    def total_loss_and_grads(
        self,
        params: Params,
        x: Features,
        y: np.ndarray,
        x_domain: Features,
        domain: np.ndarray,
        lam: float,
    ) -> tuple[float, Params]:
        """Cross-entropy minus lam times the invariance term, with its exact gradient."""
        ce_loss, ce_grads = self.ce_loss_and_grads(params, x, y)
        if lam == 0.0:
            return ce_loss, ce_grads
        iv_loss, iv_grads = self.iv_loss_and_grads(params, x_domain, domain)
        grads = {key: ce_grads[key] - lam * iv_grads[key] for key in ce_grads}
        return ce_loss - lam * iv_loss, grads
