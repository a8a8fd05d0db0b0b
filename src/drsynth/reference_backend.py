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
backend memoizes its featurized rows by (arg1, arg2), which makes one
backend instance a feature store for every model that shares it. A domain
token is part of the Arg1 text (``adaptation.tag_text`` puts it there), so
no featurize method takes a domain.
``featurize_pairs`` featurizes a batch's new rows together, in one numpy pass
per ``FEATURIZE_CHUNK_ROWS`` rows: each token maps to an id in the backend's
vocabulary, one sort counts each (row, slot), and a row is divided by its L2
norm where that exceeds 1. It then reads every row through ``featurize``,
which reads the memo and featurizes a miss alone. ``featurize_rows`` runs
the same passes over every row of a data file and keeps nothing in the memo.
A row's bits do not depend on the batch it came in.

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
import re
from array import array
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

# rows per featurization pass. A pass holds a few int64 temporaries per token;
# at about 18 tokens a row each is under 80 KB, so a pass adds well under 1 MB
# to peak memory, and the time per row barely changes from 128 to 2,048 rows.
FEATURIZE_CHUNK_ROWS = 512

# rows per block of the CE kernel's ``head.W`` gradient. OpenBLAS splits one
# product over many rows differently at different thread counts, and the
# rounding follows the split; a sum of products over fixed blocks of this
# many rows has the same bits at 1, 2 and 4 threads, and at this many rows
# or fewer it is the plain product.
HEAD_GRAD_BLOCK_ROWS = 1024

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


def _blocked_gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a.T @ b`` summed over consecutive blocks of ``HEAD_GRAD_BLOCK_ROWS`` rows."""
    out = a[:HEAD_GRAD_BLOCK_ROWS].T @ b[:HEAD_GRAD_BLOCK_ROWS]
    for start in range(HEAD_GRAD_BLOCK_ROWS, a.shape[0], HEAD_GRAD_BLOCK_ROWS):
        out += a[start : start + HEAD_GRAD_BLOCK_ROWS].T @ b[start : start + HEAD_GRAD_BLOCK_ROWS]
    return out


class SparseRow(NamedTuple):
    """One featurized row: sorted distinct slots and their (read-only) values."""

    indices: np.ndarray
    values: np.ndarray


class _Vocabulary(dict):
    """Token -> id in first-seen order; a lookup of an unseen token adds it."""

    def __init__(self) -> None:
        super().__init__()
        self.tokens: list[str] = []

    def __missing__(self, token: str) -> int:
        self[token] = index = len(self.tokens)
        self.tokens.append(token)
        return index


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
        self._vocab = _Vocabulary()
        # row i: the slots of vocabulary token i under the "a1:" and "a2:" prefixes
        self._vocab_slots = np.empty((0, 2), dtype=np.intp)
        self._rows: dict[tuple[str, str], SparseRow] = {}

    # --- featurization -------------------------------------------------

    def _slot(self, token: str) -> int:
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big") % self.feature_dim

    def _tokens(self, text: str) -> list[str]:
        return _TOKEN.findall(text.lower())

    def _featurize_keys(
        self, keys: Sequence[tuple[str, str]]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The CSR ``(indptr, indices, values)`` of the keys' rows, in one numpy pass.

        Each row holds hashed token counts with argument-position prefixes,
        divided by the row's L2 norm when that exceeds 1. The counts are
        integers, so their sum of squares is exact in float64, and ``np.sqrt``
        and the elementwise division round as a per-row computation would.
        """
        vocab, dim, tokenize = self._vocab, self.feature_dim, self._tokens
        lookup = vocab.__getitem__
        ids = array("q")  # vocabulary id of every token, row by row, Arg1 then Arg2
        lengths = array("q")  # token counts of Arg1 and Arg2, row by row
        for arg1, arg2 in keys:
            tokens1, tokens2 = tokenize(arg1), tokenize(arg2)
            ids.extend(map(lookup, tokens1))
            ids.extend(map(lookup, tokens2))
            lengths.append(len(tokens1))
            lengths.append(len(tokens2))
        known = len(self._vocab_slots)
        if len(vocab.tokens) > known:
            fresh = [
                (self._slot("a1:" + token), self._slot("a2:" + token))
                for token in vocab.tokens[known:]
            ]
            self._vocab_slots = np.concatenate([self._vocab_slots, np.array(fresh, np.intp)])

        n = len(keys)
        # each token's argument: 2 * row for its Arg1, 2 * row + 1 for its Arg2
        argument = np.repeat(np.arange(2 * n), np.frombuffer(lengths, dtype=np.int64))
        # one sortable key per token: its row, then its slot
        cells = self._vocab_slots[np.frombuffer(ids, dtype=np.int64), argument & 1]
        cells += (argument >> 1) * dim
        cells.sort()
        first = np.flatnonzero(np.diff(cells, prepend=-1))
        counts = np.diff(first, append=cells.size)
        cells = cells[first]
        row_of = cells // dim
        norms = np.sqrt(np.bincount(row_of, weights=counts * counts, minlength=n))
        values = counts / np.maximum(norms, 1.0)[row_of]
        indices = (cells - row_of * dim).astype(np.int32)
        return np.searchsorted(row_of, np.arange(n + 1)), indices, values

    def _featurize_new(self, keys: Sequence[tuple[str, str]]) -> None:
        """Featurize distinct keys the memo lacks in one pass, and memoize them."""
        indptr, indices, values = self._featurize_keys(keys)
        values.flags.writeable = indices.flags.writeable = False
        bounds = indptr.tolist()
        for key, start, end in zip(keys, bounds, bounds[1:]):
            self._rows[key] = SparseRow(indices[start:end], values[start:end])

    def featurize(self, pair: ArgumentPair) -> SparseRow:
        """The memoized row of one pair; a miss featurizes it alone."""
        key = (pair.arg1, pair.arg2)
        row = self._rows.get(key)
        if row is None:
            self._featurize_new([key])
            row = self._rows[key]
        return row

    def featurize_pairs(self, pairs: Sequence[ArgumentPair]) -> sparse.csr_array:
        """Featurize the batch's new rows in chunks, then read every row from the memo."""
        memo = self._rows
        misses = [key for p in pairs if (key := (p.arg1, p.arg2)) not in memo]
        new = list(dict.fromkeys(misses))  # distinct, in first-seen order
        for start in range(0, len(new), FEATURIZE_CHUNK_ROWS):
            self._featurize_new(new[start : start + FEATURIZE_CHUNK_ROWS])
        rows = [self.featurize(p) for p in pairs]
        # int32 offsets, as ``featurize_rows`` builds them: an int64 ``indptr``
        # makes scipy widen the matrix's indices to 8 bytes a value too
        indptr = np.zeros(len(rows) + 1, dtype=np.int32)
        np.cumsum([row.indices.size for row in rows], dtype=np.int32, out=indptr[1:])
        indices = np.concatenate([row.indices for row in rows] + [np.empty(0, np.int32)])
        values = np.concatenate([row.values for row in rows] + [np.empty(0)])
        return sparse.csr_array((values, indices, indptr), shape=(len(rows), self.feature_dim))

    def featurize_rows(self, pairs: Sequence[ArgumentPair]) -> sparse.csr_array:
        """``featurize_pairs`` of every row afresh, in chunks, neither reading nor filling the memo.

        For the rows of a data file, which a store keeps as one matrix: in the
        memo they would cost a row object each for as long as the backend lives.
        """
        keys = [(p.arg1, p.arg2) for p in pairs]
        # int32 offsets, so that scipy keeps the matrix's index arrays at 4 bytes a value
        indptr, indices, values = [np.zeros(1, np.int32)], [np.empty(0, np.int32)], [np.empty(0)]
        for start in range(0, len(keys), FEATURIZE_CHUNK_ROWS):
            bounds, slots, counts = self._featurize_keys(keys[start : start + FEATURIZE_CHUNK_ROWS])
            indptr.append((bounds[1:] + indptr[-1][-1]).astype(np.int32))
            indices.append(slots)
            values.append(counts)
        return sparse.csr_array(
            (np.concatenate(values), np.concatenate(indices), np.concatenate(indptr)),
            shape=(len(keys), self.feature_dim),
        )

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
            "head.W": _blocked_gram(d_scores, encoded),
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
