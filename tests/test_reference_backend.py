import os
import random
import subprocess
import sys
from functools import partial

import numpy as np
import pytest
from scipy import sparse

from drsynth.adaptation import tag_text
from drsynth.records import ArgumentPair
from drsynth.reference_backend import (
    FEATURIZE_CHUNK_ROWS,
    HEAD_GRAD_BLOCK_ROWS,
    ReferenceBackend,
    _sigmoid,
    _softplus,
)


def _char_loop_tokens(text: str) -> list[str]:
    """The original tokenizer, kept as the oracle for the regex one."""
    return [t for t in "".join(c if c.isalnum() else " " for c in text.lower()).split() if t]


def _dense_featurize(backend: ReferenceBackend, pair: ArgumentPair) -> np.ndarray:
    """The original dense featurizer: hashed counts, L2-capped over the full vector."""
    x = np.zeros(backend.feature_dim)
    for prefix, text in (("a1:", pair.arg1), ("a2:", pair.arg2)):
        for token in _char_loop_tokens(text):
            x[backend._slot(prefix + token)] += 1.0
    norm = np.linalg.norm(x)
    if norm > 1.0:
        x /= norm
    return x


UNICODE_SAMPLE = [
    "⟨EP⟩ The vote passed, narrowly.",
    "snake_case_words and __dunder__ _lead trail_",
    "room 101, 3.14 and ²³ ½ ٣ Ⅻ 1st",
    "Café déjà-vu naïve façade Ångström ÆØÅ œuvre",
    "İstanbul İI ı ß ẞ ǅ ﬁ Σίσυφος ΣΑΣ",
    "中文分词 テスト한국어 עברית العربية हिन्दी",
    "emoji 🙂 tab\tnew\nline  nbsp ​zero-width",
    "",
    "   ",
    "á combining ë",
]


class TestTokenizer:
    def test_regex_matches_char_loop_on_sample(self):
        backend = ReferenceBackend()
        for text in UNICODE_SAMPLE:
            assert backend._tokens(text) == _char_loop_tokens(text), text

    def test_regex_matches_char_loop_on_every_code_point(self):
        backend = ReferenceBackend()
        text = " ".join(chr(c) for c in range(0x110000) if not 0xD800 <= c < 0xE000)
        assert backend._tokens(text) == _char_loop_tokens(text)


def _chunk_plus_three() -> list[ArgumentPair]:
    """A batch one chunk and three rows long, so its last rows fall in a second pass."""
    return [
        ArgumentPair(arg1=f"row {i} shares word{i % 97}", arg2=f"then {i % 13} and more{i}")
        for i in range(FEATURIZE_CHUNK_ROWS + 3)
    ]


def _tagged(pair: ArgumentPair, domain: str) -> ArgumentPair:
    return ArgumentPair(arg1=tag_text(pair.arg1, domain), arg2=pair.arg2)


def _row_bytes(row) -> tuple:
    return row.indices.dtype, row.indices.tobytes(), row.values.dtype, row.values.tobytes()


class TestFeatureStore:
    def test_sparse_rows_equal_dense_featurizer(self):
        backend = ReferenceBackend()
        texts = [text for text in UNICODE_SAMPLE if text.strip()]
        pairs = [ArgumentPair(arg1=text, arg2=texts[-1 - i]) for i, text in enumerate(texts)]
        empty = ArgumentPair(arg1="?!", arg2="¿...")
        unseen = ArgumentPair(arg1="a zyzzyva appears", arg2="only in a later batch")
        large = _chunk_plus_three()
        batches = [
            # tagged and untagged rows, and a pair without tokens
            [_tagged(p, "EP") if i % 2 else p for i, p in enumerate(pairs)] + [empty],
            # every sample tagged, mostly memo misses
            [_tagged(p, "EP") for p in pairs],
            # duplicate keys, memo hits mixed with misses, and tokens first seen now
            [pairs[0], unseen, _tagged(pairs[0], "WK"), unseen, empty, _tagged(pairs[1], "EP"),
             _tagged(unseen, "EP")],
            # a row on each side of a chunk boundary
            large,
        ]
        stored = {}
        for batch in batches:
            x = backend.featurize_pairs(batch)
            assert isinstance(x, sparse.csr_array)
            assert x.dtype == np.float64 and x.shape == (len(batch), backend.feature_dim)
            dense = np.stack([_dense_featurize(backend, p) for p in batch])
            assert np.array_equal(x.toarray(), dense)
            for i, pair in enumerate(batch):
                row = stored.setdefault(pair, backend.featurize(pair))
                assert backend.featurize(pair) is row
                span = slice(x.indptr[i], x.indptr[i + 1])
                assert np.array_equal(x.indices[span], row.indices)
                assert np.array_equal(x.data[span], row.values)
        assert backend.featurize(empty).indices.size == 0  # a pair without tokens is an empty row

    def test_row_bits_do_not_depend_on_the_batch(self):
        large = _chunk_plus_three()
        probes = [large[3], large[-2], ArgumentPair(arg1=UNICODE_SAMPLE[4], arg2=UNICODE_SAMPLE[5])]
        shuffled = large[:50] + probes
        random.Random(3).shuffle(shuffled)
        for probe in map(partial(_tagged, domain="EP"), probes):
            alone = _row_bytes(ReferenceBackend().featurize(probe))
            for batch in (shuffled, large + probes):
                backend = ReferenceBackend()
                backend.featurize_pairs([_tagged(p, "EP") for p in batch])
                assert _row_bytes(backend.featurize(probe)) == alone

    def test_memo_keeps_domain_tokens_apart(self):
        """A tagged Arg1 is another text, so another memo key and another row."""
        backend = ReferenceBackend()
        pair = ArgumentPair(arg1="The vote passed.", arg2="It was close.")
        variants = [pair, _tagged(pair, "EP"), _tagged(pair, "WK")]
        rows = [backend.featurize(p) for p in variants]
        assert all(backend.featurize(p) is row for p, row in zip(variants, rows))
        assert len({tuple(row.indices.tolist()) for row in rows}) == 3
        x = backend.featurize_pairs(variants)
        for i, p in enumerate(variants):
            assert np.array_equal(x[[i]].toarray()[0], _dense_featurize(backend, p))

    def test_memoized_rows_are_read_only(self):
        backend = ReferenceBackend()
        row = backend.featurize(ArgumentPair(arg1="one two", arg2="three"))
        assert not row.values.flags.writeable

    def test_empty_batch(self):
        x = ReferenceBackend().featurize_pairs([])
        assert x.shape == (0, 512) and x.nnz == 0

    def test_both_paths_keep_int32_index_arrays(self):
        """The memo and the file path give the same int32 CSR arrays, with the old offsets."""
        pairs = [_tagged(p, "EP") if i % 2 else p for i, p in enumerate(_chunk_plus_three())]
        backend = ReferenceBackend()
        memo = backend.featurize_pairs(pairs)
        rows = ReferenceBackend().featurize_rows(pairs)
        for x in (memo, rows, backend.featurize_pairs([])):
            assert x.indptr.dtype == np.int32 and x.indices.dtype == np.int32
        # the offsets as they were built before, in int64
        sizes = [backend.featurize(p).indices.size for p in pairs]
        assert memo.indptr.tolist() == np.concatenate([[0], np.cumsum(sizes)]).tolist()
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(memo, name), getattr(rows, name)), name


def _ce_oracle(params, x, y):
    """The original cross-entropy kernel, kept as the oracle for the in-place one."""
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
    return loss, {
        "head.W": d_scores.T @ encoded,
        "head.b": d_scores.sum(axis=0),
        "prefix.p": d_encoded.sum(axis=0),
        "encoder.W": (x.T @ d_pre).T,
        "encoder.b": d_pre.sum(axis=0),
        "disc.w": np.zeros_like(params["disc.w"]),
        "disc.b": np.zeros_like(params["disc.b"]),
    }


def _iv_oracle(params, x, domain):
    """The original invariance kernel, kept as the oracle for the in-place one."""
    m = x.shape[0]
    hidden = np.tanh(x @ params["encoder.W"].T + params["encoder.b"])
    encoded = hidden + params["prefix.p"]
    z = encoded @ params["disc.w"] + params["disc.b"][0]
    loss = float((_softplus(z) - domain * z).mean())
    d_z = (_sigmoid(z) - domain) / m
    d_encoded = np.outer(d_z, params["disc.w"])
    d_pre = d_encoded * (1.0 - hidden**2)
    return loss, {
        "disc.w": encoded.T @ d_z,
        "disc.b": np.array([d_z.sum()]),
        "prefix.p": d_encoded.sum(axis=0),
        "encoder.W": (x.T @ d_pre).T,
        "encoder.b": d_pre.sum(axis=0),
        "head.W": np.zeros_like(params["head.W"]),
        "head.b": np.zeros_like(params["head.b"]),
    }


class TestKernels:
    """The CE and IV kernels give bit-identical values to the original formulas."""

    def _inputs(self):
        backend = ReferenceBackend()
        rng = np.random.default_rng(41)
        params = backend.init_params(rng)
        for key in params:
            params[key] = params[key] + rng.normal(0.0, 0.3, size=params[key].shape)
        words = "the vote passed narrowly because members were absent so it was close".split()
        pairs = [
            ArgumentPair(
                arg1=" ".join(rng.choice(words, size=int(rng.integers(1, 30)))),
                arg2=" ".join(rng.choice(words, size=int(rng.integers(1, 30)))),
            )
            for _ in range(60)
        ]
        x = backend.featurize_pairs(pairs)
        y = rng.integers(0, len(backend.labels), size=len(pairs))
        domain = (rng.random(len(pairs)) < 0.5).astype(np.float64)
        return backend, params, x, y, domain

    def test_kernels_equal_the_original_formulas_on_dense_and_csr_input(self):
        backend, params, csr, y, domain = self._inputs()
        for x in (csr, csr.toarray()):
            for kernel, oracle, target, dropped in (
                (partial(backend.ce_loss_and_grads, x_t=x.T), _ce_oracle, y, ("disc.w", "disc.b")),
                (backend.iv_loss_and_grads, _iv_oracle, domain, ("head.W", "head.b")),
            ):
                loss, grads = kernel(params, x, target)
                expected_loss, expected = oracle(params, x, target)
                assert loss == expected_loss
                assert set(grads) == set(expected) - set(dropped)
                for key, value in grads.items():
                    assert np.array_equal(value, expected[key]), key
                # the groups a kernel leaves out were all zeros
                assert not any(expected[key].any() for key in dropped)
            encoded = np.tanh(x @ params["encoder.W"].T + params["encoder.b"]) + params["prefix.p"]
            scores = encoded @ params["head.W"].T + params["head.b"]
            assert np.array_equal(backend.score_matrix(params, x), scores)

    def test_kernels_equal_the_original_formulas_in_the_training_loops_layout(self):
        """``_train_loop`` builds ``x.T`` once and holds ``encoder.W`` column-major."""
        backend, params, csr, y, domain = self._inputs()
        looped = {**params, "encoder.W": np.asfortranarray(params["encoder.W"])}
        assert not looped["encoder.W"].flags.c_contiguous
        for x in (csr, csr.toarray()):
            for (loss, grads), (expected_loss, expected) in (
                (backend.ce_loss_and_grads(looped, x, y, x.T), _ce_oracle(params, x, y)),
                (backend.iv_loss_and_grads(looped, x, domain), _iv_oracle(params, x, domain)),
            ):
                assert loss == expected_loss
                for key, value in grads.items():
                    assert np.array_equal(value, expected[key]), key

    def test_descent_direction_composes_the_original_formulas(self):
        backend, params, csr, y, domain = self._inputs()
        for x in (csr, csr.toarray()):
            ce_loss, ce = _ce_oracle(params, x, y)
            iv_loss, iv = _iv_oracle(params, x, domain)
            for lam in (0.0, 0.3):
                loss, direction = backend.descent_direction(params, x, y, lam, x, domain, x.T)
                assert loss == ce_loss - lam * iv_loss
                classifier = {key for key in params if not key.startswith("disc.")}
                assert set(direction) == (classifier if lam == 0.0 else set(params))
                for key in classifier:
                    # the head is outside IV; the oracle gives it zeros there
                    assert np.array_equal(direction[key], ce[key] - lam * iv[key]), key
                if lam:
                    for key in ("disc.w", "disc.b"):
                        assert np.array_equal(direction[key], iv[key]), key


_KERNEL_BYTES = """
import hashlib, sys
import numpy as np
from scipy import sparse
from drsynth.reference_backend import ReferenceBackend

backend = ReferenceBackend()
rng = np.random.default_rng(5)
n = int(sys.argv[1])
x = sparse.random_array((n, backend.feature_dim), density=0.04, format="csr", rng=rng)
y = rng.integers(0, len(backend.labels), size=n)
loss, grads = backend.ce_loss_and_grads(backend.init_params(rng), x, y, x.T)
digest = hashlib.sha256(np.float64(loss).tobytes())
for key in sorted(grads):
    digest.update(key.encode() + np.ascontiguousarray(grads[key]).tobytes())
print(digest.hexdigest())
"""


def test_ce_kernel_bits_do_not_depend_on_the_blas_thread_count():
    """More rows than one ``head.W`` gradient block: the gradient is a sum of fixed
    blocks, so one and two BLAS threads give the same bytes."""
    rows = HEAD_GRAD_BLOCK_ROWS * 16 + 7  # a plain product this long splits by thread count
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        done = subprocess.run(
            [sys.executable, "-c", _KERNEL_BYTES, str(rows)],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        digests.add(done.stdout.strip())
    assert len(digests) == 1
