import numpy as np
from scipy import sparse

from drsynth.records import ArgumentPair
from drsynth.reference_backend import ReferenceBackend, _sigmoid, _softplus


def _char_loop_tokens(text: str) -> list[str]:
    """The original tokenizer, kept as the oracle for the regex one."""
    return [t for t in "".join(c if c.isalnum() else " " for c in text.lower()).split() if t]


def _dense_featurize(backend: ReferenceBackend, pair: ArgumentPair, domain_token=None) -> np.ndarray:
    """The original dense featurizer: hashed counts, L2-capped over the full vector."""
    x = np.zeros(backend.feature_dim)
    arg1 = pair.arg1 if domain_token is None else f"{domain_token} {pair.arg1}"
    for prefix, text in (("a1:", arg1), ("a2:", pair.arg2)):
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


class TestFeatureStore:
    def test_sparse_rows_equal_dense_featurizer(self):
        backend = ReferenceBackend()
        texts = [text for text in UNICODE_SAMPLE if text.strip()]
        pairs = [ArgumentPair(arg1=text, arg2=texts[-1 - i]) for i, text in enumerate(texts)]
        pairs.append(ArgumentPair(arg1="?!", arg2="¿..."))
        tokens = [None, "⟨EP⟩"] * (len(pairs) // 2) + [None] * (len(pairs) % 2)
        x = backend.featurize_pairs(pairs, tokens)
        assert isinstance(x, sparse.csr_array)
        assert x.dtype == np.float64 and x.shape == (len(pairs), backend.feature_dim)
        dense = np.stack([_dense_featurize(backend, p, t) for p, t in zip(pairs, tokens)])
        assert np.array_equal(x.toarray(), dense)
        assert x[[len(pairs) - 1]].nnz == 0  # a pair without tokens is an empty row

    def test_memo_keeps_domain_tokens_apart(self):
        backend = ReferenceBackend()
        pair = ArgumentPair(arg1="The vote passed.", arg2="It was close.")
        plain = backend.featurize(pair)
        tagged = backend.featurize(pair, "⟨EP⟩")
        other = backend.featurize(pair, "⟨WK⟩")
        assert backend.featurize(pair) is plain
        assert backend.featurize(pair, "⟨EP⟩") is tagged
        rows = [row.indices.tolist() for row in (plain, tagged, other)]
        assert len({tuple(r) for r in rows}) == 3
        x = backend.featurize_pairs([pair] * 3, [None, "⟨EP⟩", "⟨WK⟩"])
        for i, domain_token in enumerate([None, "⟨EP⟩", "⟨WK⟩"]):
            assert np.array_equal(x[[i]].toarray()[0], _dense_featurize(backend, pair, domain_token))

    def test_memoized_rows_are_read_only(self):
        backend = ReferenceBackend()
        row = backend.featurize(ArgumentPair(arg1="one two", arg2="three"))
        assert not row.values.flags.writeable

    def test_empty_batch(self):
        x = ReferenceBackend().featurize_pairs([])
        assert x.shape == (0, 512) and x.nnz == 0


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
                (backend.ce_loss_and_grads, _ce_oracle, y, ("disc.w", "disc.b")),
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

    def test_total_loss_keeps_every_key(self):
        backend, params, x, y, domain = self._inputs()
        for lam in (0.0, 0.3):
            loss, grads = backend.total_loss_and_grads(params, x, y, x, domain, lam)
            ce_loss, ce = _ce_oracle(params, x, y)
            iv_loss, iv = _iv_oracle(params, x, domain)
            assert set(grads) == set(params)
            assert loss == (ce_loss - lam * iv_loss if lam else ce_loss)
            for key in params:
                assert np.array_equal(grads[key], ce[key] - lam * iv[key]), key
