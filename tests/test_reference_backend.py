import numpy as np
from scipy import sparse

from drsynth.records import ArgumentPair
from drsynth.reference_backend import ReferenceBackend


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
