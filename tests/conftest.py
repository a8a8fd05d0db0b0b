import pytest

from drsynth import fixtures
from drsynth.adaptation import TrainingConfig, train_base, training_set
from drsynth.records import ingest_source_corpus, ingest_target_corpus
from drsynth.reference_backend import ReferenceBackend

GOLDEN_DIR = "tests/golden"


@pytest.fixture(scope="session")
def tiny_corpus_dir(tmp_path_factory):
    """Small deterministic corpora shared across test modules."""
    root = tmp_path_factory.mktemp("tiny-corpora")
    fixtures.build_source_corpus(
        root / "source.jsonl", counts=fixtures.tiny_source_counts(), seed=100
    )
    fixtures.build_target_corpus(
        root / "target.jsonl",
        counts=fixtures.tiny_target_counts(per_domain=4),
        seed=101,
        no_relation_extra=3,
    )
    fixtures.build_raw_corpus(
        root / "raw.jsonl", docs_per_domain=3, sentences_per_doc=16, seed=102
    )
    return root


@pytest.fixture(scope="session")
def tiny_source(tiny_corpus_dir):
    return ingest_source_corpus(tiny_corpus_dir / "source.jsonl")


@pytest.fixture(scope="session")
def tiny_target(tiny_corpus_dir):
    return ingest_target_corpus(tiny_corpus_dir / "target.jsonl")


@pytest.fixture(scope="session")
def base_model(tiny_source):
    """Source-trained reference classifier plus its dev confusion matrix."""
    config = TrainingConfig(epochs=300, learning_rate=2.0, seed=7)
    backend = ReferenceBackend()
    model, confusion = train_base(
        training_set(tiny_source.train, backend), tiny_source.dev, config, backend
    )
    return model, confusion
