"""Feature side files: the featurized rows of a canonical data file, kept beside it.

``ingest`` writes ``data/train-features.npz`` beside ``data/train.jsonl``
(its ``TrainingSet``) and ``data/eval-features.npz`` beside
``data/eval.jsonl`` (an ``EvalArrays``: the eval rows untagged and tagged
with their domain's token, their votes and their domains), so a later run's
``Store`` need not parse or featurize those rows. A side file is an
uncompressed ``.npz`` of named arrays and four stamps: ``source_sha256``,
the content digest of the data file it was built from; ``feature_dim``;
``featurizer_sha256``, a sha256 over the source of ``reference_backend``
and the vote columns' label names, so that a change to how rows are
featurized or labels are numbered makes every side file stale; and
``arrays_sha256``, a sha256 over every other array's name, dtype, shape
and bytes. A reader loads it with ``allow_pickle=False`` and takes it only
when every stamp matches; a side file that is missing, cut short, damaged
or stale reads as absent, so it costs a rebuild, never a different result.
Side files are outside every digest and safe to delete.
"""

from __future__ import annotations

import functools
import hashlib
import logging
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np
from scipy import sparse

from . import reference_backend
from .adaptation import TrainingSet
from .records import write_arrays
from .taxonomy import all_labels

logger = logging.getLogger(__name__)

_SOURCE, _DIM, _ARRAYS = "source_sha256", "feature_dim", "arrays_sha256"
_FEATURIZER = "featurizer_sha256"
_CSR = ("indptr", "indices", "data")
_TRAIN_NAMES = frozenset({*(f"x_{part}" for part in _CSR), "y", "inter", "fingerprint"})
_EVAL_NAMES = frozenset(
    {*(f"{name}_{part}" for name in ("untagged", "tagged") for part in _CSR), "votes", "domain"}
)


class EvalArrays(NamedTuple):
    """The eval rows in file order: features untagged and tagged with the row's
    domain token, votes as ``records.vote_matrix`` counts them, and domains."""

    untagged: sparse.csr_array
    tagged: sparse.csr_array
    votes: np.ndarray
    domain: np.ndarray


def features_path(data_file: Path) -> Path:
    """``data/train.jsonl`` -> ``data/train-features.npz``."""
    return data_file.with_name(f"{data_file.stem}-features.npz")


def write_training_set(path: Path, train: TrainingSet, source_sha256: str) -> None:
    arrays = {
        **_csr_arrays("x", train.x),
        "y": train.y,
        "inter": train.inter,
        "fingerprint": np.frombuffer(train.fingerprint, dtype=np.uint8),
    }
    _write(path, arrays, source_sha256, train.x.shape[1])


def read_training_set(path: Path, source_sha256: str, feature_dim: int) -> TrainingSet | None:
    arrays = _read(path, source_sha256, feature_dim, _TRAIN_NAMES)
    if arrays is None:
        return None
    return TrainingSet(
        _csr(arrays, "x", feature_dim), arrays["y"], arrays["inter"], arrays["fingerprint"].tobytes()
    )


def write_eval_arrays(path: Path, eval_arrays: EvalArrays, source_sha256: str) -> None:
    arrays = {
        **_csr_arrays("untagged", eval_arrays.untagged),
        **_csr_arrays("tagged", eval_arrays.tagged),
        "votes": eval_arrays.votes,
        "domain": eval_arrays.domain,
    }
    _write(path, arrays, source_sha256, eval_arrays.untagged.shape[1])


def read_eval_arrays(path: Path, source_sha256: str, feature_dim: int) -> EvalArrays | None:
    arrays = _read(path, source_sha256, feature_dim, _EVAL_NAMES)
    if arrays is None:
        return None
    return EvalArrays(
        _csr(arrays, "untagged", feature_dim), _csr(arrays, "tagged", feature_dim),
        arrays["votes"], arrays["domain"],
    )


def _csr_arrays(name: str, x: sparse.csr_array) -> dict[str, np.ndarray]:
    return {f"{name}_{part}": getattr(x, part) for part in _CSR}


def _csr(arrays: Mapping[str, np.ndarray], name: str, feature_dim: int) -> sparse.csr_array:
    indptr = arrays[f"{name}_indptr"]
    return sparse.csr_array(
        (arrays[f"{name}_data"], arrays[f"{name}_indices"], indptr),
        shape=(indptr.size - 1, feature_dim),
    )


def _arrays_sha256(arrays: Mapping[str, np.ndarray]) -> str:
    digest = hashlib.sha256()
    for name in sorted(arrays):
        value = np.ascontiguousarray(arrays[name])
        digest.update(f"{name}:{value.dtype.str}:{value.shape}\n".encode())
        digest.update(value.view(np.uint8))
    return digest.hexdigest()


@functools.cache
def _featurizer_sha256() -> str:
    """sha256 over ``reference_backend``'s source and the label names in global order."""
    digest = hashlib.sha256(Path(reference_backend.__file__).read_bytes())
    digest.update("\n".join(label.level2 for label in all_labels()).encode())
    return digest.hexdigest()


def _write(path: Path, arrays: Mapping[str, np.ndarray], source_sha256: str, feature_dim: int) -> None:
    stamps = {
        _SOURCE: np.array(source_sha256),
        _DIM: np.array(feature_dim, dtype=np.int64),
        _FEATURIZER: np.array(_featurizer_sha256()),
        _ARRAYS: np.array(_arrays_sha256(arrays)),
    }
    write_arrays(path, {**arrays, **stamps})


def _read(
    path: Path, source_sha256: str, feature_dim: int, names: frozenset[str]
) -> dict[str, np.ndarray] | None:
    """The arrays of a side file holding ``names`` whose four stamps match, else None."""
    if not path.is_file():
        return None
    try:
        with np.load(path, allow_pickle=False) as stored:
            arrays = {name: stored[name] for name in stored.files}
        stamps = {
            name: arrays.pop(name).tolist()
            for name in (_SOURCE, _DIM, _FEATURIZER, _ARRAYS) if name in arrays
        }
        if (
            set(arrays) == names
            and stamps.get(_SOURCE) == source_sha256
            and stamps.get(_DIM) == feature_dim
            and stamps.get(_FEATURIZER) == _featurizer_sha256()
            and stamps.get(_ARRAYS) == _arrays_sha256(arrays)
        ):
            return arrays
    # A damaged file fails in many ways: flipping each bit of a small side file
    # in turn raised BadZipFile, EOFError, OSError, ValueError, RuntimeError and
    # NotImplementedError, or loaded and failed the arrays stamp. Each means "rebuild".
    except Exception as exc:  # noqa: BLE001
        logger.info("feature side file %s unreadable (%s); rebuilding", path, exc)
        return None
    logger.info("feature side file %s is stale; rebuilding", path)
    return None
