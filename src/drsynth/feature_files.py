"""Feature side files: the featurized rows of a canonical data file, kept beside it.

``ingest`` writes ``data/train-features.npz`` beside ``data/train.jsonl``
(its ``TrainingSet``) and ``data/eval-features.npz`` beside
``data/eval.jsonl`` (an ``EvalArrays``: the eval rows untagged and tagged
with their domain's token, their votes and their domains), so a later run's
``Store`` need not parse or featurize those rows. One writer and one reader
serve both kinds, field by field: a field is stored under its own name, and
a CSR field as ``<field>_indptr``, ``<field>_indices`` and ``<field>_data``.
A side file is an uncompressed ``.npz`` of those arrays and four stamps:
``source_sha256``, the content digest of the data file it was built from;
``feature_dim``; ``featurizer_sha256``, a sha256 over the source of
``reference_backend`` and the vote columns' label names, so that a change to
how rows are featurized or labels are numbered makes every side file stale;
and ``arrays_sha256``, a sha256 over every other array's name, dtype, shape
and bytes. A reader loads it with ``allow_pickle=False`` and takes it only
when it holds exactly the arrays of the kind asked for and every stamp
matches; a side file that is missing, cut short, damaged, stale or of the
other kind reads as absent, so it costs a rebuild, never a different result.
Side files are outside every digest and safe to delete.
"""

from __future__ import annotations

import functools
import hashlib
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, TypeVar, get_type_hints

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


@dataclass(frozen=True)
class EvalArrays:
    """The eval rows in file order: features untagged and with each Arg1 tagged by
    ``adaptation.tag_text``, votes as ``records.vote_matrix`` counts them, and domains."""

    untagged: sparse.csr_array
    tagged: sparse.csr_array
    votes: np.ndarray
    domain: np.ndarray


T = TypeVar("T", TrainingSet, EvalArrays)


def features_path(data_file: Path) -> Path:
    """``data/train.jsonl`` -> ``data/train-features.npz``."""
    return data_file.with_name(f"{data_file.stem}-features.npz")


def _fields(kind: type) -> dict[str, list[str]]:
    """Each field of ``kind``, in order, and the names of the arrays it is stored as."""
    return {
        name: [f"{name}_{part}" for part in _CSR] if hint is sparse.csr_array else [name]
        for name, hint in get_type_hints(kind).items()
    }


def write_side_file(data_file: Path, value: TrainingSet | EvalArrays, source_sha256: str) -> None:
    """Store every field of ``value`` and the four stamps in the side file of ``data_file``."""
    arrays: dict[str, np.ndarray] = {}
    for name, stored in _fields(type(value)).items():
        field = getattr(value, name)
        if sparse.issparse(field):
            feature_dim = field.shape[1]
            arrays.update(zip(stored, (getattr(field, part) for part in _CSR), strict=True))
        else:
            arrays[name] = field
    stamps = {
        _SOURCE: np.array(source_sha256),
        _DIM: np.array(feature_dim, dtype=np.int64),
        _FEATURIZER: np.array(_featurizer_sha256()),
        _ARRAYS: np.array(_arrays_sha256(arrays)),
    }
    write_arrays(features_path(data_file), {**arrays, **stamps})


def read_side_file(data_file: Path, kind: type[T], source_sha256: str, feature_dim: int) -> T | None:
    """The ``kind`` in the side file of ``data_file`` if that holds exactly its arrays and
    every stamp matches, else None."""
    path = features_path(data_file)
    if not path.is_file():
        return None
    fields = _fields(kind)
    try:
        with np.load(path, allow_pickle=False) as stored:
            arrays = {name: stored[name] for name in stored.files}
        stamps = {
            name: arrays.pop(name).tolist()
            for name in (_SOURCE, _DIM, _FEATURIZER, _ARRAYS) if name in arrays
        }
        if (
            set(arrays) == {name for names in fields.values() for name in names}
            and stamps.get(_SOURCE) == source_sha256
            and stamps.get(_DIM) == feature_dim
            and stamps.get(_FEATURIZER) == _featurizer_sha256()
            and stamps.get(_ARRAYS) == _arrays_sha256(arrays)
        ):
            return kind(**{
                name: arrays[name] if names == [name] else _csr(arrays, name, feature_dim)
                for name, names in fields.items()
            })
    # A damaged file fails in many ways: flipping each bit of a small side file
    # in turn raised BadZipFile, EOFError, OSError, ValueError, RuntimeError and
    # NotImplementedError, or loaded and failed the arrays stamp. Each means "rebuild".
    except Exception as exc:  # noqa: BLE001
        logger.info("feature side file %s unreadable (%s); rebuilding", path, exc)
        return None
    logger.info("feature side file %s is stale; rebuilding", path)
    return None


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
