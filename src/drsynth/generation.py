"""Drive Arg2 generation against a pluggable text-completion backend.

The backend contract is text in, text out: ``complete(prompt) -> str`` plus
a descriptor naming the model and its decoding parameters. An HTTP backend
talks to a remote service; MockBackend is a deterministic stand-in that
parses the target relation back out of the prompt and answers with fixture
vocabulary, so the whole pipeline runs offline and reproducibly.

Raw continuations are post-processed into a single candidate Arg2: cue
echoes and connective repetitions are stripped, listing replies reduce to
their first item, and the text is truncated at the first sentence boundary
(terminal punctuation followed by space or end; abbreviation-blind).

Every request goes through the run's ``GenerationCache``: ``generate_arg2``
keys a rendered prompt and its Arg1 by the backend's descriptor and returns
the candidate Arg2 and whether the cache served it; ``generate_batch`` takes
each instance's backend name and decoding from that descriptor too.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, NamedTuple, Protocol, Sequence

from .fixtures import marker_token
from .prompts import (
    InContextExample,
    PromptTemplateKind,
    RenderedPrompt,
    load_definitions,
    render_dc_prompt,
    render_dr_prompt,
    select_example,
)
from .records import ArgumentPair, CorpusFormatError
from .screening import SyntheticInstance
from .taxonomy import (
    RelationLabel,
    default_connective_map,
    resolve_label,
)

logger = logging.getLogger(__name__)


class GenerationError(Exception):
    pass


class TransportError(GenerationError):
    """Backend unreachable or misbehaving after retries."""


class UnretriableReply(TransportError):
    """The backend answered, and asking again gets the same answer back.

    That is a 4xx status other than 429, or a body without a usable text.
    """


class GenerationRejected(GenerationError):
    """Nothing usable remained after post-processing."""


@dataclass(frozen=True)
class DecodingParams:
    max_new_tokens: int = 80
    temperature: float = 0.7
    seed: int = 0

    def as_dict(self) -> dict:
        return {
            "max_new_tokens": self.max_new_tokens,
            "temperature": self.temperature,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class BackendDescriptor:
    name: str
    endpoint: str = ""
    decoding: DecodingParams = field(default_factory=DecodingParams)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("backend name must be non-empty")


class Backend(Protocol):
    descriptor: BackendDescriptor

    def complete(self, prompt: str) -> str: ...


class GenerationResult(NamedTuple):
    arg2: str
    cache_hit: bool


_SENTENCE_END = re.compile(r"[.!?](?=[\s\"'”’)\]]|$)")
_LIST_ITEM = re.compile(r"^(?:\d+[.)]\s*|[-*•]\s+)(.*)$")
_ANSWER_CUE = re.compile(r"^(?:A\s*:\s*)+", re.IGNORECASE)


def _strip_connective(text: str, connective: str) -> str:
    bare = connective.strip().rstrip(",")
    for candidate in (connective.strip(), bare):
        if candidate and text.lower().startswith(candidate.lower()):
            return text[len(candidate):].lstrip(" ,")
    return text


def postprocess(raw: str, kind: PromptTemplateKind, connective: str | None = None) -> str:
    """Reduce a raw continuation to one clean candidate Arg2."""
    if not raw or not raw.strip():
        raise GenerationRejected("empty generation")
    text = _ANSWER_CUE.sub("", raw.strip()).strip()
    if kind is PromptTemplateKind.DR:
        lines = [line.strip() for line in text.splitlines() if line.strip()]
        if not lines:
            raise GenerationRejected("no content lines in generation")
        text = lines[0]
        for line in lines:
            match = _LIST_ITEM.match(line)
            if match:
                text = match.group(1)
                break
    else:
        text = text.splitlines()[0].strip()
    if connective:
        for _ in range(3):
            stripped = _strip_connective(text, connective)
            if stripped == text:
                break
            text = stripped
    match = _SENTENCE_END.search(text)
    if match:
        text = text[: match.end()]
    text = text.strip()
    if not text:
        raise GenerationRejected("nothing remained after post-processing")
    return text


def cache_key(
    backend_name: str,
    decoding: DecodingParams,
    kind: PromptTemplateKind,
    arg1: str,
    label: RelationLabel,
    connective: str | None,
    example_id: str,
) -> str:
    payload = json.dumps(
        {
            "backend": backend_name,
            "decoding": decoding.as_dict(),
            "template": kind.value,
            "arg1": arg1,
            "label": label.level2,
            "connective": connective,
            "example_id": example_id,
        },
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class GenerationCache:
    """Append-only raw-generation store keyed by request digest.

    Safe for concurrent readers; writes are serialized. Existing entries
    are never overwritten, so a hit always returns the first stored text.
    Every stored record ends with a newline, so a last line without one is
    a write that was cut short: loading drops it with a warning and
    truncates the file, and the next ``put`` starts on a fresh line. A
    malformed line anywhere else is a ``CorpusFormatError``.
    """

    def __init__(self, path: str | Path):
        self._path = Path(path)
        self._entries: dict[str, str] = {}
        self._lock = threading.Lock()
        if self._path.exists():
            self._load(self._path)

    def _load(self, path: Path) -> None:
        data = path.read_bytes()
        complete, _, torn = data.rpartition(b"\n")
        for lineno, line in enumerate(complete.split(b"\n"), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                self._entries.setdefault(record["key"], record["raw"])
            except (ValueError, KeyError, TypeError) as exc:
                raise CorpusFormatError(f"{path}:{lineno}: malformed cache record: {exc}") from exc
        if torn:
            logger.warning("%s: dropping an unterminated last line (interrupted write)", path)
            with open(path, "r+b") as handle:
                handle.truncate(len(data) - len(torn))

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> str | None:
        return self._entries.get(key)

    def put(self, key: str, raw: str) -> None:
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = raw
            self._path.parent.mkdir(parents=True, exist_ok=True)
            with open(self._path, "a", encoding="utf-8", newline="\n") as handle:
                handle.write(
                    json.dumps({"key": key, "raw": raw}, ensure_ascii=False, sort_keys=True) + "\n"
                )


API_KEY_ENV = "DRSYNTH_LLM_API_KEY"
HTTP_TIMEOUT_S = 60.0


class HTTPBackend:
    """POSTs {prompt, decoding params} and expects {"text": ...} back.

    Credentials, when the service needs them, come from the environment
    and ride along as a bearer token.
    """

    def __init__(self, descriptor: BackendDescriptor):
        import os

        import requests

        if not descriptor.endpoint:
            raise ValueError("HTTP backend needs an endpoint")
        self.descriptor = descriptor
        self._session = requests.Session()
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            self._session.headers["Authorization"] = f"Bearer {api_key}"

    def complete(self, prompt: str) -> str:
        import requests

        payload = {"prompt": prompt, **self.descriptor.decoding.as_dict()}
        try:
            response = self._session.post(
                self.descriptor.endpoint, json=payload, timeout=HTTP_TIMEOUT_S
            )
            response.raise_for_status()
        except (requests.RequestException, ValueError) as exc:
            status = getattr(getattr(exc, "response", None), "status_code", None) or 0
            # 429 asks the client to wait; any other 4xx refuses the request itself
            final = 400 <= status < 500 and status != 429
            error = UnretriableReply if final else TransportError
            raise error(f"backend {self.descriptor.name}: {exc}") from exc
        try:
            body = response.json()
        except ValueError as exc:
            raise UnretriableReply(
                f"backend {self.descriptor.name}: reply is not JSON: {exc}"
            ) from exc
        text = body.get("text") if isinstance(body, dict) else None
        if not isinstance(text, str):
            raise UnretriableReply(
                f"backend {self.descriptor.name}: reply is not an object with a string 'text'"
            )
        return text


_DR_TASK = re.compile(r"relation ([A-Z+\-]+) to the first argument")
# the share of mock replies that carry the requested relation's marker token
_MOCK_FIDELITY = 0.85
# the share of mock replies that span two sentences, to exercise truncation
_MOCK_TWO_SENTENCE_RATE = 0.1
_MOCK_FILLERS = (
    "the delegates accepted the outcome",
    "a second reading settled the matter",
    "the narrator lingered over the scene",
    "the committee tabled its concerns",
    "observers kept their distance",
    "the editors trimmed the final passage",
)


class MockBackend:
    """Deterministic offline backend for tests and the demo pipeline.

    It recovers the requested relation from the prompt (the DR task names
    it; the DC task line ends with a known connective) and answers with a
    fixture sentence carrying that relation's marker token ``_MOCK_FIDELITY``
    of the time, otherwise some other label's marker. A slice of replies spans
    two sentences to exercise truncation.
    """

    def __init__(self, name: str, decoding: DecodingParams):
        self.descriptor = BackendDescriptor(name=name, decoding=decoding)
        cmap = default_connective_map()
        self._by_connective = {
            conn: label for label, options in cmap.entries.items() for conn in options
        }
        self._labels = sorted(self._by_connective.values(), key=lambda l: l.level2)

    def _infer_label(self, prompt: str) -> RelationLabel | None:
        match = _DR_TASK.search(prompt)
        if match:
            try:
                return resolve_label(match.group(1))
            except Exception:
                return None
        task_lines = [l for l in prompt.splitlines() if l.startswith("Q: ")]
        if task_lines:
            line = task_lines[-1].removesuffix(" ...")
            for connective, label in self._by_connective.items():
                if line.endswith(" " + connective):
                    return label
        return None

    def complete(self, prompt: str) -> str:
        digest = hashlib.sha256(
            f"{prompt}\x1f{self.descriptor.decoding.seed}\x1f{self.descriptor.name}".encode()
        ).digest()
        rolls = [b / 255.0 for b in digest[:4]]
        label = self._infer_label(prompt)
        if label is None or rolls[0] > _MOCK_FIDELITY:
            label = self._labels[digest[4] % len(self._labels)]
        filler = _MOCK_FILLERS[digest[5] % len(_MOCK_FILLERS)]
        tail = _MOCK_FILLERS[digest[6] % len(_MOCK_FILLERS)]
        text = f"{filler} {marker_token(label)} before long."
        if rolls[1] < _MOCK_TWO_SENTENCE_RATE:
            text += f" Then {tail}."
        return text


# transport faults are retried this many times, the n-th retry after n times this wait
MAX_RETRIES = 2
RETRY_WAIT_S = 0.1


def generate_arg2(
    prompt: RenderedPrompt, arg1: str, backend: Backend, cache: GenerationCache
) -> GenerationResult:
    """One candidate Arg2 for a rendered prompt, via cache or backend.

    A transport fault is retried ``MAX_RETRIES`` times; an ``UnretriableReply``
    is raised at once.
    """
    key = cache_key(
        backend.descriptor.name,
        backend.descriptor.decoding,
        prompt.kind,
        arg1,
        prompt.label,
        prompt.connective,
        prompt.example_id,
    )
    raw = cache.get(key)
    cache_hit = raw is not None
    if not cache_hit:
        last_error: TransportError | None = None
        for attempt in range(MAX_RETRIES + 1):
            try:
                raw = backend.complete(prompt.text)
                break
            except UnretriableReply:
                raise  # the same request gets the same reply back
            except TransportError as exc:
                last_error = exc
                if attempt < MAX_RETRIES:
                    time.sleep(RETRY_WAIT_S * (attempt + 1))
        else:
            raise TransportError(
                f"backend {backend.descriptor.name} failed after {MAX_RETRIES + 1} attempts"
            ) from last_error
        cache.put(key, raw)
    arg2 = postprocess(raw, prompt.kind, prompt.connective)
    if prompt.connective and arg2.lower().startswith(prompt.connective.strip().lower()):
        raise GenerationRejected("post-processing left a leading connective")
    return GenerationResult(arg2=arg2, cache_hit=cache_hit)


class BatchFailure(NamedTuple):
    domain: str
    arg1: str
    label: str
    backend: str
    error: str


class BatchResult(NamedTuple):
    instances: list[SyntheticInstance]
    failures: list[BatchFailure]
    cache_hits: int  # among ``instances``; telemetry that the records leave out


def generate_batch(
    sentences_by_domain: Mapping[str, Sequence[str]],
    labels: Sequence[RelationLabel],
    backends: Sequence[Backend],
    template: PromptTemplateKind,
    example_pool: Sequence[InContextExample],
    *,
    cache: GenerationCache,
    seed: int = 0,
    connective_choice: int | None = None,
) -> BatchResult:
    """One candidate per (sentence, label) per backend per domain.

    Prompts use the bundled connectives and definitions, and all of them are
    rendered before the first backend call. Requests run serially in (domain,
    backend, sentence, label) order, which is the output order. Item failures
    are recorded and excluded; the batch never aborts on a rejected generation.
    """
    definitions = load_definitions() if template is PromptTemplateKind.DR else {}
    jobs: list[tuple[str, RenderedPrompt, str, Backend]] = []
    for domain in sorted(sentences_by_domain):
        sentences = sentences_by_domain[domain]
        examples = {
            label: select_example(example_pool, domain, label, seed) for label in labels
        }
        for backend in backends:
            for sentence in sentences:
                for label in labels:
                    if template is PromptTemplateKind.DC:
                        prompt = render_dc_prompt(
                            sentence, label, examples[label],
                            choice=connective_choice, seed=seed,
                        )
                    else:
                        prompt = render_dr_prompt(
                            sentence, label, definitions[label], examples[label]
                        )
                    jobs.append((domain, prompt, sentence.strip(), backend))

    instances: list[SyntheticInstance] = []
    failures: list[BatchFailure] = []
    cache_hits = 0
    for domain, prompt, arg1, backend in jobs:
        try:
            result = generate_arg2(prompt, arg1, backend, cache)
        except GenerationRejected as exc:
            failures.append(
                BatchFailure(
                    domain=domain,
                    arg1=arg1,
                    label=prompt.label.level2,
                    backend=backend.descriptor.name,
                    error=str(exc) or "rejected",
                )
            )
            logger.warning("generation rejected (%s, %s): %s", domain, prompt.label.level2, exc)
            continue
        cache_hits += result.cache_hit
        instances.append(
            SyntheticInstance(
                pair=ArgumentPair(arg1=arg1, arg2=result.arg2),
                intended=prompt.label,
                backend=backend.descriptor.name,
                template=prompt.kind.value,
                domain=domain,
                connective=prompt.connective,
                example_id=prompt.example_id,
                decoding=backend.descriptor.decoding.as_dict(),
            )
        )
    return BatchResult(instances=instances, failures=failures, cache_hits=cache_hits)
