import json
import time

import pytest
import requests

from drsynth import generation
from drsynth.fixtures import example_pool, marker_token
from drsynth.generation import (
    BackendDescriptor,
    DecodingParams,
    GenerationCache,
    GenerationRejected,
    HTTPBackend,
    MockBackend,
    TransportError,
    cache_key,
    generate_arg2,
    generate_batch,
    postprocess,
)
from drsynth.prompts import InContextExample, PromptTemplateKind, render_dc_prompt
from drsynth.records import CorpusFormatError
from drsynth.taxonomy import generation_label_set, resolve_label, training_label_set

CAUSE = resolve_label("cause")
EXAMPLE = InContextExample(
    arg1="The artist kept his routine.",
    arg2="at night he returned home.",
    label=resolve_label("asynchronous"),
    domain="NV",
)


class StubBackend:
    """Scripted completions, optionally failing the first N calls."""

    def __init__(self, replies, failures=0, name="stub"):
        self.descriptor = BackendDescriptor(name=name, decoding=DecodingParams())
        self._replies = list(replies)
        self._failures = failures
        self.calls = 0

    def complete(self, prompt: str) -> str:
        self.calls += 1
        if self.calls <= self._failures:
            raise TransportError("scripted failure")
        reply = self._replies[0]
        if len(self._replies) > 1:
            self._replies.pop(0)
        return reply


ARG1 = "The firms learned a lesson."


def _prompt():
    return render_dc_prompt(ARG1, CAUSE, EXAMPLE, choice=1)


class TestPostprocess:
    def test_strips_leading_connective(self):
        out = postprocess(
            "Therefore, the firms now hold more capital.", PromptTemplateKind.DC, "Therefore,"
        )
        assert out == "the firms now hold more capital."

    def test_dr_first_list_item(self):
        out = postprocess("1. X happened.\n2. Y happened.", PromptTemplateKind.DR, None)
        assert out == "X happened."

    def test_empty_rejected(self):
        with pytest.raises(GenerationRejected):
            postprocess("", PromptTemplateKind.DC, "Therefore,")

    def test_answer_cue_echo_stripped(self):
        out = postprocess("A: the outcome held.", PromptTemplateKind.DC, None)
        assert out == "the outcome held."

    def test_truncates_to_first_sentence(self):
        out = postprocess("First part ends. Second part.", PromptTemplateKind.DC, None)
        assert out == "First part ends."

    def test_connective_only_reply_rejected(self):
        with pytest.raises(GenerationRejected):
            postprocess("Therefore,", PromptTemplateKind.DC, "Therefore,")

    def test_case_insensitive_connective_strip(self):
        out = postprocess("THEREFORE, profits rose.", PromptTemplateKind.DC, "Therefore,")
        assert out == "profits rose."

    def test_dr_dash_list(self):
        out = postprocess("- the vote passed.\n- more items.", PromptTemplateKind.DR, None)
        assert out == "the vote passed."


class TestGenerateArg2:
    def test_figure_answer_preserved(self, tmp_path):
        backend = StubBackend(["at night he returns to the condemned building he calls home."])
        result = generate_arg2(_prompt(), ARG1, backend, GenerationCache(tmp_path / "cache.jsonl"))
        assert result.arg2 == "at night he returns to the condemned building he calls home."
        assert result.cache_hit is False

    def test_two_sentence_reply_truncated(self, tmp_path):
        backend = StubBackend(["The first sentence lands. The second one is dropped."])
        result = generate_arg2(_prompt(), ARG1, backend, GenerationCache(tmp_path / "cache.jsonl"))
        assert result.arg2 == "The first sentence lands."

    def test_cache_round_trip(self, tmp_path):
        cache = GenerationCache(tmp_path / "cache.jsonl")
        backend = StubBackend(["One answer here."])
        first = generate_arg2(_prompt(), ARG1, backend, cache)
        second = generate_arg2(_prompt(), ARG1, backend, cache)
        assert first.arg2 == second.arg2
        assert second.cache_hit is True
        assert backend.calls == 1
        reloaded = GenerationCache(tmp_path / "cache.jsonl")
        assert len(reloaded) == 1

    def test_retries_then_succeeds(self, monkeypatch, tmp_path):
        monkeypatch.setattr(generation, "RETRY_WAIT_S", 0.0)
        backend = StubBackend(["Recovered answer."], failures=2)
        result = generate_arg2(_prompt(), ARG1, backend, GenerationCache(tmp_path / "cache.jsonl"))
        assert result.arg2 == "Recovered answer."
        assert backend.calls == 3

    def test_retries_exhausted(self, monkeypatch, tmp_path):
        monkeypatch.setattr(generation, "RETRY_WAIT_S", 0.0)
        backend = StubBackend(["never seen"], failures=10)
        with pytest.raises(TransportError, match="after 3 attempts"):
            generate_arg2(_prompt(), ARG1, backend, GenerationCache(tmp_path / "cache.jsonl"))

    @pytest.mark.parametrize("fault, posts_made", [
        ("timeout", 3), ("connection", 3), ("429", 3), ("503", 3), ("404", 1), ("400", 1),
        ("not-json", 1), ("no-text", 1),
    ])
    def test_http_retries_transport_faults_only(self, fault, posts_made, tmp_path, monkeypatch):
        class Reply:
            status_code = int(fault) if fault.isdigit() else 200

            def raise_for_status(self):
                if self.status_code != 200:
                    raise requests.HTTPError(f"{self.status_code} Server Error", response=self)

            def json(self):
                if fault == "not-json":
                    raise requests.JSONDecodeError("Expecting value", "<html>", 0)
                return {"answer": "no text key"}

        posts, sleeps = [], []

        def post(self, *args, **kwargs):  # offline: no socket is opened
            posts.append(kwargs["json"])
            if fault == "timeout":
                raise requests.Timeout("read timed out")
            if fault == "connection":
                raise requests.ConnectionError("connection refused")
            return Reply()

        monkeypatch.setattr(requests.Session, "post", post)
        monkeypatch.setattr(time, "sleep", sleeps.append)
        backend = HTTPBackend(BackendDescriptor(name="remote", endpoint="http://127.0.0.1:9/x"))
        cache = GenerationCache(tmp_path / "cache.jsonl")
        with pytest.raises(TransportError):
            generate_arg2(_prompt(), ARG1, backend, cache)
        assert len(posts) == posts_made
        assert sleeps == ([0.1, 0.2] if posts_made == 3 else [])
        assert len(cache) == 0 and not (tmp_path / "cache.jsonl").exists()

    def test_rejected_on_empty_postprocess(self, tmp_path):
        backend = StubBackend(["Therefore,"])
        with pytest.raises(GenerationRejected):
            generate_arg2(_prompt(), ARG1, backend, GenerationCache(tmp_path / "cache.jsonl"))


class TestCacheFile:
    def test_torn_last_line_dropped_and_truncated(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        GenerationCache(path).put("first", "One answer.")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "second", "raw": "cut sh')
        with caplog.at_level("WARNING"):
            cache = GenerationCache(path)
        assert len(cache) == 1 and "unterminated" in caplog.text
        cache.put("third", "Another answer.")
        lines = path.read_text("utf-8").splitlines()
        assert [json.loads(line)["key"] for line in lines] == ["first", "third"]

    def test_unterminated_complete_record_dropped(self, tmp_path):
        # put always ends a record with a newline; without one the write was cut short
        path = tmp_path / "cache.jsonl"
        path.write_text('{"key": "a", "raw": "x"}\n{"key": "b", "raw": "y"}', "utf-8")
        assert GenerationCache(path).get("b") is None
        assert path.read_text("utf-8") == '{"key": "a", "raw": "x"}\n'

    def test_malformed_inner_line_is_format_error(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        original = '{"key": "a", "raw": "x"}\n{"key": "b", "raw\n{"key": "c", "raw": "z"}\n'
        path.write_text(original, "utf-8")
        with pytest.raises(CorpusFormatError, match=":2:"):
            GenerationCache(path)
        assert path.read_text("utf-8") == original


def test_cache_key_distinguishes_request_tuples():
    base = dict(
        backend_name="mock",
        decoding=DecodingParams(),
        kind=PromptTemplateKind.DC,
        arg1="The lead.",
        label=CAUSE,
        connective="Therefore,",
        example_id="e1",
    )
    reference = cache_key(**base)
    assert cache_key(**base) == reference
    assert cache_key(**{**base, "label": resolve_label("contrast")}) != reference
    assert cache_key(**{**base, "arg1": "Another lead."}) != reference
    assert cache_key(**{**base, "backend_name": "other"}) != reference
    assert cache_key(**{**base, "decoding": DecodingParams(seed=1)}) != reference


class TestMockBackend:
    def test_deterministic(self):
        backend = MockBackend(name="mock", decoding=DecodingParams())
        prompt = render_dc_prompt("The lead sentence.", CAUSE, EXAMPLE, choice=1).text
        assert backend.complete(prompt) == backend.complete(prompt)

    def test_faithful_reply_carries_marker(self, monkeypatch):
        monkeypatch.setattr(generation, "_MOCK_FIDELITY", 1.0)
        backend = MockBackend(name="mock", decoding=DecodingParams())
        prompt = render_dc_prompt("The lead sentence.", CAUSE, EXAMPLE, choice=1).text
        assert marker_token(CAUSE) in backend.complete(prompt)

    def test_dr_prompt_label_recovered(self, monkeypatch):
        from drsynth.prompts import load_definitions, render_dr_prompt

        monkeypatch.setattr(generation, "_MOCK_FIDELITY", 1.0)
        backend = MockBackend(name="mock", decoding=DecodingParams())
        label = resolve_label("concession")
        prompt = render_dr_prompt(
            "The lead sentence.", label, load_definitions()[label], EXAMPLE
        ).text
        assert marker_token(label) in backend.complete(prompt)


class TestGenerateBatch:
    @pytest.fixture(autouse=True)
    def _cache_dir(self, tmp_path):
        self.cache_dir = tmp_path

    def _run(self, sentences, labels, seed=0, cache=None):
        return generate_batch(
            {"EP": sentences},
            labels,
            [MockBackend(name="mock", decoding=DecodingParams())],
            PromptTemplateKind.DC,
            example_pool(["EP"]),
            seed=seed,
            cache=cache or GenerationCache(self.cache_dir / f"cache-{seed}.jsonl"),
        )

    def test_product_size(self):
        labels = training_label_set()[:3]
        result = self._run(["Sentence one.", "Sentence two."], labels)
        assert len(result.instances) == 6
        assert not result.failures

    def test_rerun_with_same_seed_is_identical(self, tmp_path):
        labels = training_label_set()[:4]
        sentences = [f"Sentence number {i}." for i in range(5)]
        cache = GenerationCache(tmp_path / "cache.jsonl")
        first = self._run(sentences, labels, seed=3, cache=cache)
        second = self._run(sentences, labels, seed=3, cache=cache)
        assert first.cache_hits == 0
        assert [i.pair for i in first.instances] == [i.pair for i in second.instances]
        assert second.cache_hits == len(second.instances)

    def test_no_instance_starts_with_its_connective(self):
        labels = training_label_set()
        result = self._run([f"Sentence number {i}." for i in range(10)], labels)
        for inst in result.instances:
            assert inst.connective is not None
            bare = inst.connective.strip().rstrip(",").lower()
            assert not inst.pair.arg2.lower().startswith(bare + ",")
            assert not inst.pair.arg2.lower().startswith(inst.connective.lower())

    def test_provenance_recorded(self):
        result = self._run(["A sentence."], [CAUSE])
        inst = result.instances[0]
        assert inst.backend == "mock"
        assert inst.template == "DC"
        assert inst.domain == "EP"
        assert inst.example_id
        assert inst.decoding["max_new_tokens"] == 80

    def test_failures_recorded_not_fatal(self):
        class RejectingBackend(StubBackend):
            def complete(self, prompt):
                return "Therefore,"  # postprocess strips it to nothing

        result = generate_batch(
            {"EP": ["One sentence."]},
            [CAUSE],
            [RejectingBackend(["x"], name="rej")],
            PromptTemplateKind.DC,
            example_pool(["EP"]),
            cache=GenerationCache(self.cache_dir / "cache.jsonl"),
            connective_choice=1,
        )
        assert result.instances == []
        assert len(result.failures) == 1
        assert result.failures[0].backend == "rej"


def test_fifteen_label_generation_set_renders_with_dr(tmp_path):
    labels = generation_label_set(include_similarity=True)
    result = generate_batch(
        {"EP": ["Sentence one.", "Sentence two."]},
        labels,
        [MockBackend(name="mock", decoding=DecodingParams())],
        PromptTemplateKind.DR,
        example_pool(["EP"]),
        cache=GenerationCache(tmp_path / "cache.jsonl"),
    )
    assert len(result.instances) == 30
