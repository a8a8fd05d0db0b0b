from pathlib import Path

import pytest
from scipy import stats

from drsynth.prompts import (
    InContextExample,
    PromptError,
    load_definitions,
    pick_connective,
    render_dc_prompt,
    render_dr_prompt,
    select_example,
)
from drsynth.taxonomy import (
    LabelError,
    default_connective_map,
    resolve_label,
    training_label_set,
)

GOLDEN = Path(__file__).parent / "golden"

FIG_DC_EXAMPLE = InContextExample(
    arg1="The Artist has his routine. He spends his days sketching passers-by, or trying to.",
    arg2="at night he returns to the condemned building he calls home.",
    label=resolve_label("asynchronous"),
    domain="NV",
)
FIG_DC_ARG1 = "The brokerage firms learned a lesson the last time around."

FIG_DR_EXAMPLE = InContextExample(
    arg1="She, out of gratitude, had her arms wrapped around his neck as they slept.",
    arg2="Various articles of their clothing lay intermingled around the bed.",
    label=resolve_label("conjunction"),
    domain="NV",
)
FIG_DR_ARG1 = (
    "And over the desert plain one heard only the moan of squalls "
    "through the broken trellises of the enclosures."
)


def test_dc_prompt_matches_golden_bytes():
    prompt = render_dc_prompt(
        FIG_DC_ARG1, resolve_label("cause"), FIG_DC_EXAMPLE, choice=1
    )
    assert prompt.text == (GOLDEN / "dc_prompt.txt").read_bytes().decode("utf-8")
    assert prompt.connective == "Therefore,"


def test_dr_prompt_matches_golden_bytes():
    definitions = load_definitions()
    prompt = render_dr_prompt(
        FIG_DR_ARG1,
        resolve_label("conjunction"),
        definitions[resolve_label("conjunction")],
        FIG_DR_EXAMPLE,
    )
    assert prompt.text == (GOLDEN / "dr_prompt.txt").read_bytes().decode("utf-8")


def test_dc_rendering_is_deterministic():
    first = render_dc_prompt(FIG_DC_ARG1, resolve_label("cause"), FIG_DC_EXAMPLE, seed=42)
    second = render_dc_prompt(FIG_DC_ARG1, resolve_label("cause"), FIG_DC_EXAMPLE, seed=42)
    assert first.text == second.text
    assert first.connective == second.connective


def test_dc_all_labels_both_options_distinct_and_verbatim():
    texts = set()
    for label in training_label_set():
        for choice in (0, 1):
            prompt = render_dc_prompt("A lead sentence.", label, FIG_DC_EXAMPLE, choice=choice)
            connective = default_connective_map().options(label)[choice]
            assert f"A lead sentence. {connective} ..." in prompt.text
            texts.add(prompt.text)
    assert len(texts) == 28


def test_dr_all_labels_name_relation_in_upper_case():
    definitions = load_definitions()
    for label in training_label_set():
        prompt = render_dr_prompt("A lead sentence.", label, definitions[label], FIG_DR_EXAMPLE)
        assert f"the relation {label.upper_name} to the first argument" in prompt.text


def test_definitions_cover_generation_labels():
    definitions = load_definitions()
    names = {label.level2 for label in definitions}
    assert {l.level2 for l in training_label_set()} <= names
    assert "similarity" in names
    assert all(text.strip() for text in definitions.values())


def test_empty_arg1_rejected():
    with pytest.raises(PromptError):
        render_dc_prompt("   ", resolve_label("cause"), FIG_DC_EXAMPLE, choice=0)
    with pytest.raises(PromptError):
        render_dr_prompt("", resolve_label("conjunction"), "def", FIG_DR_EXAMPLE)


def test_missing_definition_rejected():
    with pytest.raises(PromptError):
        render_dr_prompt("Lead.", resolve_label("conjunction"), "  ", FIG_DR_EXAMPLE)


def test_missing_connective_rejected():
    with pytest.raises(LabelError):
        render_dc_prompt("Lead.", resolve_label("similarity"), FIG_DC_EXAMPLE, choice=0)


def test_no_unfilled_placeholders():
    for label in training_label_set():
        prompt = render_dc_prompt("Lead sentence here.", label, FIG_DC_EXAMPLE, seed=9)
        assert "{" not in prompt.text and "}" not in prompt.text


def test_pick_connective_seeded_and_pinned():
    cause = resolve_label("cause")
    options = default_connective_map().options(cause)
    assert pick_connective(cause, choice=0) == options[0]
    assert pick_connective(cause, choice=1) == options[1]
    seeded = {pick_connective(cause, seed=s, context="x") for s in range(40)}
    assert seeded == set(options)
    with pytest.raises(PromptError):
        pick_connective(cause, choice=2)


class TestSelectExample:
    def _pool(self):
        cause = resolve_label("cause")
        return [
            InContextExample(arg1=f"arg one {i}.", arg2=f"arg two {i}.", label=cause, domain="EP")
            for i in range(10)
        ]

    def test_singleton_pool(self):
        pool = self._pool()[:1]
        assert select_example(pool, "EP", resolve_label("cause"), seed=0) == pool[0]

    def test_same_seed_same_example(self):
        pool = self._pool()
        cause = resolve_label("cause")
        assert select_example(pool, "EP", cause, 5) == select_example(pool, "EP", cause, 5)

    def test_cross_domain_fallback(self):
        pool = self._pool()
        chosen = select_example(pool, "WK", resolve_label("cause"), seed=1)
        assert chosen.domain == "EP"

    def test_no_example_anywhere_errors(self):
        with pytest.raises(LabelError):
            select_example(self._pool(), "EP", resolve_label("manner"), seed=0)

    def test_draws_uniform_over_pool(self):
        pool = self._pool()
        cause = resolve_label("cause")
        counts = [0] * len(pool)
        index = {e.example_id: i for i, e in enumerate(pool)}
        for seed in range(100):
            counts[index[select_example(pool, "EP", cause, seed).example_id]] += 1
        _, p_value = stats.chisquare(counts)
        assert p_value > 0.01


def test_example_label_mismatch_is_renderable():
    # the DC figure panel pairs a cause task with an asynchronous example;
    # the example block must use the example's own connective
    prompt = render_dc_prompt(FIG_DC_ARG1, resolve_label("cause"), FIG_DC_EXAMPLE, choice=1)
    assert "Later, ..." in prompt.text
    assert prompt.text.rstrip().endswith("A:")
