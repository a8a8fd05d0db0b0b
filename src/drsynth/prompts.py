"""Render the two generation prompt styles.

DC prompts lexicalize the target relation with a connective and ask the
model to complete the sentence; DR prompts name the relation, quote its
definition, and ask for candidate second arguments. Both carry one
in-context example. Rendering is a pure function of its arguments; the same
inputs always produce the same bytes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .taxonomy import (
    LabelError,
    RelationLabel,
    _read_resource,
    _strip_comments,
    default_connective_map,
    resolve_label,
)

DC_TEMPLATE = """###Instructions###
Complete the sentence, and don't generate more than one sentence.

###Example###
Q: {example_arg1} {example_connective} ...
A: {example_arg2}

###Your task###
Q: {task_arg1} {task_connective} ...
A:"""

DR_TEMPLATE = """###Instructions###
Given two arguments, the relation "{label_title}" is defined as "{definition}".

Here are examples that have the relation "{label_title}":
{example_arg1} {label_upper}

{example_arg2}

###Your task###
Please write down the second arguments that have the relation {label_upper} \
to the first argument: "{task_arg1}" Here list several second arguments:"""

TASK_HEADER = "###Your task###"


class PromptTemplateKind(str, Enum):
    DC = "DC"
    DR = "DR"


class PromptError(ValueError):
    """Prompt inputs violate a rendering precondition."""


@dataclass(frozen=True)
class InContextExample:
    """One demonstration pair with its own relation label."""

    arg1: str
    arg2: str
    label: RelationLabel
    domain: str
    example_id: str = ""

    def __post_init__(self) -> None:
        if not self.arg1.strip() or not self.arg2.strip():
            raise PromptError("in-context example arguments must be non-empty")
        if not self.example_id:
            digest = hashlib.sha256(
                f"{self.domain}\x1f{self.label.level2}\x1f{self.arg1}\x1f{self.arg2}".encode()
            ).hexdigest()[:12]
            object.__setattr__(self, "example_id", digest)


@dataclass(frozen=True)
class RenderedPrompt:
    """Final prompt text plus the metadata screening and caching key off."""

    text: str
    label: RelationLabel
    kind: PromptTemplateKind
    example_id: str
    connective: str | None = None

    def __post_init__(self) -> None:
        if "{" in self.text or "}" in self.text:
            raise PromptError("rendered prompt contains an unfilled placeholder")


def _check_task_arg1(text: str, arg1: str) -> None:
    task_section = text.split(TASK_HEADER, 1)[1]
    if task_section.count(arg1) != 1:
        raise PromptError("task section must contain Arg1 verbatim exactly once")


def _stable_choice(n: int, seed: int, *parts: str) -> int:
    digest = hashlib.sha256(("\x1f".join(parts) + f"\x1f{seed}").encode()).digest()
    return int.from_bytes(digest[:8], "big") % n


def pick_connective(
    label: RelationLabel,
    choice: int | None = None,
    seed: int = 0,
    context: str = "",
) -> str:
    """One of the label's two bundled connective options.

    ``choice`` pins option 0 or 1; otherwise the pick is a uniform seeded
    function of (label, seed, context).
    """
    options = default_connective_map().options(label)
    if choice is None:
        choice = _stable_choice(2, seed, "connective", label.level2, context)
    if choice not in (0, 1):
        raise PromptError(f"connective choice must be 0 or 1, got {choice}")
    return options[choice]


def render_dc_prompt(
    arg1: str,
    label: RelationLabel,
    example: InContextExample,
    choice: int | None = None,
    seed: int = 0,
) -> RenderedPrompt:
    """Render a connective-lexicalized completion prompt.

    The example block uses the first connective option of the example's own
    label, so a demonstration of another relation renders with the
    connective that actually signals it.
    """
    arg1 = arg1.strip()
    if not arg1:
        raise PromptError("Arg1 must be non-empty")
    task_connective = pick_connective(label, choice=choice, seed=seed, context=arg1)
    example_connective = default_connective_map().options(example.label)[0]
    text = DC_TEMPLATE.format(
        example_arg1=example.arg1,
        example_connective=example_connective,
        example_arg2=example.arg2,
        task_arg1=arg1,
        task_connective=task_connective,
    )
    _check_task_arg1(text, arg1)
    return RenderedPrompt(
        text=text,
        label=label,
        kind=PromptTemplateKind.DC,
        example_id=example.example_id,
        connective=task_connective,
    )


def render_dr_prompt(
    arg1: str,
    label: RelationLabel,
    definition: str,
    example: InContextExample,
) -> RenderedPrompt:
    """Render a relation-named listing prompt quoting the label definition."""
    arg1 = arg1.strip()
    if not arg1:
        raise PromptError("Arg1 must be non-empty")
    if not definition or not definition.strip():
        raise PromptError(f"missing definition for label {label}")
    text = DR_TEMPLATE.format(
        label_title=label.title_name,
        label_upper=label.upper_name,
        definition=definition.strip(),
        example_arg1=example.arg1,
        example_arg2=example.arg2,
        task_arg1=arg1,
    )
    _check_task_arg1(text, f'"{arg1}"')
    return RenderedPrompt(
        text=text,
        label=label,
        kind=PromptTemplateKind.DR,
        example_id=example.example_id,
    )


def load_definitions() -> dict[RelationLabel, str]:
    """The bundled label definitions."""
    definitions: dict[RelationLabel, str] = {}
    for line in _strip_comments(_read_resource("definitions.txt")):
        name, sep, body = line.partition(":")
        if not sep or not body.strip():
            raise ValueError(f"expected 'label: definition': {line!r}")
        definitions[resolve_label(name)] = body.strip()
    return definitions


def select_example(
    pool: Sequence[InContextExample],
    domain: str,
    label: RelationLabel,
    seed: int,
) -> InContextExample:
    """Deterministically pick a demonstration matching (domain, label).

    Falls back to a cross-domain pool when the domain lacks the label;
    raises when no example with the label exists anywhere.
    """
    in_domain = [e for e in pool if e.domain == domain and e.label == label]
    candidates = in_domain or [e for e in pool if e.label == label]
    if not candidates:
        raise LabelError(f"no in-context example for label {label}")
    index = _stable_choice(len(candidates), seed, "example", domain, label.level2)
    return candidates[index]
