import random
from fractions import Fraction

import pytest

from drsynth.taxonomy import (
    ConfusionMap,
    FrequencyTable,
    LabelError,
    RelationLabel,
    all_labels,
    default_confusion_map,
    default_connective_map,
    derive_confusion_map,
    first_in_order,
    generation_label_set,
    is_rare,
    label_order,
    normalize_label_string,
    parse_connective_map,
    resolve_label,
    training_label_set,
)

CANONICAL_ORDER = [
    "conjunction", "level-of-detail", "instantiation", "manner", "substitution",
    "equivalence", "cause", "purpose", "cause+belief", "condition",
    "concession", "contrast", "asynchronous", "synchronous",
]


def test_training_label_set_order_and_size():
    labels = training_label_set()
    assert [l.level2 for l in labels] == CANONICAL_ORDER
    assert len(labels) == 14


def test_similarity_not_trainable_but_representable():
    assert resolve_label("similarity") not in training_label_set()
    assert resolve_label("similarity") in all_labels()


def test_generation_label_set_sizes():
    assert len(generation_label_set()) == 14
    fifteen = generation_label_set(include_similarity=True)
    assert len(fifteen) == 15
    assert fifteen[-1].level2 == "similarity"


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("Level-of-detail", "level-of-detail"),
        ("LEVEL OF DETAIL", "level-of-detail"),
        ("Cause+Belief", "cause+belief"),
        ("no relation", "no-relation"),
        ("  synchronous  ", "synchronous"),
        ("level_of_detail", "level-of-detail"),
        ("Level_of detail", "level-of-detail"),
    ],
)
def test_label_normalization(raw, expected):
    assert normalize_label_string(raw) == expected
    assert resolve_label(raw).level2 == expected


def test_every_label_name_is_its_own_normal_form():
    for label in all_labels():
        assert normalize_label_string(label.level2) == label.level2
        assert resolve_label(label.level2) is label


def test_unknown_label_error_names_the_label():
    with pytest.raises(LabelError, match="reason-macro"):
        resolve_label("reason-macro")


def test_connectives_for_table_rows():
    options = default_connective_map().options
    assert options(resolve_label("cause")) == ("It is/was because", "Therefore,")
    assert options(resolve_label("conjunction")) == ("In addition,", "Furthermore,")
    assert options(resolve_label("asynchronous")) == ("Later,", "Subsequently,")


def test_connectives_missing_label_errors():
    with pytest.raises(LabelError, match="no connectives for label similarity"):
        default_connective_map().options(resolve_label("similarity"))


def test_connective_map_covers_exactly_training_labels():
    cmap = default_connective_map()
    assert set(cmap.entries) == set(training_label_set())


def test_connective_map_rejects_partial_config():
    with pytest.raises(ValueError, match="missing"):
        parse_connective_map("cause: a | b")


EXPECTED_CONFUSION = {
    "conjunction": "cause",
    "level-of-detail": "cause",
    "substitution": "cause",
    "equivalence": "cause",
    "cause+belief": "cause",
    "condition": "cause",
    "concession": "cause",
    "asynchronous": "cause",
    "instantiation": "level-of-detail",
    "manner": "level-of-detail",
    "cause": "level-of-detail",
    "synchronous": "conjunction",
    "similarity": "conjunction",
    "purpose": "condition",
    "contrast": "concession",
}


def test_bundled_confusion_map_matches_expected_entries():
    cmap = default_confusion_map()
    assert len(cmap.entries) == 15
    for intended, confused in EXPECTED_CONFUSION.items():
        assert cmap.confusion_of(resolve_label(intended)).level2 == confused


def test_confusion_map_never_maps_to_itself():
    cmap = default_confusion_map()
    for intended, confused in cmap.entries.items():
        assert intended != confused
    with pytest.raises(ValueError):
        ConfusionMap({resolve_label("cause"): resolve_label("cause")})


def test_confusion_of_missing_entry_errors():
    cmap = default_confusion_map()
    with pytest.raises(LabelError):
        cmap.confusion_of(resolve_label("disjunction"))


def _matrix_from(rows):
    return {
        resolve_label(true): {resolve_label(p): n for p, n in row.items()}
        for true, row in rows.items()
    }


def test_derive_confusion_map_unique_argmax():
    matrix = _matrix_from(
        {"cause+belief": {"cause": 9, "cause+belief": 3, "level-of-detail": 1}}
    )
    derived = derive_confusion_map(matrix)
    assert derived.confusion_of(resolve_label("cause+belief")).level2 == "cause"


def test_derive_confusion_map_tie_breaks_by_global_order():
    # concession (order 10) vs contrast (order 11): concession wins the tie
    matrix = _matrix_from({"cause": {"contrast": 5, "concession": 5, "cause": 2}})
    derived = derive_confusion_map(matrix)
    assert derived.confusion_of(resolve_label("cause")).level2 == "concession"


def test_derive_confusion_map_diagonal_row_omitted(caplog):
    matrix = _matrix_from({"cause": {"cause": 10}, "contrast": {"concession": 1}})
    with caplog.at_level("WARNING"):
        derived = derive_confusion_map(matrix)
    assert resolve_label("cause") not in derived.entries
    assert derived.confusion_of(resolve_label("contrast")).level2 == "concession"
    assert any("off-diagonal" in message for message in caplog.messages)


def test_derive_confusion_map_matches_bruteforce_on_random_matrix():
    rng = random.Random(13)
    labels = training_label_set()
    matrix = {
        true: {pred: rng.randrange(0, 40) for pred in labels} for true in labels
    }
    derived = derive_confusion_map(matrix)
    for true in labels:
        off = {p: n for p, n in matrix[true].items() if p != true and n > 0}
        if not off:
            assert true not in derived.entries
            continue
        best = max(off.values())
        expected = min(
            (p for p, n in off.items() if n == best), key=label_order
        )
        assert derived.confusion_of(true) == expected


def _freq_from_counts(counts):
    labeled = {resolve_label(name): n for name, n in counts.items()}
    return FrequencyTable(counts=labeled, total=sum(labeled.values()))


def test_is_rare_reference_ratios():
    freq = _freq_from_counts({"cause": 4469, "cause+belief": 157, "conjunction": 12390})
    assert freq.total == 17016
    assert not is_rare(resolve_label("cause"), freq)  # 4469/17016 ~ 0.263
    assert is_rare(resolve_label("cause+belief"), freq)  # 157/17016 ~ 0.009


def test_is_rare_exact_boundary_is_not_rare():
    freq = _freq_from_counts({"cause": 50, "conjunction": 950})
    assert freq.fraction(resolve_label("cause")) == Fraction(1, 20)
    assert not is_rare(resolve_label("cause"), freq)


def test_is_rare_missing_label_errors():
    freq = _freq_from_counts({"cause": 10})
    with pytest.raises(LabelError):
        is_rare(resolve_label("manner"), freq)


def test_frequency_table_sums_to_one():
    freq = _freq_from_counts({"cause": 3, "manner": 5, "contrast": 9})
    assert sum(freq.fraction(l) for l in freq.counts) == Fraction(1)


def test_first_in_order_tie_break():
    cause = resolve_label("cause")
    conjunction = resolve_label("conjunction")
    assert first_in_order([cause, conjunction]) == conjunction
    with pytest.raises(LabelError):
        first_in_order([])


def test_labels_are_value_objects():
    assert resolve_label("cause") == RelationLabel("cause")
    assert str(resolve_label("cause")) == "cause"
    assert resolve_label("level-of-detail").title_name == "Level-of-detail"
    assert resolve_label("cause+belief").upper_name == "CAUSE+BELIEF"


def test_maps_load_from_edited_config_files(tmp_path):
    from drsynth.taxonomy import load_confusion_map, parse_connective_map

    connectives = tmp_path / "connectives.txt"
    lines = ["# edited copy"]
    for name in CANONICAL_ORDER:
        lines.append(f"{name}: First option, | Second option,")
    connectives.write_text("\n".join(lines) + "\n")
    cmap = parse_connective_map(connectives.read_text("utf-8"))
    assert cmap.options(resolve_label("cause")) == ("First option,", "Second option,")

    confusion = tmp_path / "confusion.txt"
    confusion.write_text("cause -> contrast\ncontrast -> cause\n")
    loaded = load_confusion_map(str(confusion))
    assert loaded.confusion_of(resolve_label("cause")) == resolve_label("contrast")
    assert len(loaded.entries) == 2
