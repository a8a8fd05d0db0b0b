"""Synthetic-data pipeline for cross-domain implicit discourse relation
classification: generation, screening, adaptation, and multi-gold
evaluation with cross-run significance testing."""

__version__ = "0.1.0"

from .taxonomy import (  # noqa: F401
    ConfusionMap,
    ConnectiveMap,
    FrequencyTable,
    RelationLabel,
    confusion_of,
    derive_confusion_map,
    is_rare,
    load_confusion_map,
    resolve_label,
    training_label_set,
)
from .records import (  # noqa: F401
    ArgumentPair,
    CrowdAnnotatedInstance,
    LabeledInstance,
    RawDocument,
    SplitSpec,
    gold_label_set,
    ingest_raw_corpus,
    ingest_source_corpus,
    ingest_target_corpus,
    majority_label,
    make_adjacent_pairs,
)
from .prompts import (  # noqa: F401
    InContextExample,
    PromptTemplateKind,
    RenderedPrompt,
    render_dc_prompt,
    render_dr_prompt,
    select_example,
)
from .generation import (  # noqa: F401
    BackendDescriptor,
    DecodingParams,
    GenerationCache,
    GenerationRequest,
    MockBackend,
    generate_arg2,
    generate_batch,
    postprocess,
)
from .screening import (  # noqa: F401
    ScreenKind,
    SyntheticInstance,
    combi_screen,
    confusion_screen,
    screen_batch,
    strict_screen,
)
from .adaptation import (  # noqa: F401
    LossKind,
    LossSpec,
    Model,
    TrainingConfig,
    adapt_concat,
    adapt_invariance,
    adapt_prefix,
    batch_predict,
    prepend_domain_token,
    stratified_downsample,
    train_base,
)
from .pseudo_label import (  # noqa: F401
    PseudoLabeledInstance,
    pseudo_label_corpus,
)
from .evaluation import (  # noqa: F401
    EvalProtocol,
    MetricReport,
    PredictionRecord,
    aggregate_runs,
    render_results_table,
    score,
    t_test,
)
from .pipeline import PipelineConfig, resume, run_experiment  # noqa: F401
