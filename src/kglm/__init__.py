"""kglm: contextual knowledge-graph embeddings from random-walk chains.

Pipeline: index a triple store, generate second-order biased random
walks, train a bidirectional LSTM language model over the resulting
entity-relation chains, extract per-occurrence and static embeddings,
and evaluate them as drop-in initializations for link prediction and
triple classification.
"""

__version__ = "0.1.0"

from .bilm import LayerStates, bilm_backward, bilm_forward, pack_batch
from .extract import (
    StaticEmbeddingTable,
    aggregate_static,
    combine,
    contextual_reps,
    export_embeddings,
    import_embeddings,
    load_embeddings,
)
from .graph import (
    DatasetSplit,
    KnowledgeGraph,
    build_filter_index,
    build_graph,
    load_dataset,
    load_triples,
)
from .model import ModelConfig, ModelParams, init_params, load_checkpoint, save_checkpoint
from .ranking import RankingResult, filtered_rank, link_prediction_eval, rank_breakdown_by_category
from .scoring import (
    Scorer,
    ScorerTrainConfig,
    init_scorer_from_table,
    init_scorer_random,
    train_scorer,
)
from .classify import triple_classification_eval
from .train import train_bilm
from .walker import Corpus, WalkConfig, generate_corpus, next_step_distribution

__all__ = [
    "__version__",
    "Corpus",
    "DatasetSplit",
    "KnowledgeGraph",
    "LayerStates",
    "ModelConfig",
    "ModelParams",
    "RankingResult",
    "Scorer",
    "ScorerTrainConfig",
    "StaticEmbeddingTable",
    "WalkConfig",
    "aggregate_static",
    "bilm_backward",
    "bilm_forward",
    "build_filter_index",
    "build_graph",
    "combine",
    "contextual_reps",
    "export_embeddings",
    "filtered_rank",
    "generate_corpus",
    "import_embeddings",
    "init_params",
    "init_scorer_from_table",
    "init_scorer_random",
    "link_prediction_eval",
    "load_checkpoint",
    "load_dataset",
    "load_embeddings",
    "load_triples",
    "next_step_distribution",
    "pack_batch",
    "rank_breakdown_by_category",
    "save_checkpoint",
    "train_bilm",
    "train_scorer",
    "triple_classification_eval",
]
