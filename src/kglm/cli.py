"""Command-line pipeline: ingest -> walk -> train -> export -> eval.

All stages rebuild the graph deterministically from the same split
files, so ids agree across stages; intermediate artifacts live in the
--out directory (corpus.txt, model.ckpt, loss_trace.tsv, embedding and
report files). Export is the only stage that pools the corpus into the
static table: both eval stages start from the exported .vec files, for
either --init, and never read the checkpoint or the corpus.
"""

import argparse
import logging
import os
import sys

import numpy as np

from . import seeds
from .classify import triple_classification_eval, write_classification_report
from .config import ConfigError, add_flags, merge
from .extract import aggregate_static, export_embeddings, import_embeddings
from .files import atomic_open
from .gradcheck import run_gradcheck
from .graph import load_dataset
from .model import load_checkpoint
from .ranking import (
    format_metrics_table,
    link_prediction_eval,
    rank_breakdown_by_category,
    write_breakdown,
    write_metrics_report,
    write_ranks,
)
from .scoring import init_scorer_from_table, init_scorer_random, train_scorer
from .train import train_bilm
from .walker import generate_corpus, read_corpus

logger = logging.getLogger(__name__)

GRADCHECK_TOLERANCE = 1e-4


def _paths(rc):
    return {
        "corpus": os.path.join(rc.out, "corpus.txt"),
        "ckpt": os.path.join(rc.out, "model.ckpt"),
        "trace": os.path.join(rc.out, "loss_trace.tsv"),
        "emb": os.path.join(rc.out, "embeddings"),
        "link_metrics": os.path.join(rc.out, "link_metrics.tsv"),
        "link_ranks": os.path.join(rc.out, "link_ranks.tsv"),
        "link_breakdown": os.path.join(rc.out, "link_breakdown.tsv"),
        "classification": os.path.join(rc.out, "triple_classification.tsv"),
    }


def _load_graph(rc):
    rc.require("train")
    return load_dataset(rc.train, rc.valid, rc.test)


def _load_model(rc, graph):
    params, mconfig, entities, relations = load_checkpoint(_paths(rc)["ckpt"])
    if entities != graph.entities.items or relations != graph.relations.items:
        raise ValueError("checkpoint vocabulary does not match the dataset files")
    return params, mconfig


def _write_lines(path, lines):
    with atomic_open(path) as fh:
        for line in lines:
            fh.write(f"{line}\n")


def cmd_ingest(rc):
    rc.require("train", "out")
    graph, split = _load_graph(rc)
    os.makedirs(rc.out, exist_ok=True)
    for name, vocab in (("entities", graph.entities), ("relations", graph.relations)):
        _write_lines(os.path.join(rc.out, f"{name}.tsv"), (f"{i}\t{s}" for i, s in enumerate(vocab.items)))
    stats = [
        f"entities\t{graph.n_entities}",
        f"relations\t{graph.n_relations}",
        f"base_relations\t{graph.n_base_relations}",
        f"train_triples\t{len(split.train)}",
        f"valid_triples\t{len(split.valid)}",
        f"test_triples\t{len(split.test)}",
        f"isolated_entities\t{np.count_nonzero(np.diff(graph.adj_off) == 0)}",
    ]
    _write_lines(os.path.join(rc.out, "stats.txt"), stats)
    print("\n".join(stats))
    return 0


def cmd_walk(rc):
    rc.require("train", "out")
    graph, _ = _load_graph(rc)
    os.makedirs(rc.out, exist_ok=True)
    path = _paths(rc)["corpus"]
    chains = generate_corpus(graph, rc.walk_config(), out_path=path, threads=rc.threads)
    print(f"wrote {len(chains)} chains to {path}")
    return 0


def cmd_train(rc):
    rc.require("train", "out")
    graph, _ = _load_graph(rc)
    paths = _paths(rc)
    if not os.path.exists(paths["corpus"]):
        raise ConfigError(f"no corpus at {paths['corpus']}; run the walk stage first")
    chains = read_corpus(paths["corpus"], graph)
    _, trace = train_bilm(
        chains,
        graph,
        rc.model_config(),
        checkpoint_path=paths["ckpt"],
        checkpoint_interval=rc.checkpoint_interval,
    )
    _write_lines(paths["trace"], (f"{epoch}\t{loss:.6f}" for epoch, loss in enumerate(trace, start=1)))
    print(f"wrote checkpoint to {paths['ckpt']} ({len(trace)} epochs)")
    return 0


def cmd_export(rc):
    rc.require("train", "out")
    graph, _ = _load_graph(rc)
    paths = _paths(rc)
    params, mconfig = _load_model(rc, graph)
    chains = read_corpus(paths["corpus"], graph)
    table = aggregate_static(chains, params, mconfig)
    ent_path, rel_path = export_embeddings(
        table, graph.entities.items, graph.relations.items, paths["emb"]
    )
    print(f"wrote {ent_path} and {rel_path}")
    return 0


def _trained_scorer(rc, graph, split):
    try:
        ent, rel = import_embeddings(_paths(rc)["emb"], graph.entities.items, graph.relations.items)
    except FileNotFoundError as exc:
        raise ConfigError(f"no embeddings at {exc.filename}; run the export stage first") from None
    rng = seeds.derived_rng(rc.seed, seeds.SCORER_INIT, 0)
    dim = rc.scorer_dim or ent.shape[1]
    if rc.init == "dolores":
        scorer = init_scorer_from_table(ent, rel, rc.scorer_kind, dim, rng)
    else:
        # the random control takes the width of the exported table it replaces
        scorer = init_scorer_random(rc.scorer_kind, dim, graph.n_entities, graph.n_relations, rng)
    train_scorer(scorer, split.train, split.filter_index, rc.scorer_config())
    return scorer


def cmd_eval_link(rc):
    rc.require("train", "valid", "test", "out")
    graph, split = _load_graph(rc)
    scorer = _trained_scorer(rc, graph, split)
    result = link_prediction_eval(scorer, split.test, split.filter_index)
    paths = _paths(rc)
    write_metrics_report(result, paths["link_metrics"])
    write_ranks(result, split.test, paths["link_ranks"])
    rows = rank_breakdown_by_category(split.test, result.tail_ranks, graph.relations.items)
    write_breakdown(rows, paths["link_breakdown"])
    print(format_metrics_table(result))
    return 0


def cmd_eval_triple(rc):
    rc.require("train", "valid", "test", "out")
    graph, split = _load_graph(rc)
    scorer = _trained_scorer(rc, graph, split)
    result = triple_classification_eval(scorer, split.valid, split.test, known=split.filter_index, seed=rc.seed)
    write_classification_report(result, _paths(rc)["classification"])
    print(f"valid accuracy {result.valid_accuracy:.4f}")
    print(f"test accuracy  {result.test_accuracy:.4f}")
    return 0


def cmd_grad_check(rc):
    worst, per_block = run_gradcheck(seed=rc.seed)
    for name in sorted(per_block):
        print(f"{name:<12} {per_block[name]:.3e}")
    print(f"max relative error: {worst:.3e}")
    return 0 if worst < GRADCHECK_TOLERANCE else 1


_COMMANDS = {
    "ingest": cmd_ingest,
    "walk": cmd_walk,
    "train": cmd_train,
    "export": cmd_export,
    "eval-link": cmd_eval_link,
    "eval-triple": cmd_eval_triple,
    "grad-check": cmd_grad_check,
}


def dispatch(subcommand, rc):
    """Run one pipeline stage; returns the process exit status."""
    cmd = _COMMANDS.get(subcommand)
    if cmd is None:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    return cmd(rc)


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = argparse.ArgumentParser(
        prog="kglm",
        description="Contextual knowledge-graph embeddings from random-walk chains.",
    )
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    add_flags(parser)
    args = parser.parse_args(argv)
    try:
        rc = merge(args)
        return dispatch(args.subcommand, rc)
    except (ConfigError, ValueError, RuntimeError, OSError) as exc:
        print(f"kglm: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
