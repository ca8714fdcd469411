"""Command-line pipeline: ingest -> walk -> train -> export -> eval.

All stages rebuild the graph deterministically from the same split
files, so ids agree across stages; intermediate artifacts live in the
--out directory (corpus.txt, walk_stats.tsv, model.ckpt, loss_trace.tsv,
scorer.ckpt, scorer_trace.tsv, embedding and report files). Export is
the only stage that pools the corpus into the static table: both eval
stages start from the exported .vec files, for either --init, and never
read the checkpoint or the corpus.

The two eval stages share one downstream scorer. Whichever runs first
trains it on the train split and writes scorer.ckpt, keyed on every
input of that training; a later eval stage with the same key loads the
tables instead of training again, and one with another key retrains
and replaces the file.
"""

import argparse
import ctypes
import hashlib
import json
import logging
import os
import sys
from dataclasses import asdict

import numpy as np

from . import seeds
from .classify import triple_classification_eval, write_classification_report
from .config import ConfigError, add_flags, merge
from .extract import aggregate_static, export_embeddings, import_embeddings, vec_paths
from .files import atomic_open
from .gradcheck import run_gradcheck
from .graph import build_filter_index, load_dataset
from .model import load_checkpoint
from .ranking import (
    format_metrics_table,
    link_prediction_eval,
    rank_breakdown_by_category,
    write_breakdown,
    write_metrics_report,
    write_ranks,
)
from .scoring import init_scorer_from_table, init_scorer_random, load_scorer, save_scorer, train_scorer
from .train import train_bilm
from .walker import generate_corpus, read_corpus

logger = logging.getLogger(__name__)

GRADCHECK_TOLERANCE = 1e-4


def _paths(rc):
    return {
        "corpus": os.path.join(rc.out, "corpus.txt"),
        "walk_stats": os.path.join(rc.out, "walk_stats.tsv"),
        "ckpt": os.path.join(rc.out, "model.ckpt"),
        "trace": os.path.join(rc.out, "loss_trace.tsv"),
        "emb": os.path.join(rc.out, "embeddings"),
        "scorer": os.path.join(rc.out, "scorer.ckpt"),
        "scorer_trace": os.path.join(rc.out, "scorer_trace.tsv"),
        "link_metrics": os.path.join(rc.out, "link_metrics.tsv"),
        "link_ranks": os.path.join(rc.out, "link_ranks.tsv"),
        "link_breakdown": os.path.join(rc.out, "link_breakdown.tsv"),
        "classification": os.path.join(rc.out, "triple_classification.tsv"),
    }


def _require_input(path, what, stage):
    if not os.path.exists(path):
        raise ConfigError(f"no {what} at {path}; run the {stage} stage first")


def _load_graph(rc):
    rc.require("train")
    return load_dataset(rc.train, rc.valid, rc.test)


def _load_model(rc, graph):
    path = _paths(rc)["ckpt"]
    params, mconfig, entities, relations = load_checkpoint(path)
    if entities != graph.entities.items or relations != graph.relations.items:
        raise ValueError(f"{path}: checkpoint vocabulary does not match the dataset files; rerun the train stage")
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
    config = rc.walk
    corpus = generate_corpus(graph, config, out_path=path)
    steps = corpus.lengths - 1
    stats = [
        f"chains\t{len(steps)}",
        f"walk_steps\t{steps.sum()}",
        f"dead_end_chains\t{np.count_nonzero(steps < config.n_steps)}",
    ]
    stats += [f"chains_of_{k}_steps\t{n}" for k, n in enumerate(np.bincount(steps, minlength=config.n_steps + 1))]
    _write_lines(_paths(rc)["walk_stats"], stats)
    print(f"wrote {len(corpus)} chains to {path}")
    return 0


def cmd_train(rc):
    rc.require("train", "out")
    graph, _ = _load_graph(rc)
    paths = _paths(rc)
    _require_input(paths["corpus"], "corpus", "walk")
    corpus = read_corpus(paths["corpus"], graph)
    if not np.any(corpus.lengths >= 2):
        raise ValueError(f"{paths['corpus']}: no walk of two or more tokens to train on; rerun the walk stage")
    _, trace = train_bilm(corpus, graph, rc.model, checkpoint_path=paths["ckpt"],
                          checkpoint_interval=rc.checkpoint_interval)
    rows = (f"{i}\t{e.loss:.6f}\t{e.loss_fwd:.6f}\t{e.loss_bwd:.6f}" for i, e in enumerate(trace, start=1))
    _write_lines(paths["trace"], rows)
    print(f"wrote checkpoint to {paths['ckpt']} ({len(trace)} epochs)")
    return 0


def cmd_export(rc):
    rc.require("train", "out")
    graph, _ = _load_graph(rc)
    paths = _paths(rc)
    _require_input(paths["corpus"], "corpus", "walk")
    _require_input(paths["ckpt"], "checkpoint", "train")
    params, mconfig = _load_model(rc, graph)
    corpus = read_corpus(paths["corpus"], graph)
    if not len(corpus):
        raise ValueError(f"{paths['corpus']}: no walks to pool; rerun the walk stage")
    table = aggregate_static(corpus, params, mconfig)
    ent_path, rel_path = export_embeddings(table, graph.entities.items, graph.relations.items, paths["emb"])
    print(f"wrote {ent_path} and {rel_path}")
    return 0


def _scorer_key(rc, graph, split):
    """What the scorer is trained from, in the order a change is logged:
    the settings, the vocabulary sizes, and one sha256 over the exported
    .vec bytes, both vocabularies and the train triples (never valid or
    test, which the scorer must not see)."""
    parts = []
    try:
        for path in vec_paths(_paths(rc)["emb"]):
            with open(path, "rb") as fh:
                parts.append(fh.read())
    except FileNotFoundError as exc:
        raise ConfigError(f"no embeddings at {exc.filename}; run the export stage first") from None
    parts.append(json.dumps([graph.entities.items, graph.relations.items], ensure_ascii=False).encode("utf-8"))
    parts.append(np.ascontiguousarray(split.train, dtype=np.int64).tobytes())
    digest = hashlib.sha256()
    for part in parts:
        # length-prefixed, so no two different inputs hash one byte string
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return {
        "init": rc.init,
        "scorer_kind": rc.scorer_kind,
        "scorer_dim": rc.scorer_dim,
        **asdict(rc.scorer),
        "n_entities": graph.n_entities,
        "n_relations": graph.n_relations,
        "inputs_sha256": digest.hexdigest(),
    }


def _trained_scorer(rc, graph, split):
    """The scorer both eval stages evaluate. It is trained once per key
    (:func:`_scorer_key`) and kept in scorer.ckpt: a file with the same
    key is loaded, one with another key is retrained and replaced, and
    a malformed one raises ValueError."""
    paths = _paths(rc)
    key = _scorer_key(rc, graph, split)
    if os.path.exists(paths["scorer"]):
        scorer, saved = load_scorer(paths["scorer"])
        if saved == key:
            return scorer
        changed = next((part for part in key if saved.get(part) != key[part]), "key")
        logger.info("%s was trained with another %s; retraining it", paths["scorer"], changed)
    ent, rel = import_embeddings(paths["emb"], graph.entities.items, graph.relations.items)
    rng = seeds.derived_rng(rc.seed, seeds.SCORER_INIT, 0)
    dim = rc.scorer_dim or ent.shape[1]
    if rc.init == "dolores":
        scorer = init_scorer_from_table(ent, rel, rc.scorer_kind, dim, rng)
    else:
        # the random control takes the width of the exported table it replaces
        scorer = init_scorer_random(rc.scorer_kind, dim, graph.n_entities, graph.n_relations, rng)
    # negatives avoid the train triples only: the held-out splits must not
    # shape the scorer they evaluate
    known = build_filter_index(graph.n_entities, graph.n_relations, split.train)
    _, trace = train_scorer(scorer, split.train, known, rc.scorer)
    _write_lines(paths["scorer_trace"], (f"{epoch}\t{loss:.6f}" for epoch, loss in enumerate(trace, start=1)))
    save_scorer(paths["scorer"], scorer, key)
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


def pin_allocator():
    """Pin glibc's mmap threshold at its 32 MiB cap and the heap trim at
    64 MiB, and keep one malloc arena; False where there is no
    ``mallopt``. Left to follow the blocks freed so far, the threshold put
    one train stage's peak RSS at 127 or 145 MB from one process to the
    next, at one seed and input. A second arena, which glibc gives the
    pool thread of :mod:`kglm.workers`, keeps its own freed blocks: it
    raised the ``pipeline-mid`` benchmark's peak RSS from 83 to 86 MB on
    a 2-vCPU host."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD, M_ARENA_MAX
    return mallopt(-3, 32 << 20) == 1 == mallopt(-1, 64 << 20) == mallopt(-8, 1)


# OpenBLAS thread-count setters: scipy-openblas's (the build numpy wheels
# carry), then a plain build's
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads")


def _loaded_blas_libraries():
    """Paths of the OpenBLAS libraries mapped into this process, from
    ``/proc/self/maps`` (none where there is no ``/proc``). numpy loads
    its own with RTLD_LOCAL, so its symbols are not global and
    ``ctypes.CDLL(None)`` does not find them."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            mapped = [line.split(None, 5) for line in fh]
    except OSError:
        return []
    return sorted({f[5].strip() for f in mapped if len(f) == 6 and "openblas" in f[5]})


def pin_blas():
    """Pin OpenBLAS to one thread, so that a product's rounding, and so
    every artifact's bytes, do not depend on the host's core count; the
    two fixed workers of :mod:`kglm.workers` use the cores instead.
    Where no OpenBLAS setter is found it logs one warning and goes on."""
    for path in _loaded_blas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return
    logger.warning("no OpenBLAS thread setter found; BLAS keeps its own thread count, "
                   "so artifact bytes may depend on the host's core count")


def main(argv=None):
    pin_allocator()
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    pin_blas()
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
