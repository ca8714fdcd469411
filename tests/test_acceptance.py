"""Acceptance suite: every exit criterion at its stated tolerance, one
printed pass/fail line per criterion (run with -s to see them inline).

The desk-scale toy pipeline (session fixture) stands in for full-size
benchmark runs; published full-scale numbers are out of reach at this
scale by design.
"""

import filecmp
import os
import sys
import time

import numpy as np
import pytest

from kglm import seeds
from kglm.bilm import log_softmax
from kglm.classify import triple_classification_eval
from kglm.cli import main as cli_main
from kglm.datasets import make_clustered_kg, write_split_files
from kglm.extract import combine, contextual_reps
from kglm.gradcheck import run_gradcheck
from kglm.graph import build_filter_index, build_graph
from kglm.model import ModelConfig, init_params
from kglm.ranking import filtered_rank, link_prediction_eval
from kglm.scoring import Scorer, ScorerTrainConfig, init_scorer_from_table, init_scorer_random, train_scorer
from kglm.walker import Chain, next_step_distribution

from conftest import random_graph, step
from test_classify import FixedScorer, brute_force_best_accuracy
from test_scoring import rank_oracle


def report(n, name, ok, detail=""):
    # bypass pytest's capture so the line shows without -s as well
    print(f"[criterion {n}] {name}: {'PASS' if ok else 'FAIL'} {detail}", file=sys.__stdout__)
    assert ok, f"criterion {n} ({name}): {detail}"


class TestCriterion1Gradients:
    def test_gradient_oracle(self):
        t0 = time.monotonic()
        worst, per_block = run_gradcheck(
            seed=7, n_coords=110, n_entities=20, n_relations=6, num_layers=2, hidden=8, proj=4
        )
        elapsed = time.monotonic() - t0
        n_blocks = len(per_block)
        ok = worst < 1e-4 and elapsed < 30.0
        report(
            1,
            "gradient oracle",
            ok,
            f"(max rel err {worst:.2e} over {n_blocks} blocks, {elapsed:.1f}s)",
        )


class TestCriterion2WalkDistribution:
    def _empirical_tv(self, graph, prev, cur, p, q, n=100_000, seed=99):
        dist = next_step_distribution(prev, cur, graph, p, q)
        rng = np.random.default_rng(seed)
        counts = {}
        for _ in range(n):
            key = step(graph, prev, cur, p, q, rng.random())
            counts[key] = counts.get(key, 0) + 1
        tv = 0.0
        for rel, nbr, pr in zip(dist.rels, dist.nbrs, dist.probs):
            emp = counts.get((int(rel), int(nbr)), 0) / n
            tv += abs(emp - pr)
        return 0.5 * tv

    def test_walk_distribution_fidelity(self, ring_graph):
        t0 = time.monotonic()
        g = ring_graph
        b, c = g.entities.id_of("b"), g.entities.id_of("c")
        tv_biased = self._empirical_tv(g, b, c, 2.0, 0.5)
        # p = q = 1 must reproduce the first-order uniform-over-edges walk
        dist = next_step_distribution(b, c, g, 1.0, 1.0)
        uniform = np.full(len(dist.probs), 1.0 / len(dist.probs))
        exact_first_order = np.array_equal(dist.probs, uniform)
        tv_uniform = self._empirical_tv(g, b, c, 1.0, 1.0)
        elapsed = time.monotonic() - t0
        ok = tv_biased < 0.01 and tv_uniform < 0.01 and exact_first_order and elapsed < 10.0
        report(
            2,
            "walk-distribution fidelity",
            ok,
            f"(TV p=2,q=0.5: {tv_biased:.4f}; TV p=q=1: {tv_uniform:.4f}; {elapsed:.1f}s)",
        )


class TestCriterion3RankingOracle:
    def test_ranking_oracle(self):
        t0 = time.monotonic()
        mismatches = 0
        checked = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n_entities = int(rng.integers(10, 51))
            g = build_graph(random_graph(seed, n_entities=n_entities, n_triples=3 * n_entities))
            fidx = build_filter_index(g.n_entities, g.n_relations, g.triples)
            kind = "bilinear" if seed % 2 == 0 else "translational"
            scorer = Scorer(
                kind=kind,
                ent=rng.normal(size=(g.n_entities, 5)),
                rel=rng.normal(size=(g.n_relations, 5)),
            )
            for triple in g.triples:
                for side in ("head", "tail"):
                    got = filtered_rank(scorer, triple, side, fidx)
                    want = rank_oracle(scorer, triple, side, g.triples, g.n_entities)
                    checked += 1
                    mismatches += got != want
        elapsed = time.monotonic() - t0
        ok = mismatches == 0 and elapsed < 60.0
        report(3, "ranking oracle", ok, f"({checked} ranks on 20 KGs, {mismatches} mismatch, {elapsed:.1f}s)")


class TestCriterion4TrainingSanity:
    def test_training_sanity(self, toy):
        trace = toy["trace"]
        ratio = trace[-1] / trace[0]
        elapsed = toy["train_elapsed"]
        ok = len(trace) == 20 and ratio < 0.6 and elapsed < 300.0
        report(
            4,
            "training sanity",
            ok,
            f"(epoch1 {trace[0]:.3f} -> epoch20 {trace[-1]:.3f}, ratio {ratio:.3f}, {elapsed:.0f}s)",
        )


class TestCriterion5DropInImprovement:
    def test_drop_in_improvement(self, toy):
        t0 = time.monotonic()
        budget = ScorerTrainConfig(epochs=20, lr=0.01)
        means = {}
        for mode in ("dolores", "random"):
            vals = []
            for s in range(5):
                rng = seeds.derived_rng(s, seeds.SCORER_INIT, 0)
                if mode == "dolores":
                    scorer = init_scorer_from_table(
                        toy["table"].entity_vecs, toy["table"].relation_vecs, "bilinear", None, rng
                    )
                else:
                    scorer = init_scorer_random(
                        "bilinear", toy["table"].dim, toy["graph"].n_entities, toy["graph"].n_relations, rng
                    )
                cfg = ScorerTrainConfig(epochs=budget.epochs, lr=budget.lr, seed=s)
                train_scorer(scorer, toy["train"], toy["filter_index"], cfg)
                res = link_prediction_eval(scorer, toy["valid"], toy["filter_index"])
                vals.append(res.metrics("avg")["mrr"])
            means[mode] = float(np.mean(vals))
        ratio = means["dolores"] / means["random"]
        elapsed = time.monotonic() - t0 + toy["train_elapsed"] + toy["corpus_elapsed"]
        ok = ratio >= 1.5 and elapsed < 900.0
        report(
            5,
            "drop-in improvement",
            ok,
            f"(MRR dolores {means['dolores']:.3f} vs random {means['random']:.3f}, "
            f"ratio {ratio:.2f}, {elapsed:.0f}s incl. corpus+training)",
        )


class TestCriterion6StructuralInvariants:
    def test_structural_invariants(self):
        config = ModelConfig(
            num_layers=4,
            hidden_units=8,
            proj_dim=4,
            entity_dim=5,
            relation_dim=3,
            dropout=0.0,
            residual=True,
            batch_size=8,
            precision="f64",
            seed=1,
        )
        params = init_params(config, 12, 6)
        chain = Chain(entities=np.array([0, 3, 7, 2]), relations=np.array([1, 0, 2]))
        states = contextual_reps(chain, params, config)
        # 2L+1 vectors per position: the pair embedding, L forward, L backward
        L = config.num_layers
        reps_ok = len(states.x) == 4 and states.fwd.shape[:2] == states.bwd.shape[:2] == (L, 4)

        blown = init_params(config, 12, 6)
        for layers in (blown.fwd, blown.bwd):
            for layer in layers:
                layer.Wp *= 500.0
        blown_states = contextual_reps(chain, blown, config)
        clip_ok = (
            blown_states.fwd.min() >= -3.0
            and blown_states.fwd.max() <= 3.0
            and blown_states.bwd.min() >= -3.0
            and blown_states.bwd.max() <= 3.0
        )

        ident = init_params(config, 12, 6)
        for layer in (ident.fwd[2], ident.bwd[2]):
            layer.Wx[:] = 0.0
            layer.Wh[:] = 0.0
            layer.b[:] = 0.0
            layer.Wp[:] = 0.0
        ident_states = contextual_reps(chain, ident, config)
        residual_ok = np.array_equal(ident_states.fwd[2], ident_states.fwd[1]) and np.array_equal(
            ident_states.bwd[2], ident_states.bwd[1]
        )

        logits = np.random.default_rng(0).normal(size=(30, 12)) * 5
        norm_ok = bool(np.all(np.abs(np.exp(log_softmax(logits)).sum(axis=1) - 1.0) < 1e-6))

        rng = np.random.default_rng(1)
        linear_ok = True
        D = states.x.shape[1]
        for _ in range(10):
            l1 = rng.normal(size=4)
            l2 = rng.normal(size=4)
            alpha, beta = rng.normal(size=2)
            lhs = combine(states, alpha * l1 + beta * l2)[:, D:]
            rhs = alpha * combine(states, l1)[:, D:] + beta * combine(states, l2)[:, D:]
            linear_ok &= bool(np.all(np.abs(lhs - rhs) < 1e-9))

        ok = reps_ok and clip_ok and residual_ok and norm_ok and linear_ok
        report(
            6,
            "structural invariants",
            ok,
            f"(2L+1 {reps_ok}, clip {clip_ok}, residual {residual_ok}, softmax {norm_ok}, "
            f"combine-linearity {linear_ok})",
        )


class TestCriterion7Determinism:
    def test_end_to_end_determinism(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        triples = make_clustered_kg(n_entities=30, n_relations=6, n_triples=160, n_clusters=4, seed=2)
        train, valid, test = write_split_files(str(data), triples, seed=2)
        outs = []
        for run in ("run1", "run2"):
            out = str(tmp_path / run)
            flags = [
                "--train", train, "--valid", valid, "--test", test, "--out", out,
                "--walks-per-node", "4", "--walk-length", "9",
                "--layers", "2", "--hidden", "12", "--proj", "6",
                "--entity-dim", "8", "--relation-dim", "6",
                "--batch", "64", "--epochs", "2", "--lr", "0.01",
                "--scorer-epochs", "5", "--seed", "123", "--precision", "f32",
            ]
            for sub in ("walk", "train", "export", "eval-link", "eval-triple"):
                assert cli_main([sub, *flags]) == 0
            outs.append(out)
        files = [
            "corpus.txt",
            "model.ckpt",
            "embeddings.entities.vec",
            "embeddings.relations.vec",
            "link_metrics.tsv",
            "link_ranks.tsv",
            "link_breakdown.tsv",
            "triple_classification.tsv",
        ]
        diffs = [f for f in files if not filecmp.cmp(os.path.join(outs[0], f), os.path.join(outs[1], f), shallow=False)]
        ok = not diffs
        report(7, "end-to-end determinism", ok, f"({len(files)} artifacts byte-compared, diffs: {diffs})")


class TestCriterion8TripleClassification:
    def test_triple_classification(self):
        t0 = time.monotonic()
        # separable by construction: positives 1.0, negatives 0.0
        rels = [0] * 6 + [1] * 6
        pos = np.array([(i, r, i + 100) for i, r in enumerate(rels)], dtype=np.int64)
        neg = np.array([(i + 50, r, i + 150) for i, r in enumerate(rels)], dtype=np.int64)
        table = {tuple(map(int, t)): 1.0 for t in pos}
        scorer = FixedScorer(table, default=0.0)
        res_sep = triple_classification_eval(scorer, pos, pos, valid_neg=neg, test_neg=neg)
        separable_ok = res_sep.valid_accuracy == 1.0 and res_sep.test_accuracy == 1.0

        # overlapping scores: must match the per-relation brute-force optimum
        rng = np.random.default_rng(8)
        rels = [0] * 14 + [1] * 10 + [2] * 16
        pos = np.array([(i, r, i + 200) for i, r in enumerate(rels)], dtype=np.int64)
        neg = np.array([(i + 90, r, i + 300) for i, r in enumerate(rels)], dtype=np.int64)
        table = {tuple(map(int, t)): float(rng.normal(0.3)) for t in pos}
        table.update({tuple(map(int, t)): float(rng.normal(-0.3)) for t in neg})
        scorer = FixedScorer(table)
        res_ovl = triple_classification_eval(scorer, pos, pos, valid_neg=neg, test_neg=neg)
        expected = 0.0
        for r in set(rels):
            p = [table[tuple(map(int, t))] for t in pos if t[1] == r]
            n = [table[tuple(map(int, t))] for t in neg if t[1] == r]
            expected += brute_force_best_accuracy(p, n) * (len(p) + len(n))
        expected /= 2 * len(pos)
        oracle_ok = res_ovl.test_accuracy == pytest.approx(expected)
        elapsed = time.monotonic() - t0
        ok = separable_ok and oracle_ok and elapsed < 30.0
        report(
            8,
            "triple classification",
            ok,
            f"(separable acc {res_sep.test_accuracy:.2f}; overlap acc {res_ovl.test_accuracy:.4f} "
            f"== oracle {expected:.4f}; {elapsed:.1f}s)",
        )
