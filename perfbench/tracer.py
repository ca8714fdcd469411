"""In-memory spans around kglm's public functions, from outside ``src/``.

A traced run replaces each target function at every module attribute
and registry dict that holds it (``from .x import f`` copies the
reference into the importing module, so patching only the defining
module would miss those callers). Methods are replaced on their class.
Each call records ``[name, start, end, parent]``; self time is a span's
duration minus the durations of its direct children, which never
overlap because kglm runs its stages on one thread.
"""

import functools
import sys
import time
from collections import defaultdict

# Targets are (module, attribute or Class.method, span name). PHASES are
# the calls whose per-call times give the end-to-end throughputs: every
# pass wraps them, and a traced pass wraps all of TARGETS.
PHASES = [
    ("kglm.walker", "generate_corpus", "walker.generate_corpus"),
    ("kglm.train", "train_bilm", "train.train_bilm"),
    ("kglm.extract", "aggregate_static", "extract.aggregate_static"),
    ("kglm.extract", "export_embeddings", "extract.export_embeddings"),
    ("kglm.scoring", "train_scorer", "scoring.train_scorer"),
    ("kglm.ranking", "link_prediction_eval", "ranking.link_prediction_eval"),
]

TARGETS = PHASES + [
    ("kglm.cli", "cmd_ingest", "cli.ingest"),
    ("kglm.cli", "cmd_walk", "cli.walk"),
    ("kglm.cli", "cmd_train", "cli.train"),
    ("kglm.cli", "cmd_export", "cli.export"),
    ("kglm.cli", "cmd_eval_link", "cli.eval_link"),
    ("kglm.cli", "cmd_eval_triple", "cli.eval_triple"),
    ("kglm.graph", "load_dataset", "graph.load_dataset"),
    ("kglm.seeds", "derived_rng", "seeds.derived_rng"),
    ("kglm.kernels", "walk_steps", "kernels.walk_steps"),
    ("kglm.kernels", "lstm_gates_forward", "kernels.gates_forward"),
    ("kglm.kernels", "lstm_gates_backward", "kernels.gates_backward"),
    ("kglm.walker", "write_corpus", "walker.write_corpus"),
    ("kglm.walker", "read_corpus", "walker.read_corpus"),
    ("kglm.bilm", "pack_batch", "bilm.pack_batch"),
    ("kglm.bilm", "bilm_forward", "bilm.forward"),
    ("kglm.bilm", "bilm_backward", "bilm.backward"),
    ("kglm.bilm", "log_softmax", "bilm.log_softmax"),
    ("kglm.bilm", "lstm_layer_forward", "lstm.layer_forward"),
    ("kglm.bilm", "lstm_layer_backward", "lstm.layer_backward"),
    ("kglm.optim", "Adam.step", "optim.adam_step"),
    ("kglm.model", "save_checkpoint", "model.save_checkpoint"),
    ("kglm.model", "load_checkpoint", "model.load_checkpoint"),
    ("kglm.extract", "aggregate_layered", "extract.aggregate_layered"),
    ("kglm.scoring", "sample_negatives", "scoring.sample_negatives"),
    ("kglm.scoring", "Scorer.score_all_heads", "scoring.score_all"),
    ("kglm.scoring", "Scorer.score_all_tails", "scoring.score_all"),
    ("kglm.ranking", "filtered_rank", "ranking.filtered_rank"),
    ("kglm.classify", "triple_classification_eval", "classify.eval"),
]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []

    def wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[sid][2] = clock()
                stack.pop()

        return traced

    def install(self, targets=TARGETS):
        """Patch every target; raises if one no longer exists, so a
        renamed entry point fails the traced run instead of vanishing."""
        for module_name, attr, name in targets:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(getattr(cls, meth), name))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(original, name)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "kglm" or mod_name.startswith("kglm.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                value[dkey] = wrapper

    def durations(self, name):
        """Per-call seconds of the spans called ``name``, in call order."""
        return [end - start for n, start, end, _ in self.spans if n == name]

    def summary(self):
        """Per span name: total seconds, self seconds, call count; plus
        Adam steps split by the training loop that issued them."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child_time[i]
            calls[name] += 1
            if name == "optim.adam_step":
                owner = self._ancestor(i, ("train.train_bilm", "scoring.train_scorer"))
                key = "optim.adam_step.train" if owner == "train.train_bilm" else "optim.adam_step.scorer"
                total[key] += end - start
        return total, self_time, calls

    def _ancestor(self, i, names):
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] in names:
                return self.spans[p][0]
            p = self.spans[p][3]
        return None


def per_layer_metrics(tracer):
    """The per-layer metric values (seconds and counts) of one traced run."""
    total, self_time, calls = tracer.summary()
    return {
        "cli.ingest_s": total["cli.ingest"],
        "cli.walk_s": total["cli.walk"],
        "cli.train_s": total["cli.train"],
        "cli.export_s": total["cli.export"],
        "cli.eval_link_s": total["cli.eval_link"],
        "cli.eval_triple_s": total["cli.eval_triple"],
        "graph.load_dataset_s": total["graph.load_dataset"],
        "graph.load_dataset_calls": calls["graph.load_dataset"],
        "walker.read_corpus_s": total["walker.read_corpus"],
        "walker.read_corpus_calls": calls["walker.read_corpus"],
        "model.save_checkpoint_s": total["model.save_checkpoint"],
        "model.load_checkpoint_s": total["model.load_checkpoint"],
        "seeds.derived_rng_s": total["seeds.derived_rng"],
        "seeds.derived_rng_calls": calls["seeds.derived_rng"],
        "kernels.walk_steps_s": total["kernels.walk_steps"],
        "walker.generate_corpus_s": total["walker.generate_corpus"],
        "walker.write_corpus_s": total["walker.write_corpus"],
        "train.train_bilm_s": total["train.train_bilm"],
        "bilm.forward_self_s": self_time["bilm.forward"],
        "bilm.backward_self_s": self_time["bilm.backward"],
        "bilm.log_softmax_s": total["bilm.log_softmax"],
        "bilm.pack_batch_s": total["bilm.pack_batch"],
        "lstm.layer_forward_s": total["lstm.layer_forward"],
        "lstm.layer_backward_s": total["lstm.layer_backward"],
        "kernels.gates_forward_s": total["kernels.gates_forward"],
        "kernels.gates_backward_s": total["kernels.gates_backward"],
        "optim.adam_step_s.train": total["optim.adam_step.train"],
        "optim.adam_step_s.scorer": total["optim.adam_step.scorer"],
        "extract.aggregate_calls": calls["extract.aggregate_static"],
        "extract.aggregate_static_s": total["extract.aggregate_static"],
        "extract.aggregate_self_s": self_time["extract.aggregate_layered"],
        "extract.export_embeddings_s": total["extract.export_embeddings"],
        "scoring.train_scorer_s": total["scoring.train_scorer"],
        "scoring.sample_negatives_s": total["scoring.sample_negatives"],
        "scoring.score_all_s": total["scoring.score_all"],
        "ranking.filtered_rank_s": total["ranking.filtered_rank"],
        "ranking.filtered_rank_self_s": self_time["ranking.filtered_rank"],
        "classify.eval_s": total["classify.eval"],
    }
