"""One traced pass at the ROADMAP aim-1 anchor sizes.

    python3 perfbench/calibrate.py          # from the root of a checkout

Measures, with the benchmark's tracer installed, the four baselines the
ROADMAP anchors: 20k mid-scale walks and their ``derived_rng`` share, one
mid-scale epoch of the 2x64 LM and its softmax-head share,
``aggregate_static`` over that corpus and its share outside the LSTM, and
one training step at the reference shape (4x512, batch 1024) at
|E| = 2k. The step at |E| = 15k is not run: its peak resident memory
(about 6.3 GB at batch 1024) exceeds what this benchmark may take on a
shared 8 GB machine. Prints one JSON object with each measured value
beside its anchor.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import environment  # noqa: E402

os.environ.update(environment.thread_env())
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import kglm  # noqa: E402
import kglm.cli  # noqa: E402,F401  (the tracer also wraps the CLI stages)
from kglm.datasets import make_clustered_kg  # noqa: E402
from tracer import Tracer  # noqa: E402

ANCHORS = {
    "mid_walk_20k_s": 4.1,
    "mid_walk_derived_rng_s": 0.5,
    "mid_epoch_s": 14.3,
    "mid_epoch_head_share": 2 / 3,
    "aggregate_static_s": 4.4,
    "aggregate_outside_lstm_share": 0.36,
    "reference_step_2k_s": 5.4,
    "reference_step_15k_s": 8.4,
}


def main():
    tracer = Tracer()
    tracer.install()
    graph = kglm.build_graph(make_clustered_kg(n_entities=2000, n_relations=40, n_triples=8000, seed=0))
    measured = {}

    def delta(fn):
        before = tracer.summary()
        out = fn()
        after = tracer.summary()
        diff = {
            kind: {k: after[i][k] - before[i].get(k, 0) for k in after[i]}
            for i, kind in enumerate(("total", "self", "calls"))
        }
        return out, diff

    walk_cfg = kglm.WalkConfig(p=0.5, q=2.0, walks_per_node=10, walk_length=21, seed=1)
    chains, d = delta(lambda: kglm.generate_corpus(graph, walk_cfg))
    measured["mid_walk_20k_s"] = d["total"]["walker.generate_corpus"]
    measured["mid_walk_derived_rng_s"] = d["total"]["seeds.derived_rng"]
    measured["mid_walks"] = len(chains)

    desk = kglm.ModelConfig(num_layers=2, hidden_units=64, proj_dim=32, entity_dim=32, relation_dim=32,
                            batch_size=256, epochs=1, learning_rate=0.02, seed=1)
    (params, _), d = delta(lambda: kglm.train_bilm(chains, graph, desk))
    epoch = d["total"]["train.train_bilm"]
    heads = d["self"]["bilm.forward"] + d["total"]["bilm.log_softmax"] + d["self"]["bilm.backward"]
    measured["mid_epoch_s"] = epoch
    measured["mid_epoch_head_share"] = heads / epoch

    _, d = delta(lambda: kglm.aggregate_static(chains, params, desk))
    measured["aggregate_static_s"] = d["total"]["extract.aggregate_static"]
    measured["aggregate_outside_lstm_share"] = d["self"]["extract.aggregate_layered"] / measured["aggregate_static_s"]

    reference = kglm.ModelConfig(batch_size=1024, epochs=1, seed=1)
    step_chains = chains[:1024]
    _, d = delta(lambda: kglm.train_bilm(step_chains, graph, reference))
    measured["reference_step_2k_s"] = d["total"]["optim.adam_step"] + d["total"]["bilm.forward"] + d["total"]["bilm.backward"] + d["total"]["bilm.pack_batch"]
    measured["reference_step_2k_forward_softmax_s"] = d["total"]["bilm.log_softmax"]
    measured["reference_step_15k_s"] = "not run: about 6.3 GB peak at batch 1024, over the memory budget"
    measured["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(json.dumps({
        "anchors": ANCHORS,
        "measured": measured,
        "environment": environment.describe(),
        "date": time.strftime("%Y-%m-%d"),
    }, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
