"""The benchmark's workloads: a generated graph plus the kglm flags that
drive the six CLI stages over it.

Every workload runs every stage, because every end-to-end metric is
reported on every workload; the sizes decide which stage dominates.
The reasons for each choice are in ``why`` and in README.md.
"""

STAGES = ("ingest", "walk", "train", "export", "eval-link", "eval-triple")

DESK_LM = ["--layers", "2", "--hidden", "64", "--proj", "32", "--entity-dim", "32", "--relation-dim", "32"]
REFERENCE_LM = ["--layers", "4", "--hidden", "512", "--proj", "32", "--entity-dim", "32", "--relation-dim", "32"]

WORKLOADS = {
    "train-wide-vocab": {
        "why": "reference 4x512 LM over a 5k-entity vocabulary: the projected LSTM and the softmax heads carry training; walks and ranking stay small",
        "graph": {"n_entities": 5000, "n_triples": 15000, "n_relations": 50, "n_clusters": 25, "exponent": 1.3},
        "held_out": 1000,
        # the train stage sees a fixed seeded subset of the walk corpus of
        # this many batches, and the later stages reuse that subset
        "train_batches": 4,
        "restore_corpus": False,
        "flags": REFERENCE_LM
        + ["--batch", "64", "--epochs", "4", "--lr", "0.01", "--walks-per-node", "3", "--walk-length", "11",
           "--init", "random", "--scorer-kind", "translational", "--scorer-dim", "32", "--scorer-epochs", "2",
           "--scorer-lr", "0.05"],
    },
    "pipeline-mid": {
        "why": "the full CLI path users run at the ROADMAP mid scale, with every stage reloading its inputs; carries the quality guards",
        "graph": {"n_entities": 2000, "n_triples": 8000, "n_relations": 40, "n_clusters": 40, "exponent": 0.0},
        "held_out": 1000,
        "train_batches": None,
        "restore_corpus": False,
        "flags": DESK_LM
        + ["--batch", "128", "--epochs", "2", "--lr", "0.05", "--walks-per-node", "1", "--p", "0.5", "--q", "2",
           "--scorer-kind", "bilinear", "--scorer-epochs", "3", "--scorer-lr", "0.05"],
    },
    "graph-hubs": {
        "why": "Zipf hubs of about 1.4k edges: walk steps at hubs, graph indexing, dense Adam over 6k-row tables, all-candidate translational ranking",
        "graph": {"n_entities": 6000, "n_triples": 24000, "n_relations": 40, "n_clusters": 5, "exponent": 1.3},
        "held_out": 600,
        # the LM trains on one batch, cheap next to the other stages but
        # enough to pass the loss gate, while export and evaluation pool
        # over the whole walk corpus. At batch 384 each (M, |E|) head
        # matrix is above the 32 MiB cap of glibc's dynamic mmap
        # threshold, so it is always mmapped and given back when freed; at
        # batch 256 (29 MiB) heap fragmentation moved peak RSS between 292
        # and 311 MB from seed to seed.
        "train_batches": 1,
        "restore_corpus": True,
        "flags": DESK_LM
        + ["--batch", "384", "--epochs", "6", "--lr", "0.03", "--walks-per-node", "1", "--walk-length", "11",
           "--p", "0.5", "--q", "2",
           "--scorer-kind", "translational", "--scorer-dim", "32", "--scorer-epochs", "2", "--scorer-lr", "0.05"],
    },
}


def flag_value(flags, name, default=None):
    """The value following ``name`` in a flag list."""
    return flags[flags.index(name) + 1] if name in flags else default
