"""Seeded synthetic knowledge graphs and split files for the benchmark.

The benchmark makes its own inputs so that a change to the program's
demo generators never changes what is measured. Entities fall into
clusters and every relation links one source cluster to one target
cluster, so walks and scorers have real structure to learn (the shape of
the repository's desk data). A Zipf exponent on the draw inside each
cluster turns the uniform graph into one with a few hubs of thousands of
edges and a long tail of entities with one or two.

Every held-out triple uses only entities and relations seen in train,
and every entity appears in train.
"""

import os

import numpy as np


def _unique_rows(h, r, t, limit):
    """First ``limit`` distinct (h, r, t) rows with h != t, in draw order."""
    keep = h != t
    rows = np.stack([h[keep], r[keep], t[keep]], axis=1)
    _, first = np.unique(rows, axis=0, return_index=True)
    return rows[np.sort(first)][:limit]


def clustered(n_entities, n_triples, n_relations, n_clusters, exponent, seed):
    """(n, 3) id triples with cluster-to-cluster relations.

    Entities are dealt into ``n_clusters`` clusters of equal size. Each
    relation links one source cluster to one target cluster (relation r
    leaves cluster r mod n_clusters); within a cluster the k-th member
    (in a seeded order) is drawn with weight
    ``1 / k**exponent``, so ``exponent=0`` is uniform and larger values
    make hubs.
    """
    if n_entities % n_clusters:
        raise ValueError("n_entities must be a multiple of n_clusters")
    rng = np.random.default_rng(seed)
    size = n_entities // n_clusters
    members = rng.permutation(n_entities).reshape(n_clusters, size)
    # The cluster-level shape is fixed and balanced, so that seeds vary the
    # instance (members, ranks, sampled triples) and not the hub sizes.
    src = np.arange(n_relations) % n_clusters
    dst = (src + 1 + np.arange(n_relations) // n_clusters) % n_clusters
    cum = np.cumsum(1.0 / np.arange(1, size + 1) ** exponent)
    cum /= cum[-1]

    def draw_member(clusters):
        k = np.minimum(np.searchsorted(cum, rng.random(len(clusters)), side="right"), size - 1)
        return members[clusters, k]

    r = rng.integers(n_relations, size=2 * n_triples)
    rows = _unique_rows(draw_member(src[r]), r, draw_member(dst[r]), n_triples)

    # every entity must appear in train, so give each unseen one a triple
    seen = np.zeros(n_entities, dtype=bool)
    seen[rows[:, 0]] = True
    seen[rows[:, 2]] = True
    extra = []
    for e in np.flatnonzero(~seen).tolist():
        rel = int(rng.integers(n_relations))
        other = int(draw_member(dst[[rel]])[0])
        if other == e:
            first, second = members[dst[rel], :2]
            other = int(first if e != first else second)
        extra.append((e, rel, other) if rng.random() < 0.5 else (other, rel, e))
    return np.concatenate([rows, np.array(extra, dtype=np.int64).reshape(-1, 3)])


def split(rows, held_out, seed):
    """Shuffle into (train, valid, test) with ``held_out`` triples in each
    of valid and test; held-out rows whose entity or relation would be
    unseen in train go back to train."""
    rng = np.random.default_rng(seed)
    rows = rows[rng.permutation(len(rows))]
    train = rows[2 * held_out :]
    held = rows[: 2 * held_out]
    ent_seen = np.zeros(int(rows[:, [0, 2]].max()) + 1, dtype=bool)
    ent_seen[train[:, 0]] = True
    ent_seen[train[:, 2]] = True
    rel_seen = np.zeros(int(rows[:, 1].max()) + 1, dtype=bool)
    rel_seen[train[:, 1]] = True
    ok = ent_seen[held[:, 0]] & ent_seen[held[:, 2]] & rel_seen[held[:, 1]]
    train = np.concatenate([train, held[~ok]])
    held = held[ok]
    half = len(held) // 2
    return train, held[:half], held[half:]


def write_splits(out_dir, train, valid, test):
    """Write train/valid/test TSVs with surfaces ``e<id>`` and
    ``r<id>``; returns the three paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, rows in (("train", train), ("valid", valid), ("test", test)):
        path = os.path.join(out_dir, f"{name}.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"e{h}\tr{r}\te{t}\n" for h, r, t in rows)
        paths.append(path)
    return tuple(paths)
