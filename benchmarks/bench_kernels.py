"""Benchmark the jitted walk sampler against the pure-numpy fallback.

Times second-order walk sampling over a mid-size graph, with the numba
variant where the optional ``jit`` extra is installed. Run as
``python benchmarks/bench_kernels.py``.
"""

import time

import numpy as np

from kglm import kernels, seeds
from kglm.datasets import make_clustered_kg
from kglm.graph import build_graph


def bench_walks(walk_fn, graph, n_walks=2000, n_steps=10, seed=0):
    start_nodes = np.arange(n_walks) % graph.n_entities
    t0 = time.perf_counter()
    total = 0
    for i, start in enumerate(start_nodes):
        rng = seeds.derived_rng(seed, seeds.WALKS, int(start), i)
        u = rng.random(n_steps)
        _, _, k = walk_fn(
            graph.adj_off,
            graph.adj_rel,
            graph.adj_nbr,
            graph.nbr_off,
            graph.nbr_sorted,
            np.int64(start),
            n_steps,
            0.5,
            2.0,
            u,
        )
        total += k
    return time.perf_counter() - t0, total


def main():
    print(f"numba available and enabled: {kernels.NUMBA_ENABLED}")
    triples = make_clustered_kg(n_entities=2000, n_relations=40, n_triples=8000, n_clusters=20, seed=0)
    graph = build_graph(triples)
    print(f"graph: {graph.n_entities} entities, {len(graph.adj_rel)} edges")

    rows = []
    t_py, steps = bench_walks(kernels._walk_steps_py, graph)
    rows.append(("walk sampling (numpy)", t_py, f"{steps} steps"))
    if kernels.NUMBA_ENABLED:
        bench_walks(kernels._walk_steps_jit, graph, n_walks=10)  # compile
        t_jit, steps = bench_walks(kernels._walk_steps_jit, graph)
        rows.append(("walk sampling (numba)", t_jit, f"speedup {t_py / t_jit:.1f}x"))

    width = max(len(r[0]) for r in rows)
    for name, t, note in rows:
        print(f"{name:<{width}}  {t * 1e3:9.2f} ms  {note}")


if __name__ == "__main__":
    main()
