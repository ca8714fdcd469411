"""Parity between the jitted walk kernels and the pure-numpy fallbacks,
and the environment-flag selection."""

import os
import subprocess
import sys

import numpy as np
import pytest

from kglm import kernels
from kglm.graph import build_graph

from conftest import random_graph

needs_numba = pytest.mark.skipif(not kernels.NUMBA_ENABLED, reason="numba disabled")


@needs_numba
class TestWalkParity:
    def test_walks_bitwise_identical(self):
        for seed in range(8):
            g = build_graph(random_graph(seed))
            rng = np.random.default_rng(seed)
            u = rng.random(12)
            start = np.int64(seed % g.n_entities)
            args = (g.adj_off, g.adj_rel, g.adj_nbr, g.nbr_off, g.nbr_sorted, start, 12, 0.5, 2.0, u)
            e1, r1, k1 = kernels._walk_steps_py(*args)
            e2, r2, k2 = kernels._walk_steps_jit(*args)
            assert k1 == k2
            assert np.array_equal(e1[: k1 + 1], e2[: k2 + 1])
            assert np.array_equal(r1[:k1], r2[:k2])

    def test_step_choice_identical(self):
        g = build_graph(random_graph(3))
        rng = np.random.default_rng(0)
        for _ in range(200):
            cur = int(rng.integers(g.n_entities))
            lo, hi = g.adj_off[cur], g.adj_off[cur + 1]
            if hi == lo:
                continue
            prev = int(g.adj_nbr[lo])
            u = rng.random()
            a = kernels._step_choice_py(g.adj_rel, g.adj_nbr, lo, hi, g.nbr_off, g.nbr_sorted, prev, 0.7, 1.9, u)
            b = kernels._step_choice_jit(g.adj_rel, g.adj_nbr, lo, hi, g.nbr_off, g.nbr_sorted, prev, 0.7, 1.9, u)
            assert a == b


class TestEnvFlag:
    def test_disable_flag_selects_numpy_path(self):
        env = dict(os.environ, KGLM_DISABLE_NUMBA="1")
        out = subprocess.run(
            [sys.executable, "-c",
             "from kglm import kernels; "
             "print(kernels.NUMBA_ENABLED, kernels.walk_steps is kernels._walk_steps_py)"],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == "False True"

    def test_default_reports_consistent_selection(self):
        if kernels.NUMBA_ENABLED:
            assert kernels.walk_steps is kernels._walk_steps_jit
        else:
            assert kernels.walk_steps is kernels._walk_steps_py
