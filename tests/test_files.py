"""The artifacts a later stage reads are replaced whole or not at all."""

import os
import stat
from types import SimpleNamespace

import numpy as np
import pytest

from kglm.extract import StaticEmbeddingTable, export_embeddings
from kglm.graph import build_graph
from kglm.model import ModelConfig, init_params, save_checkpoint
from kglm.walker import Chain, write_corpus


def corpus_writer(tmp_path, fail):
    graph = build_graph([("a", "r", "b"), ("b", "r", "c")])
    chains = [Chain(entities=np.array([0, 1]), relations=np.array([0]))] * 3
    if fail:
        chains = [Chain(entities=np.array([1, 2]), relations=np.array([0]))] * 3
        chains.append(Chain(entities=np.array([0, 99]), relations=np.array([0])))
    write_corpus(chains, graph, str(tmp_path / "corpus.txt"))
    return ["corpus.txt"]


class _FailAfterFirst(dict):
    def values(self):
        values = iter(super().values())
        yield next(values)
        raise OSError("no space left on device")


def checkpoint_writer(tmp_path, fail):
    config = ModelConfig(num_layers=1, hidden_units=4, proj_dim=2, entity_dim=3, relation_dim=2)
    params = init_params(config, 3, 2)
    if fail:
        flat = params.flat
        params = SimpleNamespace(flat=lambda: _FailAfterFirst(flat()))
    save_checkpoint(str(tmp_path / "model.ckpt"), params, config, ["a", "b", "c"], ["r", "<eos>"])
    return ["model.ckpt"]


def vec_writer(tmp_path, fail):
    ent = np.arange(6.0).reshape(3, 2)
    if fail:
        ent = ent.astype(object)
        ent[2, 0] = "not a number"
    table = StaticEmbeddingTable(ent, np.ones((2, 2)), np.ones(3), np.ones(2))
    export_embeddings(table, ["a", "b", "c"], ["r", "<eos>"], str(tmp_path / "embeddings"))
    return ["embeddings.entities.vec", "embeddings.relations.vec"]


@pytest.mark.parametrize("writer", [corpus_writer, checkpoint_writer, vec_writer])
def test_failed_write_keeps_previous_file(tmp_path, tmp_path_factory, writer):
    names = writer(tmp_path, fail=False)
    assert sorted(os.listdir(tmp_path)) == sorted(names)
    # the new file gets the permissions a plain open() would give it
    plain = tmp_path_factory.mktemp("plain") / "file"
    plain.write_text("")
    assert stat.S_IMODE((tmp_path / names[0]).stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    before = {name: (tmp_path / name).read_bytes() for name in names}
    with pytest.raises((IndexError, OSError, ValueError)):
        writer(tmp_path, fail=True)
    assert sorted(os.listdir(tmp_path)) == sorted(names)
    assert {name: (tmp_path / name).read_bytes() for name in names} == before
