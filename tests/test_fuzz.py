"""Seeded byte mutations of every file a stage reads, each run through
``kglm.cli.main`` by the first stage that reads it. The stage either
succeeds or exits 1 with exactly one ``kglm: error:`` line, and that line
names the mutated file; no exception escapes."""

import os
import shutil

import numpy as np
import pytest

from kglm.cli import main
from kglm.datasets import make_clustered_kg, write_split_files

MUTATIONS = 400

# every file a stage reads -> the first stage that reads it
READER = {
    "train.tsv": "ingest",
    "valid.tsv": "ingest",
    "test.tsv": "ingest",
    "corpus.txt": "train",
    "model.ckpt": "export",
    "embeddings.entities.vec": "eval-link",
    "embeddings.relations.vec": "eval-link",
    "scorer.ckpt": "eval-link",
}
SPLITS = ("train.tsv", "valid.tsv", "test.tsv")


def flags(root):
    return [
        *(f"--{name[:-4]}={os.path.join(root, name)}" for name in SPLITS),
        f"--out={root}",
        "--walks-per-node=2", "--walk-length=7",
        "--layers=1", "--hidden=6", "--proj=4", "--entity-dim=4", "--relation-dim=4",
        "--batch=32", "--epochs=1", "--lr=0.01", "--scorer-epochs=1", "--seed=3",
    ]


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A desk graph's split files and every artifact the stages write."""
    root = str(tmp_path_factory.mktemp("pristine"))
    triples = make_clustered_kg(n_entities=24, n_relations=4, n_triples=120, n_clusters=3, seed=5)
    for path, name in zip(write_split_files(root, triples, seed=5), SPLITS):
        assert os.path.basename(path) == name
    for stage in ("walk", "train", "export", "eval-link"):
        assert main([stage, *flags(root)]) == 0, stage
    return {name: open(os.path.join(root, name), "rb").read() for name in READER}


def mutate(data, rng):
    """One flip, delete, insert or truncation at a random offset."""
    data = bytearray(data)
    i = int(rng.integers(len(data)))
    kind = int(rng.integers(4))
    if kind == 0:
        data[i] ^= 1 << int(rng.integers(8))
    elif kind == 1:
        del data[i]
    elif kind == 2:
        data.insert(i, int(rng.integers(256)))
    else:
        del data[i:]
    return bytes(data)


def test_every_mutation_fails_cleanly_naming_its_file(pristine, tmp_path, capsys):
    rng = np.random.default_rng(2024)
    names = sorted(READER)
    outcomes = {0: 0, 1: 0}
    for case in range(MUTATIONS):
        name = names[case % len(names)]
        root = tmp_path / f"case{case}"
        root.mkdir()
        for other, data in pristine.items():
            (root / other).write_bytes(mutate(data, rng) if other == name else data)
        capsys.readouterr()
        status = main([READER[name], *flags(str(root))])
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("kglm: error:")]
        assert status in outcomes, (case, name, status)
        outcomes[status] += 1
        if status == 1:
            assert len(errors) == 1 and str(root / name) in errors[0], (case, name, err)
        shutil.rmtree(root)
    # the mutations reach both outcomes
    assert outcomes[0] and outcomes[1]


def run_on(pristine, root, stage, capsys, **replaced):
    """Run ``stage`` on the pristine files with ``replaced`` (file name ->
    text) swapped in; returns the exit status and the error lines."""
    root.mkdir()
    for name, data in pristine.items():
        (root / name).write_bytes(data)
    for name, text in replaced.items():
        (root / name).write_text(text, encoding="utf-8")
    capsys.readouterr()
    status = main([stage, *flags(str(root))])
    return status, [line for line in capsys.readouterr().err.splitlines() if line.startswith("kglm: error:")]


@pytest.mark.parametrize("name", SPLITS)
@pytest.mark.parametrize("line, surface", [("a b\tr\tc", "a b"), ("\tr\ta", ""), ("a\tr s\tb", "r s"), ("a\tr\t", "")],
                         ids=["space-in-head", "empty-head", "space-in-relation", "empty-tail"])
def test_bad_surface_fails_ingest_naming_its_line(pristine, tmp_path, capsys, name, line, surface):
    # the corpus separates tokens with spaces: a surface with a space or
    # an empty one must fail where it is read, not in a later stage
    text = pristine[name].decode("utf-8")
    lineno = text.count("\n") + 1
    status, errors = run_on(pristine, tmp_path / "case", "ingest", capsys, **{name: text + line + "\n"})
    assert status == 1 and len(errors) == 1
    assert errors[0].endswith(f"{tmp_path / 'case' / name}:{lineno}: surface {surface!r} is empty or holds whitespace")


@pytest.mark.parametrize("stage, kind", [("train", "empty"), ("train", "one-token walks"), ("export", "empty")])
def test_unusable_corpus_fails_naming_it(pristine, tmp_path, capsys, stage, kind):
    lines = pristine["corpus.txt"].decode("utf-8").splitlines()
    text = "" if kind == "empty" else "".join(line.split(" ")[0] + "\n" for line in lines)
    status, errors = run_on(pristine, tmp_path / "case", stage, capsys, **{"corpus.txt": text})
    assert status == 1 and len(errors) == 1
    assert str(tmp_path / "case" / "corpus.txt") in errors[0]
