import ctypes
import filecmp
import logging
import os
import platform
import re
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

import kglm.cli
from kglm.cli import _scorer_key, _trained_scorer, dispatch, main
from kglm.config import _CHOICES, _KEYS, ConfigError, RunConfig
from kglm.datasets import make_clustered_kg, write_split_files
from kglm.graph import load_dataset
from kglm.model import ModelConfig
from kglm.scoring import ScorerTrainConfig, load_scorer, save_scorer
from kglm.walker import WalkConfig

from conftest import parse_config


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    triples = make_clustered_kg(n_entities=30, n_relations=6, n_triples=160, n_clusters=4, seed=1)
    return write_split_files(str(root), triples, seed=1)


def refuse(name):
    """A stand-in for ``name`` that fails the stage calling it."""

    def fail(*args, **kwargs):
        raise RuntimeError(f"the stage called {name}")

    return fail


def tiny_flags(paths, out, extra=()):
    train, valid, test = paths
    return [
        "--train", train, "--valid", valid, "--test", test, "--out", out,
        "--walks-per-node", "4", "--walk-length", "9",
        "--layers", "2", "--hidden", "12", "--proj", "6",
        "--entity-dim", "8", "--relation-dim", "6",
        "--batch", "64", "--epochs", "2", "--lr", "0.01",
        "--scorer-epochs", "5", "--seed", "77",
        *extra,
    ]


class TestParseConfig:
    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p = 1.0\n", encoding="utf-8")
        rc = parse_config(str(cfg), ["--p", "2.0"])
        assert rc.walk.p == 2.0

    def test_file_value_used_without_flag(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q = 0.25\nepochs = 7  # inline comment\n", encoding="utf-8")
        rc = parse_config(str(cfg), [])
        assert rc.walk.q == 0.25 and rc.model.epochs == 7

    def test_unknown_key_mentions_it(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("walklen = 21\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="walklen"):
            parse_config(str(cfg), [])

    def test_empty_file_same_as_flags_alone(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# nothing here\n\n", encoding="utf-8")
        flags = ["--p", "3.0", "--seed", "5"]
        assert parse_config(str(cfg), flags) == parse_config(None, flags)

    def test_missing_required_field_named(self):
        rc = RunConfig()
        with pytest.raises(ConfigError, match="train"):
            rc.require("train")

    def test_unknown_flag_rejected(self):
        with pytest.raises(ConfigError, match="walklen"):
            parse_config(None, ["--walklen", "21"])

    def test_bad_value_reported(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = soon\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="epochs"):
            parse_config(str(cfg), [])

    @pytest.mark.parametrize("key,value", [("init", "Dolores"), ("scorer_kind", "TransE"), ("precision", "f16")])
    def test_bad_choice_in_file_rejected(self, tmp_path, key, value):
        # argparse checks these words for flags; a config file must not
        # slip past it (init = Dolores once trained the random control)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"{key}: '{value}' \\(expected one of"):
            parse_config(str(cfg), [])

    def test_every_field_parses_from_its_flag(self):
        expected, flags = {}, []
        for key, (_, f) in _KEYS.items():
            flag = "--" + key.replace("_", "-")
            if key in _CHOICES:
                value = next(c for c in _CHOICES[key] if c != f.default)
            elif f.type is str:
                value = f"{key}.tsv"
            elif f.type is float:
                value = f.default / 2  # dropout and the walk biases stay in range
            else:
                value = f.default + 2  # walk_length stays odd
            expected[key] = value
            flags += [flag, str(value)]
        rc = parse_config(None, flags)
        for key, (stage, f) in _KEYS.items():
            assert getattr(getattr(rc, stage) if stage else rc, f.name) == expected[key], key

    def test_keys_are_the_command_line_of_record(self):
        # flags and config-file keys that scripts and perfbench pass
        assert sorted(_KEYS) == sorted(
            "train valid test out p q walks_per_node walk_length layers hidden proj entity_dim relation_dim "
            "dropout batch epochs lr precision checkpoint_interval init scorer_kind scorer_dim "
            "scorer_epochs scorer_lr seed threads".split()
        )

    @pytest.mark.parametrize("key", ["clip", "residual", "margin", "negatives"])
    def test_retired_protocol_constants_are_not_keys(self, tmp_path, capsys, key):
        # the projection clip, the residual connection, the scorer's margin
        # and its one corruption per positive are constants of the protocol
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = 3\n{key} = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(f"{cfg}:2: unknown key {key!r}")):
            parse_config(str(cfg), [])
        with pytest.raises(SystemExit) as exc:
            main(["ingest", "--" + key, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --{key} 1" in capsys.readouterr().err

    def test_every_stage_field_has_exactly_one_key(self):
        reached = Counter((stage, f.name) for stage, f in _KEYS.values())
        assert max(reached.values()) == 1
        for stage, cls in (("walk", WalkConfig), ("model", ModelConfig), ("scorer", ScorerTrainConfig)):
            for f in fields(cls):
                # the seed is RunConfig's own, handed to every stage
                assert reached[(stage, f.name)] == (f.name != "seed"), (stage, f.name)

    def test_one_seed_reaches_every_stage(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\n", encoding="utf-8")
        for rc in (parse_config(None, ["--seed", "7"]), parse_config(str(cfg), ["--seed", "7"])):
            assert {rc.seed, rc.walk.seed, rc.model.seed, rc.scorer.seed} == {7}
        assert RunConfig(seed=3).model.seed == 3
        with pytest.raises(ConfigError, match="the walk config's seed 4 is not seed 3"):
            RunConfig(seed=3, walk=WalkConfig(seed=4))

    @pytest.mark.parametrize(
        "source,key,value",
        [
            pytest.param(source, key, value, id=f"{source}-{name}" if name else source)
            for key, value, name in [
                ("scorer_dim", "-3", ""),
                ("scorer_epochs", "-1", "scorer_epochs"),
                ("lr", "-1", "lr"),
                ("lr", "nan", "lr-nan"),
                ("scorer_lr", "-1", "scorer_lr"),
                ("scorer_lr", "nan", "scorer_lr-nan"),
                ("checkpoint_interval", "-1", "checkpoint_interval"),
                ("layers", "0", "layers"),
                ("hidden", "0", "hidden"),
                ("proj", "0", "proj"),
                ("entity_dim", "0", "entity_dim"),
                ("relation_dim", "0", "relation_dim"),
                ("batch", "0", "batch"),
                ("seed", "-1", "seed"),
            ]
            for source in ("flag", "file")
        ],
    )
    def test_negative_scorer_dim_rejected(self, tmp_path, source, key, value):
        # every bound is checked at parse time, under its RunConfig key
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"{key}: {value}"):
            if source == "flag":
                parse_config(None, ["--" + key.replace("_", "-"), value])
            else:
                parse_config(str(cfg), [])


    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--dropout", "1.5", "bad value for dropout: 1.5 (dropout must lie in [0, 1))"),
            ("--epochs", "-1", "bad value for epochs: -1 (epochs must be >= 0)"),
            ("--scorer-epochs", "-1", "bad value for scorer_epochs: -1 (epochs must be >= 0)"),
            ("--walk-length", "0", "bad value for walk_length: 0 (walk_length must be odd and >= 3)"),
            ("--walks-per-node", "0", "bad value for walks_per_node: 0 (walks_per_node must be >= 1)"),
            ("--hidden", "0", "bad value for hidden: 0 (hidden_units must be positive)"),
        ],
    )
    def test_stage_bounds_fail_at_ingest(self, tiny_dataset, tmp_path, capsys, flag, value, message):
        # a bound only a later stage's config checks still fails the
        # first stage, under the flag's own name
        out = str(tmp_path / "run")
        assert main(["ingest", *tiny_flags(tiny_dataset, out, extra=[flag, value])]) == 1
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_undecodable_config_file_names_path_and_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"p = 1.0\nq = 2.0\n# caf\xc1\n")
        with pytest.raises(ValueError, match=re.escape(f"{cfg}:3: not UTF-8 text")):
            parse_config(str(cfg), [])


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_allocator_thresholds_are_pinned():
    assert kglm.cli.pin_allocator()


def test_allocator_pin_makes_every_call_when_one_fails(monkeypatch):
    calls = []

    class FakeLibc:
        def __init__(self, name):
            pass

        def mallopt(self, param, value):
            calls.append(param)
            return 0 if len(calls) == 1 else 1

    monkeypatch.setattr(ctypes, "CDLL", FakeLibc)
    assert kglm.cli.pin_allocator() is False
    assert calls == [-3, -1, -8]


def _blas_symbol(name):
    for path in kglm.cli._loaded_blas_libraries():
        fn = getattr(ctypes.CDLL(path), name, None)
        if fn is not None:
            return fn
    pytest.skip(f"no OpenBLAS with {name} is loaded")


class TestBlasPin:
    def test_main_pins_one_blas_thread(self, tiny_dataset, tmp_path):
        get = _blas_symbol("scipy_openblas_get_num_threads64_")
        _blas_symbol("scipy_openblas_set_num_threads64_")(2)
        assert get() == 2
        assert main(["ingest", *tiny_flags(tiny_dataset, str(tmp_path / "run"))]) == 0
        assert get() == 1

    def test_missing_setter_warns_once_and_the_stage_runs(self, tiny_dataset, tmp_path, monkeypatch, caplog):
        monkeypatch.setattr(kglm.cli, "_BLAS_SETTERS", ("no_such_blas_setter",))
        with caplog.at_level("WARNING", logger="kglm.cli"):
            assert main(["ingest", *tiny_flags(tiny_dataset, str(tmp_path / "run"))]) == 0
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and "no OpenBLAS thread setter" in warnings[0].message

    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # heads' GEMMs large enough for OpenBLAS to split them over two
        # threads when it may; without the pin model.ckpt differs
        triples = make_clustered_kg(n_entities=400, n_relations=8, n_triples=1600, n_clusters=4, seed=1)
        train, valid, test = write_split_files(str(tmp_path), triples, seed=1)
        flags = ["--train", train, "--valid", valid, "--test", test,
                 "--walks-per-node", "1", "--walk-length", "11", "--layers", "1", "--hidden", "16", "--proj", "16",
                 "--entity-dim", "8", "--relation-dim", "8", "--batch", "256", "--epochs", "1", "--seed", "3"]
        outs = [str(tmp_path / f"blas{n}") for n in (1, 2)]
        assert main(["walk", *flags, "--out", outs[0]]) == 0
        os.makedirs(outs[1])
        shutil.copyfile(os.path.join(outs[0], "corpus.txt"), os.path.join(outs[1], "corpus.txt"))
        src = os.path.dirname(os.path.dirname(kglm.cli.__file__))
        for out, n in zip(outs, (1, 2)):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=str(n))
            for stage in ("train", "export"):
                proc = subprocess.run([sys.executable, "-m", "kglm.cli", stage, *flags, "--out", out],
                                      env=env, capture_output=True, text=True, timeout=120)
                assert proc.returncode == 0, proc.stderr[-2000:]
        for name in ("model.ckpt", "embeddings.entities.vec", "embeddings.relations.vec"):
            assert filecmp.cmp(*(os.path.join(out, name) for out in outs), shallow=False), name


class TestDispatch:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_walk_creates_corpus(self, tiny_dataset, tmp_path):
        out = str(tmp_path / "run")
        rc = parse_config(None, tiny_flags(tiny_dataset, out))
        assert dispatch("walk", rc) == 0
        assert os.path.exists(os.path.join(out, "corpus.txt"))

    def test_train_epochs_zero_writes_initial_checkpoint(self, tiny_dataset, tmp_path):
        out = str(tmp_path / "run")
        rc = parse_config(None, tiny_flags(tiny_dataset, out, extra=["--epochs", "0"]))
        assert dispatch("walk", rc) == 0
        assert dispatch("train", rc) == 0
        assert os.path.exists(os.path.join(out, "model.ckpt"))

    def test_missing_required_field_fails_with_message(self, capsys):
        assert main(["walk", "--train", "nope.tsv"]) == 1
        assert "out" in capsys.readouterr().err

    def test_grad_check_prints_max_error(self, capsys):
        rc = parse_config(None, ["--seed", "7"])
        assert dispatch("grad-check", rc) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out

    def test_full_pipeline(self, tiny_dataset, tmp_path, capsys):
        out = str(tmp_path / "run")
        flags = tiny_flags(tiny_dataset, out)
        for sub in ("ingest", "walk", "train", "export", "eval-link", "eval-triple"):
            assert main([sub, *flags]) == 0, sub
        for name in (
            "stats.txt",
            "entities.tsv",
            "corpus.txt",
            "model.ckpt",
            "loss_trace.tsv",
            "scorer.ckpt",
            "scorer_trace.tsv",
            "embeddings.entities.vec",
            "embeddings.relations.vec",
            "link_metrics.tsv",
            "link_ranks.tsv",
            "link_breakdown.tsv",
            "triple_classification.tsv",
        ):
            assert os.path.exists(os.path.join(out, name)), name
        # epoch, loss, then the forward and backward directions' losses,
        # whose mean is the loss (both directions predict as many events)
        for i, line in enumerate(open(os.path.join(out, "loss_trace.tsv"), encoding="utf-8"), start=1):
            epoch, loss, fwd, bwd = line.rstrip("\n").split("\t")
            assert int(epoch) == i and abs(float(loss) - (float(fwd) + float(bwd)) / 2) <= 1e-6
        assert i == 2
        scorer_trace = open(os.path.join(out, "scorer_trace.tsv"), encoding="utf-8").read().splitlines()
        assert [line.split("\t")[0] for line in scorer_trace] == ["1", "2", "3", "4", "5"]
        assert all(re.fullmatch(r"\d+\t\d+\.\d{6}", line) for line in scorer_trace)
        report = open(os.path.join(out, "link_metrics.tsv"), encoding="utf-8").read().splitlines()
        assert all(len(line.split("\t")) == 3 for line in report)
        metrics = {(f[0], f[1]): float(f[2]) for f in (l.split("\t") for l in report)}
        assert 0.0 < metrics[("mrr", "avg")] <= 1.0
        assert metrics[("mr", "avg")] >= 1.0

    @pytest.mark.parametrize("init", ["dolores", "random"])
    def test_random_init_translational_mode(self, tiny_dataset, tmp_path, monkeypatch, init):
        out = str(tmp_path / "run")
        flags = tiny_flags(
            tiny_dataset, out, extra=["--init", init, "--scorer-kind", "translational"]
        )
        for sub in ("walk", "train", "export"):
            assert main([sub, *flags]) == 0

        # eval reads only the exported vectors, so neither mode pools the
        # corpus (the random control never did) or reloads the model
        for name in ("aggregate_static", "read_corpus", "load_checkpoint"):
            monkeypatch.setattr(f"kglm.cli.{name}", refuse(name))
        for sub in ("eval-link", "eval-triple"):
            assert main([sub, *flags]) == 0, sub

    @pytest.mark.parametrize("kind", ["translational", "bilinear"])
    def test_eval_link_ranks_in_blocks(self, tiny_dataset, tmp_path, monkeypatch, kind):
        out = str(tmp_path / "run")
        flags = tiny_flags(tiny_dataset, out, extra=["--scorer-kind", kind])
        for sub in ("walk", "train", "export"):
            assert main([sub, *flags]) == 0
        # the per-query path is the test oracle only
        monkeypatch.setattr("kglm.ranking.filtered_rank", refuse("filtered_rank"))
        for name in ("score_all_heads", "score_all_tails"):
            monkeypatch.setattr(f"kglm.scoring.Scorer.{name}", refuse(name))
        assert main(["eval-link", *flags]) == 0
        assert os.path.exists(os.path.join(out, "link_ranks.tsv"))

    def test_eval_before_export_names_missing_file(self, tiny_dataset, tmp_path, capsys):
        out = str(tmp_path / "run")
        flags = tiny_flags(tiny_dataset, out)
        for sub in ("walk", "train"):
            assert main([sub, *flags]) == 0
        capsys.readouterr()
        for sub in ("eval-link", "eval-triple"):
            assert main([sub, *flags]) == 1, sub
            err = capsys.readouterr().err
            assert os.path.join(out, "embeddings.entities.vec") in err
            assert "run the export stage first" in err

    def test_eval_against_other_datasets_vectors_fails(self, tiny_dataset, tmp_path, capsys):
        out = str(tmp_path / "run")
        flags = tiny_flags(tiny_dataset, out)
        for sub in ("walk", "train", "export"):
            assert main([sub, *flags]) == 0
        other = make_clustered_kg(n_entities=10, n_relations=3, n_triples=40, n_clusters=2, seed=9)
        bad = tiny_flags(write_split_files(str(tmp_path), other, seed=9), out)
        capsys.readouterr()
        for sub in ("eval-link", "eval-triple"):
            assert main([sub, *bad]) == 1, sub
            err = capsys.readouterr().err
            assert "embeddings.entities.vec" in err and "not the dataset vocabulary" in err

    def test_export_names_missing_input(self, tiny_dataset, tmp_path, capsys):
        out = str(tmp_path / "run")
        flags = tiny_flags(tiny_dataset, out)
        capsys.readouterr()
        assert main(["export", *flags]) == 1
        err = capsys.readouterr().err
        assert f"no corpus at {os.path.join(out, 'corpus.txt')}; run the walk stage first" in err
        assert main(["walk", *flags]) == 0
        capsys.readouterr()
        assert main(["export", *flags]) == 1
        err = capsys.readouterr().err
        assert f"no checkpoint at {os.path.join(out, 'model.ckpt')}; run the train stage first" in err

    def test_stale_checkpoint_vocab_detected(self, tiny_dataset, tmp_path):
        out = str(tmp_path / "run")
        flags = tiny_flags(tiny_dataset, out)
        assert main(["walk", *flags]) == 0
        assert main(["train", *flags]) == 0
        # same out dir, different dataset: vocab mismatch must be caught
        other = make_clustered_kg(n_entities=10, n_relations=3, n_triples=40, n_clusters=2, seed=9)
        paths = write_split_files(str(tmp_path), other, seed=9)
        bad = tiny_flags(paths, out)
        assert main(["export", *bad]) == 1

    def test_stale_checkpoint_error_names_the_checkpoint(self, exported, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        for name in ("corpus.txt", "model.ckpt"):
            shutil.copy(os.path.join(exported, name), out / name)
        other = make_clustered_kg(n_entities=10, n_relations=3, n_triples=40, n_clusters=2, seed=9)
        capsys.readouterr()
        assert main(["export", *tiny_flags(write_split_files(str(tmp_path), other, seed=9), str(out))]) == 1
        err = capsys.readouterr().err
        assert f"kglm: error: {out / 'model.ckpt'}: checkpoint vocabulary does not match the dataset files" in err

    def test_scorer_training_reads_only_the_train_split(self, tiny_dataset, tmp_path):
        # two datasets share the train split and differ in valid and test:
        # the scorer trained on them must be the same
        train, valid, test = tiny_dataset
        out = str(tmp_path / "run")
        for sub in ("walk", "train", "export"):
            assert main([sub, *tiny_flags(tiny_dataset, out)]) == 0
        halves = []
        for path in (valid, test):
            lines = open(path, encoding="utf-8").read().splitlines(keepends=True)
            halves.append(str(tmp_path / os.path.basename(path)))
            with open(halves[-1], "w", encoding="utf-8") as fh:
                fh.writelines(lines[: len(lines) // 2])
        scorers, keys = [], []
        for paths in (tiny_dataset, (train, *halves)):
            rc = parse_config(None, tiny_flags(paths, out, extra=["--scorer-epochs", "20"]))
            graph, split = load_dataset(rc.train, rc.valid, rc.test)
            # train both times, rather than load the first one's tables
            if os.path.exists(os.path.join(out, "scorer.ckpt")):
                os.remove(os.path.join(out, "scorer.ckpt"))
            keys.append(_scorer_key(rc, graph, split))
            scorers.append((graph.entities.items, _trained_scorer(rc, graph, split)))
        (vocab_a, a), (vocab_b, b) = scorers
        assert vocab_a == vocab_b
        assert np.array_equal(a.ent, b.ent) and np.array_equal(a.rel, b.rel)
        # so the valid and test splits stay out of scorer.ckpt's key
        assert keys[0] == keys[1]


@pytest.fixture(scope="module")
def exported(tiny_dataset, tmp_path_factory):
    """An out directory after walk, train and export."""
    out = str(tmp_path_factory.mktemp("exported"))
    for sub in ("walk", "train", "export"):
        assert main([sub, *tiny_flags(tiny_dataset, out)]) == 0
    return out


def eval_dir(exported, tmp_path, name="run"):
    """A fresh out directory holding only the exported .vec files, all
    that the eval stages read from it."""
    out = tmp_path / name
    out.mkdir()
    for vec in ("embeddings.entities.vec", "embeddings.relations.vec"):
        shutil.copy(os.path.join(exported, vec), out / vec)
    return str(out)


def count_training(monkeypatch):
    calls = []
    train = kglm.cli.train_scorer

    def spy(*args, **kwargs):
        calls.append(1)
        return train(*args, **kwargs)

    monkeypatch.setattr(kglm.cli, "train_scorer", spy)
    return calls


def with_extra_triple(paths, tmp_path):
    """The split files with one more train triple over entities and a
    relation the train file already has, so the vocabulary is the same
    and in the same order."""
    train, valid, test = paths
    known = {tuple(line.split("\t")) for path in paths for line in open(path, encoding="utf-8").read().splitlines()}
    text = open(train, encoding="utf-8").read()
    rows = [line.split("\t") for line in text.splitlines()]
    head, rel, _ = rows[0]
    tail = next(t for _, _, t in rows if (head, rel, t) not in known and t != head)
    (tmp_path / "train_plus.tsv").write_text(text + f"{head}\t{rel}\t{tail}\n", encoding="utf-8")
    return str(tmp_path / "train_plus.tsv"), valid, test


class TestScorerCheckpoint:
    @pytest.mark.parametrize("first,second", [("eval-link", "eval-triple"), ("eval-triple", "eval-link")])
    def test_second_eval_trains_nothing(self, tiny_dataset, exported, tmp_path, monkeypatch, first, second):
        flags = tiny_flags(tiny_dataset, eval_dir(exported, tmp_path))
        assert main([first, *flags]) == 0
        monkeypatch.setattr("kglm.cli.train_scorer", refuse("train_scorer"))
        monkeypatch.setattr("kglm.extract.load_embeddings", refuse("load_embeddings"))
        assert main([second, *flags]) == 0

    @pytest.mark.parametrize(
        "change,part",
        [
            ("--scorer-epochs", "epochs"),
            ("--init", "init"),
            ("--scorer-kind", "scorer_kind"),
            ("vec-byte", "inputs_sha256"),
            ("train-split", "inputs_sha256"),
        ],
    )
    def test_each_input_change_retrains(self, tiny_dataset, exported, tmp_path, monkeypatch, caplog, change, part):
        out = eval_dir(exported, tmp_path)
        calls = count_training(monkeypatch)
        assert main(["eval-link", *tiny_flags(tiny_dataset, out)]) == 0
        assert main(["eval-triple", *tiny_flags(tiny_dataset, out)]) == 0
        assert len(calls) == 1
        paths, extra = tiny_dataset, []
        if change == "--scorer-epochs":
            extra = ["--scorer-epochs", "6"]
        elif change == "--init":
            extra = ["--init", "random"]
        elif change == "--scorer-kind":
            extra = ["--scorer-kind", "translational"]
        elif change == "vec-byte":
            # one digit of the first entity vector, the file still well formed
            vec = os.path.join(out, "embeddings.entities.vec")
            lines = open(vec, encoding="utf-8").read().split("\n")
            first = lines[1]
            i = max(k for k, c in enumerate(first) if c.isdigit() and c != "9")
            lines[1] = first[:i] + str(int(first[i]) + 1) + first[i + 1 :]
            with open(vec, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines))
        else:
            paths = with_extra_triple(tiny_dataset, tmp_path)
        flags = tiny_flags(paths, out, extra=extra)
        with caplog.at_level("INFO", logger="kglm.cli"):
            assert main(["eval-triple", *flags]) == 0
        assert len(calls) == 2
        assert f"scorer.ckpt was trained with another {part}; retraining it" in caplog.text
        # the new key is saved: the next stage loads it
        assert main(["eval-link", *flags]) == 0
        assert len(calls) == 2

    @pytest.mark.parametrize("retired", [{"margin": 1.0}, {"negatives": 1}], ids=["margin", "negatives"])
    def test_key_with_a_retired_setting_retrains(self, tiny_dataset, exported, tmp_path, monkeypatch, caplog, retired):
        # a scorer keyed on the margin or the corruptions per positive was
        # trained when they were settings; its key is not this one
        out = eval_dir(exported, tmp_path)
        calls = count_training(monkeypatch)
        flags = tiny_flags(tiny_dataset, out)
        assert main(["eval-link", *flags]) == 0
        path = os.path.join(out, "scorer.ckpt")
        scorer, key = load_scorer(path)
        save_scorer(path, scorer, {**key, **retired})
        with caplog.at_level("INFO", logger="kglm.cli"):
            assert main(["eval-triple", *flags]) == 0
        assert len(calls) == 2
        assert "scorer.ckpt was trained with another key; retraining it" in caplog.text

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda b: b[:-5], id="truncated"),
            pytest.param(lambda b: b + b"\0", id="trailing"),
            pytest.param(lambda b: b"kglm-checkpoint 1" + b[b.index(b"\n") :], id="magic"),
        ],
    )
    def test_malformed_scorer_file_names_it(self, tiny_dataset, exported, tmp_path, damage):
        out = eval_dir(exported, tmp_path)
        rc = parse_config(None, tiny_flags(tiny_dataset, out))
        assert dispatch("eval-link", rc) == 0
        path = os.path.join(out, "scorer.ckpt")
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(damage(data))
        for sub in ("eval-link", "eval-triple"):
            with pytest.raises(ValueError, match=re.escape(path)):
                dispatch(sub, rc)

    def test_eval_triple_alone_writes_the_same_report(self, tiny_dataset, exported, tmp_path):
        reports = []
        for name, stages in (("both", ("eval-link", "eval-triple")), ("alone", ("eval-triple",))):
            out = eval_dir(exported, tmp_path, name)
            for sub in stages:
                assert main([sub, *tiny_flags(tiny_dataset, out)]) == 0
            with open(os.path.join(out, "triple_classification.tsv"), "rb") as fh:
                reports.append(fh.read())
        assert reports[0] == reports[1]
