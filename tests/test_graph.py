import dataclasses
import re

import numpy as np
import pytest

from kglm.cli import main as cli_main
from kglm.graph import (
    EOS_SURFACE,
    INVERSE_SUFFIX,
    DatasetSplit,
    TripleParseError,
    Vocab,
    build_filter_index,
    build_graph,
    load_dataset,
    load_triples,
)

from conftest import random_graph, to_ids


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def three_splits(tmp_path):
    """Train a-b-c; valid a->c; test d->a, so d is the one entity with
    no train edge."""
    return (
        _write(tmp_path, "train.tsv", "a\tr\tb\nb\tr\tc\n"),
        _write(tmp_path, "valid.tsv", "a\tr\tc\n"),
        _write(tmp_path, "test.tsv", "d\tr\ta\n"),
    )


def reference_index(triples, add_inverses, extra_entities):
    """The per-triple cursor and per-entity np.unique builder, with
    held-out-only entities appended afterwards as isolated nodes: the
    reference for the array-built index."""
    triples = list(dict.fromkeys(triples))
    entities, relations = Vocab(), Vocab()
    for h, r, t in triples:
        entities.add(h)
        relations.add(r)
        entities.add(t)
    n_base = len(relations)
    if add_inverses:
        for r in list(relations.items):
            relations.add(r + INVERSE_SUFFIX)
    relations.add(EOS_SURFACE)
    ids = np.array(
        [(entities.index[h], relations.index[r], entities.index[t]) for h, r, t in triples],
        dtype=np.int64,
    )
    n_ent = len(entities)
    deg = np.zeros(n_ent, dtype=np.int64)
    np.add.at(deg, ids[:, 0], 1)
    if add_inverses:
        np.add.at(deg, ids[:, 2], 1)
    adj_off = np.zeros(n_ent + 1, dtype=np.int64)
    np.cumsum(deg, out=adj_off[1:])
    adj_rel = np.empty(adj_off[-1], dtype=np.int64)
    adj_nbr = np.empty(adj_off[-1], dtype=np.int64)
    cursor = adj_off[:-1].copy()
    for h, r, t in ids:
        adj_rel[cursor[h]], adj_nbr[cursor[h]] = r, t
        cursor[h] += 1
        if add_inverses:
            adj_rel[cursor[t]], adj_nbr[cursor[t]] = r + n_base, h
            cursor[t] += 1
    chunks = [np.unique(adj_nbr[adj_off[e] : adj_off[e + 1]]) for e in range(n_ent)]
    nbr_off = np.zeros(n_ent + 1, dtype=np.int64)
    np.cumsum([len(c) for c in chunks], out=nbr_off[1:])
    for e in extra_entities:
        entities.add(e)
    pad = len(entities) - n_ent
    return {
        "entities": entities.items,
        "relations": relations.items,
        "triples": ids,
        "adj_off": np.concatenate([adj_off, np.full(pad, adj_off[-1])]),
        "adj_rel": adj_rel,
        "adj_nbr": adj_nbr,
        "nbr_off": np.concatenate([nbr_off, np.full(pad, nbr_off[-1])]),
        "nbr_sorted": np.concatenate(chunks),
    }


def messy_graph(seed):
    """Random surface triples over few entities, so self-loops, parallel
    edges and duplicate lines are common (one of each is forced), plus
    held-out entity surfaces, some of which never appear in train."""
    rng = np.random.default_rng(seed)
    n_ent = int(rng.integers(2, 12))
    rows = rng.integers(0, [n_ent, 3, n_ent], size=(int(rng.integers(1, 40)), 3))
    triples = [(f"e{h}", f"r{r}", f"e{t}") for h, r, t in rows]
    h, r, _ = triples[0]
    triples += [(h, r, h), (h, r + "x", h), triples[0]]
    extra = [f"e{e}" for e in rng.integers(0, n_ent + 5, size=int(rng.integers(0, 10)))]
    return triples, extra


class TestLoadTriples:
    def test_two_lines(self, tmp_path):
        p = _write(tmp_path, "t.tsv", "a\tr1\tb\nb\tr2\tc\n")
        assert load_triples(p) == [("a", "r1", "b"), ("b", "r2", "c")]

    def test_field_count_error_names_line(self, tmp_path):
        p = _write(tmp_path, "t.tsv", "a\tr1\n")
        with pytest.raises(TripleParseError, match=":1"):
            load_triples(p)

    def test_error_line_number_past_good_lines(self, tmp_path):
        p = _write(tmp_path, "t.tsv", "a\tr\tb\nx\ty\tz\tw\n")
        with pytest.raises(TripleParseError, match=":2"):
            load_triples(p)

    def test_empty_file_is_error(self, tmp_path):
        p = _write(tmp_path, "t.tsv", "")
        with pytest.raises(TripleParseError, match="no triples"):
            load_triples(p)

    def test_blank_lines_skipped_and_surfaces_verbatim(self, tmp_path):
        p = _write(tmp_path, "t.tsv", "a \tr 1\t b\n\nc\tr\td\n")
        assert load_triples(p) == [("a ", "r 1", " b"), ("c", "r", "d")]

    def test_triple_count_equals_line_count(self, tmp_path):
        # oracle: the number of nonempty lines written
        n = 5000
        lines = [f"h{i}\tr{i % 7}\tt{i}" for i in range(n)]
        p = _write(tmp_path, "big.tsv", "\n".join(lines) + "\n")
        assert len(load_triples(p)) == n


class TestBuildGraph:
    def test_single_triple_with_inverses(self):
        g = build_graph([("a", "r", "b")], add_inverses=True)
        assert g.relations.items == ["r", "r^-1", EOS_SURFACE]
        rels, nbrs = g.out_edges(g.entities.id_of("a"))
        assert list(rels) == [0] and list(nbrs) == [g.entities.id_of("b")]
        rels, nbrs = g.out_edges(g.entities.id_of("b"))
        assert list(rels) == [1] and list(nbrs) == [g.entities.id_of("a")]

    def test_single_triple_without_inverses(self):
        g = build_graph([("a", "r", "b")], add_inverses=False)
        assert len(g.relations) == 2
        assert g.out_degree(g.entities.id_of("b")) == 0

    def test_triangle_degrees(self):
        g = build_graph([("a", "r", "b"), ("b", "r", "c"), ("c", "r", "a")])
        for e in range(3):
            assert g.out_degree(e) == 2

    def test_first_appearance_ids(self):
        g = build_graph([("x", "r2", "y"), ("y", "r1", "z")])
        assert g.entities.items == ["x", "y", "z"]
        assert g.relations.items[:2] == ["r2", "r1"]

    def test_duplicates_dropped_with_warning(self, caplog):
        with caplog.at_level("WARNING"):
            g = build_graph([("a", "r", "b"), ("a", "r", "b")])
        assert len(g.triples) == 1
        assert any("duplicate" in rec.message for rec in caplog.records)

    def test_round_trip_surfaces(self):
        triples = random_graph(0)
        g = build_graph(triples)
        ents, rels = g.entities.items, g.relations.items
        assert [(ents[h], rels[r], ents[t]) for h, r, t in g.triples] == triples

    def test_empty_input_error(self):
        with pytest.raises(ValueError):
            build_graph([])

    def test_reserved_relation_rejected(self):
        with pytest.raises(ValueError):
            build_graph([("a", EOS_SURFACE, "b")])

    def test_inverse_closure(self):
        g = build_graph(random_graph(1))
        n_base = g.n_base_relations
        for h, r, t in g.triples:
            rels, nbrs = g.out_edges(t)
            assert any(rr == r + n_base and nn == h for rr, nn in zip(rels, nbrs))
        # and vice versa: every inverse edge has its source triple
        n_inv = np.count_nonzero((g.adj_rel >= n_base) & (g.adj_rel < 2 * n_base))
        assert n_inv == len(g.triples)

    @pytest.mark.parametrize("add_inverses", [True, False])
    @pytest.mark.parametrize("seed", range(30))
    def test_index_matches_loop_reference(self, seed, add_inverses):
        triples, extra = messy_graph(seed)
        g = build_graph(triples, add_inverses=add_inverses, extra_entities=extra)
        ref = reference_index(triples, add_inverses, extra)
        assert g.entities.items == ref["entities"]
        assert g.relations.items == ref["relations"]
        for name in ("triples", "adj_off", "adj_rel", "adj_nbr", "nbr_off", "nbr_sorted"):
            got = getattr(g, name)
            assert got.dtype == np.int64, name
            assert np.array_equal(got, ref[name]), name


def naive_answers(triples, h=None, r=None, t=None):
    """Sorted answers of one query by a scan: the heads of (r, t) when
    ``h`` is None, else the tails of (h, r)."""
    rows = np.asarray(triples).reshape(-1, 3).tolist()
    if h is None:
        return sorted({hh for hh, rr, tt in rows if rr == r and tt == t})
    return sorted({tt for hh, rr, tt in rows if hh == h and rr == r})


class TestFilterIndex:
    def test_single_triple_keeps_target(self):
        g = build_graph([("a", "r", "b"), ("b", "r", "c")])  # entities a,b,c
        ids = to_ids(g, [("a", "r", "b")])
        fidx = build_filter_index(g.n_entities, g.n_relations, ids)
        a, b = g.entities.id_of("a"), g.entities.id_of("b")
        r = g.relations.id_of("r")
        # query (?, r, b), target a: only a itself is known-true
        assert fidx.heads(r, b).tolist() == [a]

    def test_other_true_heads_filtered(self):
        g = build_graph([("a", "r", "b"), ("c", "r", "b")])
        fidx = build_filter_index(g.n_entities, g.n_relations, g.triples)
        a, b, c = (g.entities.id_of(x) for x in "abc")
        r = g.relations.id_of("r")
        assert fidx.heads(r, b).tolist() == sorted([a, c])

    def test_brute_force_oracle_random_kg(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            n_ent, n_rel = int(rng.integers(2, 12)), int(rng.integers(1, 5))
            # three splits with repeated rows, and rows at the largest ids E-1 and R-1
            splits = [rng.integers((n_ent, n_rel, n_ent), size=(int(rng.integers(0, 40)), 3)) for _ in range(3)]
            splits[0] = np.vstack([splits[0], [(n_ent - 1, n_rel - 1, n_ent - 1), (0, n_rel - 1, n_ent - 1)]])
            known = np.vstack(splits)
            fidx = build_filter_index(n_ent, n_rel, *splits)
            rows = set(map(tuple, known.tolist()))
            assert np.all(np.diff(fidx.hrt) > 0) and np.all(np.diff(fidx.rth) > 0)
            assert len(fidx.hrt) == len(fidx.rth) == len(rows)
            # every query, with and without known answers
            for a in range(n_ent):
                for r in range(n_rel):
                    assert fidx.tails(a, r).tolist() == naive_answers(known, h=a, r=r)
                    assert fidx.heads(r, a).tolist() == naive_answers(known, r=r, t=a)
            every = np.array([(h, r, t) for h in range(n_ent) for r in range(n_rel) for t in range(n_ent)])
            np.testing.assert_array_equal(fidx.contains(every), [tuple(row) in rows for row in every.tolist()])

    def test_empty_index(self):
        for fidx in (build_filter_index(4, 2), build_filter_index(4, 2, np.empty((0, 3), dtype=np.int64))):
            assert len(fidx.heads(1, 3)) == len(fidx.tails(3, 1)) == 0
            assert fidx.contains([(0, 0, 0), (3, 1, 3)]).tolist() == [False, False]
            assert fidx.contains(np.empty((0, 3), dtype=np.int64)).shape == (0,)

    def test_key_overflow_rejected(self):
        corner = np.array([[2**21 - 1, 2**20 - 1, 2**21 - 1]])
        fidx = build_filter_index(2**21, 2**20, corner)  # the largest key is 2**62 - 1
        assert fidx.contains(corner).all() and fidx.tails(2**21 - 1, 2**20 - 1).tolist() == [2**21 - 1]
        with pytest.raises(ValueError, match="overflow"):
            build_filter_index(2**21, 2**21)

    def test_own_entities_always_present(self):
        g = build_graph(random_graph(9))
        fidx = build_filter_index(g.n_entities, g.n_relations, g.triples)
        assert fidx.contains(g.triples).all()
        for h, r, t in g.triples:
            assert int(h) in fidx.heads(int(r), int(t))
            assert int(t) in fidx.tails(int(h), int(r))


class TestDataset:
    def test_splits_must_be_disjoint(self):
        tri = np.array([[0, 0, 1]], dtype=np.int64)
        with pytest.raises(ValueError, match="overlap"):
            DatasetSplit(train=tri, valid=tri, test=np.empty((0, 3), dtype=np.int64),
                         filter_index=build_filter_index(2, 1, tri))

    def test_overlap_names_both_splits_and_the_triple(self):
        train = np.array([[0, 0, 1], [1, 0, 2]], dtype=np.int64)
        test = np.array([[2, 0, 0], [1, 0, 2], [0, 0, 1]], dtype=np.int64)
        with pytest.raises(ValueError, match=r"split test overlaps split train: .*\(1, 0, 2\)"):
            DatasetSplit(train=train, valid=np.empty((0, 3), dtype=np.int64), test=test,
                         filter_index=build_filter_index(3, 1, train, test))

    def test_load_dataset_vocab_covers_all_splits(self, tmp_path):
        graph, split = load_dataset(*three_splits(tmp_path))
        assert "d" in graph.entities
        # d exists only outside train: isolated in the walk graph
        assert graph.out_degree(graph.entities.id_of("d")) == 0
        assert len(split.train) == 2 and len(split.valid) == 1 and len(split.test) == 1
        # filter index covers all three splits
        r = graph.relations.id_of("r")
        a, c = graph.entities.id_of("a"), graph.entities.id_of("c")
        assert c in split.filter_index.tails(a, r)

    def test_loaded_graph_is_frozen(self, tmp_path):
        graph, _ = load_dataset(*three_splits(tmp_path))
        with pytest.raises(dataclasses.FrozenInstanceError):
            graph.adj_off = graph.adj_off

    def test_held_out_only_entities_come_last_and_isolated(self, tmp_path):
        train = _write(tmp_path, "train.tsv", "a\tr\tb\nb\ts\tc\n")
        valid = _write(tmp_path, "valid.tsv", "x\tr\ta\nc\ts\ty\n")
        test = _write(tmp_path, "test.tsv", "z\tr\tx\n")
        graph, _ = load_dataset(train, valid, test)
        assert graph.entities.items == ["a", "b", "c", "x", "y", "z"]
        for e in range(3, 6):
            rels, nbrs = graph.out_edges(e)
            assert len(rels) == len(nbrs) == len(graph.neighbors_sorted(e)) == 0
        assert len(graph.adj_off) == len(graph.nbr_off) == 7

    def test_ingest_counts_isolated_entities(self, tmp_path):
        train, valid, test = three_splits(tmp_path)
        out = tmp_path / "out"
        args = ["ingest", "--train", train, "--valid", valid, "--test", test, "--out", str(out)]
        assert cli_main(args) == 0
        lines = (out / "stats.txt").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "entities\t4"
        assert lines[-1] == "isolated_entities\t1"

    def test_unknown_relation_outside_train_rejected(self, tmp_path):
        (tmp_path / "train.tsv").write_text("a\tr\tb\n", encoding="utf-8")
        (tmp_path / "test.tsv").write_text("a\ts\tb\n", encoding="utf-8")
        with pytest.raises(ValueError, match="outside the train split"):
            load_dataset(str(tmp_path / "train.tsv"), None, str(tmp_path / "test.tsv"))

    @pytest.mark.parametrize("name", ["valid", "test"])
    @pytest.mark.parametrize("relation", ["r" + INVERSE_SUFFIX, EOS_SURFACE])
    def test_synthesized_relation_outside_train_rejected(self, tmp_path, name, relation):
        train = _write(tmp_path, "train.tsv", "a\tr\tb\nb\tr\tc\n")
        held_out = _write(tmp_path, f"{name}.tsv", f"c\t{relation}\tb\n")
        paths = (train, held_out, None) if name == "valid" else (train, None, held_out)
        with pytest.raises(ValueError, match=rf"{re.escape(relation)}.*{name} split"):
            load_dataset(*paths)
