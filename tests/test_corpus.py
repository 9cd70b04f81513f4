import hashlib
import json

import numpy as np
import pytest

from tsgp import corpus, expr, semantics
from tsgp.corpus import (CorpusEntry, build_corpus, build_ivf_index,
                         gen_synthetic_problem, harvest_functions,
                         knn_neighbors, mine_pairs, query_ivf,
                         read_corpus_jsonl, read_pairs_jsonl, write_corpus_jsonl,
                         write_pairs_jsonl)
from tsgp.expr import PrimitiveSet
from tsgp.stdgp import DOUBLE_TOURNAMENT, GPConfig


class TestSyntheticProblem:
    def test_seed_reproducible(self):
        p1 = gen_synthetic_problem(4, 50, 0.1, np.random.default_rng(9))
        p2 = gen_synthetic_problem(4, 50, 0.1, np.random.default_rng(9))
        np.testing.assert_array_equal(p1.X, p2.X)
        np.testing.assert_array_equal(p1.y, p2.y)

    def test_target_standardized(self):
        p = gen_synthetic_problem(4, 200, 0.1, np.random.default_rng(0))
        assert abs(p.y.mean()) < 1e-12
        assert abs(p.y.std() - 1.0) < 1e-12

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            gen_synthetic_problem(4, 5, 0.1, np.random.default_rng(0))


class TestHarvest:
    def test_counting_bound_and_dedup(self):
        rng = np.random.default_rng(0)
        problem = gen_synthetic_problem(4, 30, 0.1, rng)
        pts = semantics.sample_standard_inputs(20, 4, rng)
        cfg = GPConfig(pop_size=10, generations=2, selection=DOUBLE_TOURNAMENT)
        entries = harvest_functions(problem, cfg, pts, rng)
        assert len(entries) <= 30  # init + 2 generations, deduplicated
        keys = {expr.to_string(expr.parse_prefix(e.tokens, PrimitiveSet()))
                for e in entries}
        assert len(keys) == len(entries)
        assert all(len(e.semantics) == 20 for e in entries)

    def test_requires_double_tournament(self):
        rng = np.random.default_rng(1)
        problem = gen_synthetic_problem(4, 30, 0.1, rng)
        pts = semantics.sample_standard_inputs(10, 4, rng)
        with pytest.raises(ValueError):
            harvest_functions(problem, GPConfig(pop_size=5, generations=1),
                              pts, rng)

    def test_self_validating_semantics(self):
        rng = np.random.default_rng(2)
        problem = gen_synthetic_problem(4, 30, 0.1, rng)
        pts = semantics.sample_standard_inputs(15, 4, rng)
        cfg = GPConfig(pop_size=8, generations=1, selection=DOUBLE_TOURNAMENT)
        for e in harvest_functions(problem, cfg, pts, rng):
            recomputed = expr.evaluate(
                expr.parse_prefix(e.tokens, PrimitiveSet()), pts)
            np.testing.assert_array_equal(e.semantics, recomputed)


def _toy_corpus():
    return [
        CorpusEntry(id=1, tokens=["v1"], semantics=np.array([0.0, 0.0]),
                    problem_id=0),
        CorpusEntry(id=2, tokens=["v2"], semantics=np.array([1.0, 0.0]),
                    problem_id=0),
        CorpusEntry(id=3, tokens=["v3"], semantics=np.array([0.0, 3.0]),
                    problem_id=0),
    ]


class TestKnn:
    def test_worked_example(self):
        out = knn_neighbors(_toy_corpus(), 1, k=2)
        assert out == [(2, 1.0), (3, 3.0)]

    def test_zero_sd_excluded(self):
        entries = _toy_corpus() + [
            CorpusEntry(id=4, tokens=["ADD", "v1", "C+0.0"],
                        semantics=np.array([0.0, 0.0]), problem_id=0)]
        out = knn_neighbors(entries, 1, k=3)
        assert 4 not in [i for i, _ in out]

    def test_never_returns_query(self):
        rng = np.random.default_rng(0)
        entries = [CorpusEntry(i, ["v1"], rng.standard_normal(5), 0)
                   for i in range(30)]
        for q in range(30):
            assert q not in [i for i, _ in knn_neighbors(entries, q, 5)]


def _random_corpus(n, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    return [CorpusEntry(i, ["v1"], rng.standard_normal(dim), 0)
            for i in range(n)], rng


class TestIvf:
    def test_full_probe_matches_brute_force(self):
        entries, rng = _random_corpus(300)
        index = build_ivf_index(entries, 10, rng)
        for q in range(0, 300, 7):
            assert query_ivf(index, q, 3, n_probe=10) == \
                knn_neighbors(entries, q, 3)

    def test_single_cluster_is_brute_force(self):
        entries, rng = _random_corpus(100, seed=1)
        index = build_ivf_index(entries, 1, rng)
        for q in range(0, 100, 11):
            assert query_ivf(index, q, 4, n_probe=1) == \
                knn_neighbors(entries, q, 4)

    def test_mined_pairs_unchanged_on_harvest(self, harvested, monkeypatch):
        """IVF mining of a harvested corpus (many identical semantics) gives
        the pairs it gave when each query rebuilt its id -> row map."""
        entries, _ = harvested

        def mine():
            index = build_ivf_index(entries, 16, np.random.default_rng(9))
            pairs, dropped = mine_pairs(entries, k=3, index=index, n_probe=4)
            assert dropped == 0
            return [(p.input_tokens, p.output_tokens, p.sd) for p in pairs]

        def rebuilding_query(index, query_id, k, n_probe):
            by_id = {e.id: i for i, e in enumerate(entries)}
            q = entries[by_id[query_id]].semantics
            cdist = np.linalg.norm(index.centroids - q, axis=1)
            probe = np.argsort(cdist, kind="stable")[:max(1, n_probe)]
            members = np.concatenate([index.clusters[c] for c in probe])
            ids = np.array([entries[i].id for i in members])
            S = np.stack([entries[i].semantics for i in members])
            sd = np.linalg.norm(S - q, axis=1)
            keep = (ids != query_id) & (sd > 0.0)
            order = np.lexsort((ids[keep], sd[keep]))[:k]
            return [(int(i), float(s))
                    for i, s in zip(ids[keep][order], sd[keep][order])]

        fast = mine()
        blob = json.dumps([[i, o, sd.hex()] for i, o, sd in fast]).encode()
        assert hashlib.sha256(blob).hexdigest() == (
            "f59cf5cdb4d5aa8e6a4b162bff75246912786c5d7f3d695b1ddfcfbad85fd87a")
        monkeypatch.setattr(corpus, "query_ivf", rebuilding_query)
        assert mine() == fast

    def test_cluster_count_guard(self):
        entries, rng = _random_corpus(5, seed=2)
        with pytest.raises(ValueError):
            build_ivf_index(entries, 6, rng)


class TestMinePairs:
    def test_worked_example_counts(self):
        pairs, dropped = mine_pairs(_toy_corpus(), k=1, sd_max=100.0)
        assert len(pairs) == 3
        assert dropped == 0

    def test_sd_max_filter(self):
        pairs, _ = mine_pairs(_toy_corpus(), k=1, sd_max=0.5)
        assert pairs == []
        pairs, _ = mine_pairs(_toy_corpus(), k=1, sd_max=1.5)
        assert all(p.sd < 1.5 for p in pairs)

    def test_invariants_on_random_corpus(self):
        entries, _ = _random_corpus(120, seed=3)
        pairs, _ = mine_pairs(entries, k=3)
        assert len(pairs) <= 120 * 3
        assert all(0.0 < p.sd < 100.0 for p in pairs)
        assert all(p.input_tokens != p.output_tokens or p.sd > 0
                   for p in pairs)

    def test_knn_all_matches_per_query(self):
        entries, _ = _random_corpus(150, seed=4)
        every = corpus._knn_all(entries, 3)
        for e in entries:
            assert every[e.id] == knn_neighbors(entries, e.id, 3)

    def test_max_len_drop(self):
        long_tokens = ["ADD"] * 60 + ["v1"] * 61  # 121 tokens, valid prefix
        entries = _toy_corpus()
        entries[1] = CorpusEntry(id=2, tokens=long_tokens,
                                 semantics=np.array([1.0, 0.0]), problem_id=0)
        pairs, dropped = mine_pairs(entries, k=1, sd_max=100.0)
        assert dropped > 0
        assert all(len(p.input_tokens) <= 100 and len(p.output_tokens) <= 100
                   for p in pairs)


class TestJsonl:
    def test_corpus_round_trip(self, tmp_path):
        entries, _ = _random_corpus(10, dim=4, seed=5)
        path = tmp_path / "c.jsonl"
        write_corpus_jsonl(entries, path)
        back = read_corpus_jsonl(path)
        assert [e.id for e in back] == [e.id for e in entries]
        for a, b in zip(entries, back):
            assert a.tokens == b.tokens
            np.testing.assert_array_equal(a.semantics, b.semantics)

    def test_pairs_round_trip(self, tmp_path):
        pairs, _ = mine_pairs(_toy_corpus(), k=1)
        path = tmp_path / "p.jsonl"
        write_pairs_jsonl(pairs, path)
        back = read_pairs_jsonl(path)
        assert [(p.input_tokens, p.output_tokens, p.sd) for p in back] == \
            [(p.input_tokens, p.output_tokens, p.sd) for p in pairs]


class TestBuildCorpus:
    def test_small_build(self):
        cfg = GPConfig(pop_size=10, generations=2, selection=DOUBLE_TOURNAMENT)
        entries, pts = build_corpus(2, cfg, d=4, m=30, m_sem=20,
                                    rng=np.random.default_rng(0))
        assert pts.shape == (20, 4)
        assert entries
        assert [e.id for e in entries] == list(range(len(entries)))
        assert {e.problem_id for e in entries} <= {0, 1}
        for e in entries:
            assert np.all(np.isfinite(e.semantics))
