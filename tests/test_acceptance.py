"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
The criteria that train a model (07, and 12-14 on the desk fixture) are
marked ``slow``; ``-m "not slow"`` leaves them out for a quick loop.
The desk-scale pipeline artifacts (corpus, mined pairs, trained model) are
built once per session and shared by the end-to-end criteria.
"""

import math
import time

import numpy as np
import pytest

from tsgp import expr, semantics
from tsgp.bench import make_dataset, variation_probe, wilcoxon_ranksum
from tsgp.corpus import (CorpusEntry, build_corpus, build_ivf_index,
                         gen_synthetic_problem, knn_neighbors, mine_pairs,
                         query_ivf)
from tsgp.expr import PrimitiveSet
from tsgp.model import (Hyperparams, Vocabulary, load_checkpoint,
                        save_checkpoint, train)
from tsgp.model.autodiff import no_grad
from tsgp.model.training import make_batch, token_accuracy
from tsgp.model.transformer import SdTransformer
from tsgp.sampler import SearchConfig, run_tsgp, sample_tokens_batch
from tsgp.stdgp import DOUBLE_TOURNAMENT, GPConfig, run_stdgp
from tsgp.verify import causality_probe, gradient_check


def _report(number: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {name}: {status} ({detail})", flush=True)
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="session")
def desk(vocab):
    """Desk-scale pipeline artifacts: corpus -> pairs -> trained model."""
    rng = np.random.default_rng(12)
    gp_cfg = GPConfig(pop_size=200, generations=15,
                      selection=DOUBLE_TOURNAMENT)
    entries, _ = build_corpus(3, gp_cfg, rng=rng)
    pairs, _ = mine_pairs(entries, k=3)
    hyper = Hyperparams(d_model=64, n_heads=8, n_encoder_layers=2,
                        n_decoder_layers=2, epochs=2)
    model, curve = train(pairs, hyper, vocab, seed=0)
    return {"entries": entries, "pairs": pairs, "model": model,
            "curve": curve}


def test_criterion_01_round_trip(prims):
    t0 = time.time()
    rng = np.random.default_rng(0)
    trees = expr.ramped_half_and_half(10_000, 2, 5, prims, rng)
    ok = True
    for t in trees:
        tokens = expr.serialize_prefix(t)
        if expr.parse_prefix(tokens, prims) != t or len(tokens) != expr.size(t):
            ok = False
            break
    elapsed = time.time() - t0
    _report(1, "serialization round-trip", ok and elapsed < 5.0,
            f"10000 trees, {elapsed:.2f}s")


def test_criterion_02_protected_division():
    rng = np.random.default_rng(1)
    tree = expr.from_string("PDIV v1 C+0.0")
    out = expr.evaluate(tree, rng.standard_normal((1000, 4)))
    ok = bool(np.all(out == 1.0))
    _report(2, "protected division", ok, "v1 % C(0.0) == 1.0 on 1000 rows")


def test_criterion_03_rmse_norm_consistency():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 200))
        y, yh = rng.standard_normal(m), rng.standard_normal(m)
        lhs = semantics.rmse(y, yh) * math.sqrt(m)
        worst = max(worst, abs(lhs - float(np.linalg.norm(y - yh))))
    _report(3, "rmse/norm consistency", worst < 1e-12,
            f"max |rmse*sqrt(m) - norm| = {worst:.2e} over 1000 pairs")


def test_criterion_04_knn_oracle():
    rng = np.random.default_rng(3)
    entries = [CorpusEntry(i, ["v1"], rng.standard_normal(10), 0)
               for i in range(1000)]
    index = build_ivf_index(entries, 20, rng)
    mismatches = 0
    for q in rng.integers(0, 1000, size=100):
        if query_ivf(index, int(q), 3, n_probe=20) != \
                knn_neighbors(entries, int(q), 3):
            mismatches += 1
    pairs, _ = mine_pairs(entries, k=3, sd_max=5.0)
    sd_ok = all(0.0 < p.sd < 5.0 for p in pairs)
    _report(4, "k-NN oracle equivalence", mismatches == 0 and sd_ok,
            f"{mismatches} mismatches over 100 queries; "
            f"{len(pairs)} mined pairs all in (0, sd_max)")


def test_criterion_05_gradient_check(vocab):
    t0 = time.time()
    hyper = Hyperparams(d_model=32, n_heads=4, n_encoder_layers=1,
                        n_decoder_layers=1)
    model = SdTransformer(hyper, vocab, rng=np.random.default_rng(4))
    max_rel = gradient_check(model, np.random.default_rng(5), n_probes=200)
    elapsed = time.time() - t0
    _report(5, "finite-difference gradient check",
            max_rel < 1e-4 and elapsed < 60.0,
            f"max relative error {max_rel:.2e} over 200 probes, {elapsed:.1f}s")


def test_criterion_06_causality_and_attention(vocab):
    hyper = Hyperparams(d_model=32, n_heads=4, n_encoder_layers=1,
                        n_decoder_layers=1)
    model = SdTransformer(hyper, vocab, rng=np.random.default_rng(6))
    leak, row_err = causality_probe(model, np.random.default_rng(7),
                                    n_positions=20)
    _report(6, "decoder causality + attention normalization",
            leak == 0.0 and row_err < 1e-6,
            f"max leakage {leak:.1e}, attention row-sum error {row_err:.1e}")


@pytest.mark.slow
def test_criterion_07_overfit(vocab):
    t0 = time.time()
    rng = np.random.default_rng(8)
    gp_cfg = GPConfig(pop_size=50, generations=3, selection=DOUBLE_TOURNAMENT)
    entries, _ = build_corpus(1, gp_cfg, rng=rng)
    pairs, _ = mine_pairs(entries, k=3)
    pairs = pairs[:32]
    hyper = Hyperparams(d_model=64, n_heads=8, n_encoder_layers=2,
                        n_decoder_layers=2)
    model, curve = train(pairs, hyper, vocab, seed=0, max_steps=200)
    acc = token_accuracy(model, pairs)
    loss0 = curve[0][1]
    target = math.log(vocab.size)
    loss_ok = abs(loss0 - target) / target < 0.05
    elapsed = time.time() - t0
    _report(7, "overfit 32 pairs", acc >= 0.95 and loss_ok and elapsed < 300,
            f"accuracy {acc:.3f}, initial loss {loss0:.4f} vs ln(22)="
            f"{target:.4f}, {elapsed:.1f}s")


def test_criterion_08_syntax_control(vocab, prims, tmp_path):
    t0 = time.time()
    hyper = Hyperparams(d_model=32, n_heads=4, n_encoder_layers=1,
                        n_decoder_layers=1)
    fresh = SdTransformer(hyper, vocab, rng=np.random.default_rng(9))
    path = tmp_path / "random.tsgp"
    save_checkpoint(fresh, path)
    model = load_checkpoint(path)

    rng = np.random.default_rng(10)
    n, bad = 10_000, 0
    batch = 500
    for lo in range(0, n, batch):
        parents = expr.ramped_half_and_half(batch, 2, 5, prims, rng)
        rngs = [np.random.default_rng(s)
                for s in rng.integers(0, 2 ** 63, size=batch)]
        offspring = sample_tokens_batch(
            model, [expr.serialize_prefix(p) for p in parents], 0.1, rngs)
        for toks in offspring:
            try:
                t = expr.parse_prefix(toks, prims)
                if len(toks) > 100 or expr.depth(t) > 17:
                    bad += 1
            except expr.ParseError:
                bad += 1
    elapsed = time.time() - t0
    _report(8, "syntax-controlled sampling", bad == 0 and elapsed < 120,
            f"{n - bad}/{n} offspring valid (<=100 tokens, depth <=17), "
            f"{elapsed:.1f}s")


def test_criterion_09_checkpoint_exactness(vocab, tmp_path):
    hyper = Hyperparams(d_model=32, n_heads=4, n_encoder_layers=1,
                        n_decoder_layers=1)
    model = SdTransformer(hyper, vocab, rng=np.random.default_rng(11))
    p1, p2 = tmp_path / "a.tsgp", tmp_path / "b.tsgp"
    save_checkpoint(model, p1)
    loaded = load_checkpoint(p1)
    save_checkpoint(loaded, p2)
    bytes_ok = p1.read_bytes() == p2.read_bytes()

    from tsgp.verify import random_pairs
    batch = make_batch(random_pairs(model, np.random.default_rng(12)),
                       vocab, 100)
    f32 = SdTransformer(hyper, vocab, params={
        k: t.data.astype(np.float32).astype(np.float64)
        for k, t in model.params.items()})
    with no_grad():
        a = f32.forward(batch[0], batch[1], batch[2]).data
        b = loaded.forward(batch[0], batch[1], batch[2]).data
    logits_ok = bool(np.array_equal(a, b))
    _report(9, "checkpoint bit-exactness", bytes_ok and logits_ok,
            f"save->load->save byte-identical: {bytes_ok}; "
            f"logits reproduced exactly: {logits_ok}")


def test_criterion_10_wilcoxon():
    p = wilcoxon_ranksum([1, 2, 3], [4, 5, 6])
    exact_ok = abs(p - 0.1) < 1e-12
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(500):
        a, b = rng.standard_normal(8), rng.standard_normal(8)
        worst = max(worst, abs(wilcoxon_ranksum(a, b, exact_cutoff=16)
                               - wilcoxon_ranksum(a, b, exact_cutoff=0)))
    _report(10, "Wilcoxon rank-sum", exact_ok and worst < 0.02,
            f"p([1,2,3],[4,5,6]) = {p}; max exact-vs-approx gap {worst:.4f} "
            f"over 500 8-vs-8 instances")


def test_criterion_11_stdgp_sanity():
    t0 = time.time()
    finals = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((200, 4))
        y, _ = semantics.standardize(X[:, 0] + X[:, 1])
        ds = make_dataset("sanity", X, y, seed)
        trace = run_stdgp(GPConfig(), ds, rng, log_variations=False)
        finals.append(trace.generations[-1].best_train_rmse)
    med = float(np.median(finals))
    elapsed = time.time() - t0
    _report(11, "stdGP sanity on y=x1+x2", med <= 0.3 and elapsed < 120,
            f"median final train RMSE {med:.4f} over 10 seeds, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_12_end_to_end_pipeline(desk):
    t0 = time.time()
    model = desk["model"]
    gains, noninc = [], True
    for seed in range(5):
        prob = gen_synthetic_problem(4, 200, 0.1,
                                     np.random.default_rng(1000 + seed))
        ds = make_dataset("synthetic", prob.X, prob.y, 1000 + seed)
        trace = run_tsgp(model, ds, SearchConfig(),
                         np.random.default_rng(seed), log_variations=False)
        best = [g.best_train_rmse for g in trace.generations]
        noninc = noninc and all(b2 <= b1 for b1, b2 in zip(best, best[1:]))
        gains.append(1.0 - best[-1] / best[0])
    med_gain = float(np.median(gains))
    elapsed = time.time() - t0
    _report(12, "end-to-end desk-scale pipeline",
            med_gain >= 0.20 and noninc,
            f"corpus {len(desk['entries'])} entries, "
            f"{len(desk['pairs'])} pairs; median gen-50 improvement "
            f"{med_gain:.1%} over 5 seeds; curves non-increasing: {noninc}; "
            f"search {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_13_reporting_fidelity(desk, tmp_path):
    import csv

    from tsgp.bench import aggregate_runs, run_method, write_series_csv
    from tsgp.trace import read_trace_csv, read_variation_csv, write_trace_csv

    prob = gen_synthetic_problem(4, 100, 0.1, np.random.default_rng(20))
    ds = make_dataset("synthetic", prob.X, prob.y, 20)
    traces_by_method = {
        m: [run_method(m, ds, seed, generations=5, pop_size=20,
                       model=desk["model"]) for seed in range(3)]
        for m in ("tsgp", "stdgp", "slim")}
    aggs = {m: aggregate_runs(t) for m, t in traces_by_method.items()}
    for metric in ("train_rmse", "size", "sd"):
        write_series_csv(aggs, metric, "synthetic",
                         tmp_path / f"series_{metric}.csv")

    ok = True
    details = []
    for metric in ("train_rmse", "size", "sd"):
        with open(tmp_path / f"series_{metric}.csv") as fh:
            rows = list(csv.DictReader(fh))
        methods = {r["method"] for r in rows}
        ok = ok and methods == {"tsgp", "stdgp", "slim"}
        details.append(f"{metric}: {len(rows)} rows, {len(methods)} methods")

    # dual path: recompute medians from round-tripped trace CSVs
    for m, traces in traces_by_method.items():
        reread = []
        for i, t in enumerate(traces):
            path = tmp_path / f"trace_{m}_{i}.csv"
            write_trace_csv(t, path)
            reread.append(read_trace_csv(path))
        for g, pt in enumerate(aggs[m]["train_rmse"]):
            vals = [t.generations[g].best_train_rmse for t in reread]
            ok = ok and pt.median == float(np.median(vals))
    _report(13, "reporting fidelity", ok,
            "; ".join(details) + "; dual-path medians match exactly")


@pytest.mark.slow
def test_criterion_14_replication_probe(desk):
    """Non-gating: the directional expectation is reported, not asserted."""
    prob = gen_synthetic_problem(4, 200, 0.1, np.random.default_rng(21))
    ds = make_dataset("synthetic", prob.X, prob.y, 21)
    report = variation_probe(desk["model"], ds, n_parents=100, seed=21)
    print(f"[criterion 14] replication probe: REPORTED "
          f"(tsgp median SD {report['tsgp_median_sd']:.4f} vs subtree "
          f"mutation {report['stdgp_mutation_median_sd']:.4f}; "
          f"direction as expected: {report['tsgp_lower']}; "
          f"Wilcoxon p = {report['wilcoxon_p']:.4g})", flush=True)
    # gate only on the probe producing a well-formed report
    assert math.isfinite(report["wilcoxon_p"])
    assert math.isfinite(report["tsgp_median_sd"])
