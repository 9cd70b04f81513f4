"""Datasets, splits, rank-sum statistics, multi-run aggregation and the CSV
reports behind the per-generation series plots."""

from __future__ import annotations

import csv
import gzip
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from pathlib import Path

import numpy as np

from . import semantics
from .errors import DataError
from .trace import RunTrace

ALPHA = 0.05      # significance level of stats.csv
EXACT_CUTOFF = 16  # largest tie-free pooled sample with an exact rank-sum p


@dataclass
class Dataset:
    """Standardized dataset with a 50/50 train/test split."""

    name: str
    X: np.ndarray
    Y: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray
    seed: int = -1

    # the splits are taken once: the engines read them for every individual
    @cached_property
    def X_train(self):
        return self.X[self.train_idx]

    @cached_property
    def y_train(self):
        return self.Y[self.train_idx]

    @cached_property
    def X_test(self):
        return self.X[self.test_idx]

    @cached_property
    def y_test(self):
        return self.Y[self.test_idx]


def make_dataset(name: str, X: np.ndarray, Y: np.ndarray, seed: int) -> Dataset:
    """Standardize the full dataset, then split 50/50 (sizes differ by <= 1).

    Standardization before the split mirrors the experimental protocol; the
    mild train/test leakage is accepted for faithfulness.
    """
    Xs = semantics.standardize(np.asarray(X, dtype=np.float64))
    Ys = semantics.standardize(np.asarray(Y, dtype=np.float64))
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(Xs))
    half = len(Xs) // 2
    return Dataset(name=name, X=Xs, Y=Ys, train_idx=np.sort(perm[:half]),
                   test_idx=np.sort(perm[half:]), seed=seed)


def load_csv(path, target_column: str = "target", split_seed: int = 0) -> Dataset:
    """Load a numeric CSV/TSV with a header row into a standardized Dataset."""
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            first = fh.readline()
            delim = "\t" if "\t" in first else ","
            fh.seek(0)
            rows = list(csv.reader(fh, delimiter=delim))
    except UnicodeDecodeError as e:
        raise DataError(f"{path.name} is not UTF-8 text ({e.reason})") from None
    if not rows:
        raise DataError(f"{path.name} is empty")
    header, body = rows[0], rows[1:]
    repeated = sorted({name for name in header if header.count(name) > 1})
    if repeated:
        raise DataError(f"{path.name} repeats header column(s) "
                        f"{', '.join(map(repr, repeated))}")
    if target_column not in header:
        raise DataError(f"no column {target_column!r} in {path.name}")
    if len(body) < 20:
        raise DataError(f"{len(body)} rows < 20")
    for n, r in enumerate(body, 1):
        if len(r) != len(header):
            raise DataError(f"data row {n} has {len(r)} cells, the header "
                            f"{len(header)}")
    t = header.index(target_column)
    try:
        data = np.array([[float(c) for c in r] for r in body])
    except ValueError as e:
        raise DataError(str(e)) from None
    bad = np.argwhere(~np.isfinite(data))
    if len(bad):
        row, col = bad[0]
        raise DataError(
            f"non-finite value in data row {row + 1}, column {header[col]!r}")
    feat = [i for i in range(len(header)) if i != t]
    if not feat:
        raise DataError(f"{path.name} has no feature column")
    return make_dataset(path.stem, data[:, feat], data[:, t], split_seed)


PMLB_URL = ("https://github.com/EpistasisLab/pmlb/raw/master/datasets/"
            "{name}/{name}.tsv.gz")


def fetch_pmlb(name: str, cache_dir) -> Path:
    """Download a PMLB dataset TSV into the cache; idempotent on a warm cache."""
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    out = cache_dir / f"{name}.tsv"
    if out.exists():
        return out
    import urllib.error
    import urllib.request  # slow to import; only a cold cache needs it
    try:
        with urllib.request.urlopen(PMLB_URL.format(name=name),
                                    timeout=60) as resp:
            content = resp.read()
    except urllib.error.HTTPError as e:
        if e.code == 404:
            raise DataError(f"no PMLB dataset named {name!r}") from None
        raise DataError(f"HTTP {e.code} fetching {name}") from None
    except OSError as e:  # URLError, timeouts, resets
        raise DataError(str(e)) from None
    tmp = cache_dir / f"{name}.tsv.part"
    tmp.write_bytes(gzip.decompress(content))
    tmp.rename(out)
    return out


# --- Wilcoxon rank-sum -------------------------------------------------------

def _midranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sv = values[order]
    i = 0
    while i < len(sv):
        j = i
        while j + 1 < len(sv) and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def _exact_p(n1: int, n2: int, w: float) -> float:
    """Two-sided exact p for the rank-sum of sample 1 (no ties, ranks 1..n)."""
    n = n1 + n2
    # counts[k][s]: k-subsets of {1..n} with rank sum s
    max_sum = n * (n + 1) // 2
    counts = np.zeros((n1 + 1, max_sum + 1), dtype=np.float64)
    counts[0][0] = 1.0
    for r in range(1, n + 1):
        for k in range(min(n1, r), 0, -1):
            counts[k, r:] += counts[k - 1, :max_sum + 1 - r]
    dist = counts[n1]
    total = dist.sum()
    w = int(round(w))
    p_low = dist[:w + 1].sum() / total
    p_high = dist[w:].sum() / total
    return float(min(1.0, 2.0 * min(p_low, p_high)))


def _approx_p(ranks: np.ndarray, n1: int, n2: int, w: float) -> float:
    """Normal approximation with tie and continuity corrections."""
    n = n1 + n2
    mu = n1 * (n + 1) / 2
    _, tie_counts = np.unique(ranks, return_counts=True)
    tie_term = ((tie_counts ** 3 - tie_counts).sum()) / ((n - 1) * n)
    var = n1 * n2 / 12 * ((n + 1) - tie_term)
    if var <= 0:
        return 1.0
    z = (abs(w - mu) - 0.5) / math.sqrt(var)
    z = max(z, 0.0)
    return float(min(1.0, math.erfc(z / math.sqrt(2))))


def wilcoxon_ranksum(a, b) -> float:
    """Two-sided rank-sum p-value.

    Exact by enumeration when |a| + |b| <= EXACT_CUTOFF and there are no
    ties; otherwise a tie- and continuity-corrected normal approximation
    over midranks.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) < 1 or len(b) < 1:
        raise ValueError("both samples must be non-empty")
    combined = np.concatenate([a, b])
    ranks = _midranks(combined)
    w = ranks[:len(a)].sum()
    no_ties = len(np.unique(combined)) == len(combined)
    if len(combined) <= EXACT_CUTOFF and no_ties:
        return _exact_p(len(a), len(b), w)
    return _approx_p(ranks, len(a), len(b), w)


# --- aggregation -------------------------------------------------------------

def _median(values) -> float:
    return float(np.median(values))


def _quartiles(values) -> tuple:
    q25, q75 = np.percentile(values, [25, 75])  # linear interpolation
    return float(q25), float(q75)


@dataclass
class SeriesPoint:
    generation: int
    median: float
    q25: float
    q75: float


def aggregate_runs(traces: list) -> dict:
    """Per-generation median/IQR series of one method's runs.

    The semantic-distance series covers only structurally different
    variations with finite distances, pooled across runs per generation.
    """
    if not traces:
        raise DataError("no traces")
    methods = {t.method for t in traces}
    if len(methods) != 1:
        raise DataError(f"mixed methods {sorted(methods)}")
    n_gens = {len(t.generations) for t in traces}
    if len(n_gens) != 1:
        raise DataError("traces disagree on generation count")

    series_rmse, series_size, series_sd = [], [], []
    for g in range(n_gens.pop()):
        rmses = [t.generations[g].best_train_rmse for t in traces]
        sizes = [t.generations[g].best_size for t in traces]
        gen_no = traces[0].generations[g].generation
        q25, q75 = _quartiles(rmses)
        series_rmse.append(SeriesPoint(gen_no, _median(rmses), q25, q75))
        q25, q75 = _quartiles(sizes)
        series_size.append(SeriesPoint(gen_no, _median(sizes), q25, q75))
        sds = [v.sd_test for t in traces for v in t.variations
               if v.generation == gen_no and v.structurally_different
               and math.isfinite(v.sd_test)]
        if sds:
            q25, q75 = _quartiles(sds)
            series_sd.append(SeriesPoint(gen_no, _median(sds), q25, q75))
    return {"train_rmse": series_rmse, "size": series_size, "sd": series_sd}


# --- CSV emission ------------------------------------------------------------

def write_results_csv(traces: list, dataset_name: str, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "dataset", "seed", "best_test_rmse", "best_size"])
        for t in traces:
            w.writerow([t.method, dataset_name, t.seed,
                        repr(t.final_best_test_rmse), t.final_best_size])


def write_series_csv(aggregates: dict, metric: str, dataset_name: str, path):
    """aggregates: method -> aggregate_runs() result."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "dataset", "generation", "median", "q25", "q75"])
        for method, agg in aggregates.items():
            for pt in agg[metric]:
                w.writerow([method, dataset_name, pt.generation,
                            repr(pt.median), repr(pt.q25), repr(pt.q75)])


def write_stats_csv(traces_by_method: dict, dataset_name: str, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method_a", "method_b", "dataset", "p_value", "significant"])
        for ma, mb in combinations(sorted(traces_by_method), 2):
            p = wilcoxon_ranksum(
                [t.final_best_test_rmse for t in traces_by_method[ma]],
                [t.final_best_test_rmse for t in traces_by_method[mb]])
            w.writerow([ma, mb, dataset_name, repr(p), int(p < ALPHA)])


# --- orchestration -----------------------------------------------------------

def run_method(method: str, dataset: Dataset, seed: int, generations: int = 50,
               pop_size: int = 100, model=None, sd_desired: float = 0.1) -> RunTrace:
    """Execute one seeded run of one engine on one dataset."""
    rng = np.random.default_rng(seed)
    if method == "stdgp":
        from .stdgp import GPConfig, run_stdgp
        cfg = GPConfig(pop_size=pop_size, generations=generations)
        trace = run_stdgp(cfg, dataset, rng)
    elif method == "slim":
        from .slim import SlimConfig, run_slim
        cfg = SlimConfig(pop_size=pop_size, generations=generations)
        trace = run_slim(cfg, dataset, rng)
    elif method == "tsgp":
        if model is None:
            raise ValueError("tsgp needs a trained model")
        from .sampler import SearchConfig, run_tsgp
        cfg = SearchConfig(pop_size=pop_size, generations=generations,
                           sd_desired=sd_desired)
        trace = run_tsgp(model, dataset, cfg, rng)
    else:
        raise ValueError(f"unknown method {method!r}")
    trace.seed = seed
    return trace


def variation_probe(model, dataset: Dataset, n_parents: int,
                    seed: int, sd_desired: float = 0.1) -> dict:
    """Replication probe: parent-offspring semantic distance on the test
    inputs for the transformer operator vs subtree mutation, applied to
    identical parent sets. Reported, not asserted.
    """
    from . import expr as _expr
    from .sampler import primitives_from_vocab, sample_tokens_batch
    from .stdgp import (INIT_DEPTH_MAX, INIT_DEPTH_MIN, Individual,
                        fill_test_semantics, subtree_mutation)

    prims = primitives_from_vocab(model.vocab)
    rng = np.random.default_rng(seed)
    parents = [Individual(t) for t in
               _expr.ramped_half_and_half(n_parents, INIT_DEPTH_MIN,
                                          INIT_DEPTH_MAX, prims, rng)]
    parent_tokens = [_expr.serialize_prefix(p.tree) for p in parents]

    rngs = [np.random.default_rng(s)
            for s in rng.integers(0, 2 ** 63, size=n_parents)]
    tsgp_tokens = sample_tokens_batch(model, parent_tokens, sd_desired, rngs)

    def sds(offspring_trees):
        children = [Individual(c) for c in offspring_trees]
        fill_test_semantics(parents + children, dataset.X_test)
        sd = [semantics.sd_on_test(p, c, dataset.X_test)
              for p, c in zip(parents, children)]
        return [d for d in sd if not math.isnan(d)]

    tsgp_sd = sds([_expr.parse_prefix(t, prims) for t in tsgp_tokens])
    mut_sd = sds([subtree_mutation(p.tree, prims, rng) for p in parents])
    p_value = wilcoxon_ranksum(tsgp_sd, mut_sd)
    return {
        "n_parents": n_parents,
        "tsgp_median_sd": _median(tsgp_sd) if tsgp_sd else math.nan,
        "stdgp_mutation_median_sd": _median(mut_sd) if mut_sd else math.nan,
        "tsgp_lower": bool(tsgp_sd and mut_sd
                           and _median(tsgp_sd) < _median(mut_sd)),
        "wilcoxon_p": p_value,
    }
