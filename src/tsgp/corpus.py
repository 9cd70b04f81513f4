"""Model-building pipeline: synthetic problems, function harvesting,
semantic k-NN search (brute force and IVF) and training-pair mining."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import expr, semantics, stdgp
from .errors import DataError
from .stdgp import GPConfig, DOUBLE_TOURNAMENT

IVF_ITERATIONS = 25  # Lloyd iteration cap of build_ivf_index
KNN_BLOCK = 512      # query rows per distance block in _knn_all


@dataclass
class SyntheticProblem:
    """Linear target with Gaussian noise on standard-normal inputs."""

    X: np.ndarray
    y: np.ndarray

    # split view consumed by the GP engines (harvesting trains on all rows)
    @property
    def X_train(self):
        return self.X

    @property
    def y_train(self):
        return self.y

    @property
    def X_test(self):
        return self.X

    @property
    def y_test(self):
        return self.y


@dataclass
class CorpusEntry:
    id: int
    tokens: list
    semantics: np.ndarray
    problem_id: int


@dataclass
class TrainingPair:
    input_tokens: list
    output_tokens: list
    sd: float


def gen_synthetic_problem(d: int, m: int, noise_sigma: float,
                          rng: np.random.Generator) -> SyntheticProblem:
    """X ~ N(0,1)^{m x d}; y = standardize(Xw + eps), eps ~ N(0, noise_sigma^2)."""
    if m < 10:
        raise ValueError("m must be >= 10")
    X = rng.standard_normal((m, d))
    w = rng.standard_normal(d)
    raw = X @ w + noise_sigma * rng.standard_normal(m)
    return SyntheticProblem(X=X, y=semantics.standardize(raw))


def harvest_functions(problem: SyntheticProblem, gp_config: GPConfig,
                      sem_points: np.ndarray, rng: np.random.Generator,
                      problem_id: int = 0, start_id: int = 0) -> list:
    """Run the GP engine and keep every unique, finite-semantics individual.

    All generations contribute (not just the final population); duplicates are
    collapsed on the canonical prefix string.
    """
    if gp_config.selection != DOUBLE_TOURNAMENT:
        raise ValueError("harvesting requires double tournament selection")
    seen = {}

    def collect(_gen, population):
        for ind in population:
            key = expr.to_string(ind.tree)
            if key not in seen:
                seen[key] = ind.tree

    stdgp.run_stdgp(gp_config, problem, rng, on_generation=collect,
                    log_variations=False)

    entries = []
    next_id = start_id
    sems = expr.evaluate_many(list(seen.values()), sem_points)
    for key, sem in zip(seen, sems):
        if not np.isfinite(sem).all():
            continue
        entries.append(CorpusEntry(id=next_id, tokens=key.split(),
                                   semantics=sem, problem_id=problem_id))
        next_id += 1
    return entries


def _semantics_matrix(corpus: list) -> np.ndarray:
    return np.stack([e.semantics for e in corpus])


def _nearest(ids: np.ndarray, sd: np.ndarray, query_id: int, k: int) -> list:
    """The exclude-and-order rule of every k-NN path: drop the query and any
    zero-distance candidate, order by (sd, id), keep the first k (id, sd)."""
    keep = (ids != query_id) & (sd > 0.0)
    ids, sd = ids[keep], sd[keep]
    order = np.lexsort((ids, sd))[:k]
    return [(int(i), float(s)) for i, s in zip(ids[order], sd[order])]


def knn_neighbors(corpus: list, query_id: int, k: int) -> list:
    """Brute-force k nearest entries by semantic distance.

    Excludes the query itself and any zero-distance candidate; ascending by
    (sd, id). Returns at most k (id, sd) tuples.
    """
    if len(corpus) < 2:
        raise ValueError("corpus must have at least 2 entries")
    if k < 1:
        raise ValueError("k must be >= 1")
    ids = np.array([e.id for e in corpus])
    S = _semantics_matrix(corpus)
    q = S[int(np.flatnonzero(ids == query_id)[0])]
    return _nearest(ids, np.linalg.norm(S - q, axis=1), query_id, k)


@dataclass
class IvfIndex:
    """Inverted-file index: k-means partition of the corpus semantics."""

    centroids: np.ndarray
    clusters: list  # list of row-index arrays
    semantics: np.ndarray  # row i: semantics of the i-th corpus entry
    ids: np.ndarray  # row i: id of the i-th corpus entry
    row_of: dict  # entry id -> row


def build_ivf_index(corpus: list, n_clusters: int,
                    rng: np.random.Generator) -> IvfIndex:
    """Seeded Lloyd k-means (fixed iteration cap) over entry semantics."""
    if n_clusters > len(corpus):
        raise ValueError("n_clusters must be <= corpus size")
    S = _semantics_matrix(corpus)
    centroids = S[rng.choice(len(S), size=n_clusters, replace=False)].copy()
    assign = None
    sq = (S ** 2).sum(axis=1)
    for _ in range(IVF_ITERATIONS):
        d2 = sq[:, None] - 2.0 * S @ centroids.T + (centroids ** 2).sum(axis=1)
        new_assign = d2.argmin(axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(n_clusters):
            members = S[assign == c]
            if len(members):  # empty clusters keep their centroid
                centroids[c] = members.mean(axis=0)
    clusters = [np.flatnonzero(assign == c) for c in range(n_clusters)]
    ids = np.array([e.id for e in corpus])
    return IvfIndex(centroids=centroids, clusters=clusters, semantics=S,
                    ids=ids, row_of={int(i): r for r, i in enumerate(ids)})


def query_ivf(index: IvfIndex, query_id: int, k: int, n_probe: int) -> list:
    """Search the n_probe closest clusters; same exclusions/order as knn_neighbors."""
    q = index.semantics[index.row_of[query_id]]
    cdist = np.linalg.norm(index.centroids - q, axis=1)
    probe = np.argsort(cdist, kind="stable")[:max(1, n_probe)]
    members = np.concatenate([index.clusters[c] for c in probe])
    sd = np.linalg.norm(index.semantics[members] - q, axis=1)
    return _nearest(index.ids[members], sd, query_id, k)


def _knn_all(corpus: list, k: int) -> dict:
    """Brute-force neighbors for every entry at once (blocked distance matrix)."""
    ids = np.array([e.id for e in corpus])
    S = _semantics_matrix(corpus)
    sq = (S ** 2).sum(axis=1)
    out = {}
    shortlist = k + 10  # approximate top-k, then exact re-rank
    for lo in range(0, len(S), KNN_BLOCK):
        hi = min(lo + KNN_BLOCK, len(S))
        d2 = np.maximum(sq[lo:hi, None] - 2.0 * S[lo:hi] @ S.T + sq[None, :], 0.0)
        for r in range(lo, hi):
            row = d2[r - lo]
            n_cand = min(shortlist, len(row))
            cand = np.argpartition(row, n_cand - 1)[:n_cand]
            sd = np.linalg.norm(S[cand] - S[r], axis=1)
            out[int(ids[r])] = _nearest(ids[cand], sd, ids[r], k)
    return out


def mine_pairs(corpus: list, k: int, sd_max: float = 100.0,
               index: IvfIndex = None, n_probe: int = None) -> tuple:
    """Emit (input -> neighbor) training pairs with 0 < sd < sd_max.

    Pairs whose input or output exceeds ``expr.MAX_TOKENS`` tokens are
    dropped; the drop count is returned alongside the pairs.
    """
    pairs = []
    dropped = 0
    by_id = {e.id: e for e in corpus}
    if index is None:
        all_neighbors = _knn_all(corpus, k)
    for e in corpus:
        if index is not None:
            neighbors = query_ivf(index, e.id, k, n_probe)
        else:
            neighbors = all_neighbors[e.id]
        for nid, sd in neighbors:
            if not 0.0 < sd < sd_max:
                continue
            out_tokens = by_id[nid].tokens
            if (len(e.tokens) > expr.MAX_TOKENS
                    or len(out_tokens) > expr.MAX_TOKENS):
                dropped += 1
                continue
            pairs.append(TrainingPair(input_tokens=list(e.tokens),
                                      output_tokens=list(out_tokens), sd=sd))
    return pairs, dropped


def build_corpus(n_problems: int, gp_config: GPConfig, *, d: int = 4,
                 m: int = 200, noise_sigma: float = 0.1, m_sem: int = 100,
                 rng: np.random.Generator) -> tuple:
    """Full harvesting pass: problems -> functions -> annotated corpus.

    One shared m_sem standard-input sample keeps all semantics comparable.
    Returns (entries, sem_points).
    """
    sem_points = semantics.sample_standard_inputs(m_sem, d, rng)
    entries = []
    for pid in range(n_problems):
        problem = gen_synthetic_problem(d, m, noise_sigma, rng)
        entries.extend(harvest_functions(problem, gp_config, sem_points, rng,
                                         problem_id=pid, start_id=len(entries)))
    return entries, sem_points


# --- jsonl serialization -----------------------------------------------------

def write_corpus_jsonl(corpus: list, path):
    with open(path, "w", encoding="utf-8") as fh:
        for e in corpus:
            fh.write(json.dumps({"id": e.id, "problem_id": e.problem_id,
                                 "tokens": e.tokens,
                                 "semantics": [float(x) for x in e.semantics]})
                     + "\n")


def _read_jsonl(path, make) -> list:
    out = []
    with open(path, "rb") as fh:
        for n, line in enumerate(fh, 1):
            try:
                out.append(make(json.loads(line.decode("utf-8"))))
            except (KeyError, OverflowError, TypeError, ValueError) as e:
                raise DataError(f"{path} line {n}: malformed record "
                                f"({type(e).__name__}: {e})") from None
    return out


def _id(value) -> int:
    """A corpus record's id: an integer."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"id must be an integer, not {value!r}")
    return value


def _tokens(values) -> list:
    """A record's token sequence: a list of strings."""
    if not (isinstance(values, list)
            and all(isinstance(t, str) for t in values)):
        raise TypeError(f"tokens must be a list of strings, "
                        f"not {str(values)[:40]}")
    return values


def _semantics(values) -> np.ndarray:
    """A corpus record's semantics: a flat, non-empty list of finite
    numbers, as harvesting writes them."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.ndim != 1 or arr.dtype.kind not in "iuf":
        raise TypeError(f"semantics must be a list of numbers, "
                        f"not {str(values)[:40]}")
    arr = np.asarray(arr, dtype=np.float64)
    if not (len(arr) and np.isfinite(arr).all()):
        raise ValueError("semantics must be a non-empty list of finite "
                         "numbers")
    return arr


def _sd(value) -> float:
    """A pair record's semantic distance: a finite number >= 0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"sd must be a number, not {value!r}")
    sd = float(value)  # OverflowError for an integer past float range
    if not 0.0 <= sd < math.inf:
        raise ValueError(f"sd must be finite and >= 0, not {value!r}")
    return sd


def read_corpus_jsonl(path) -> list:
    entries = _read_jsonl(path, lambda obj: CorpusEntry(
        id=_id(obj["id"]), problem_id=obj["problem_id"],
        tokens=_tokens(obj["tokens"]), semantics=_semantics(obj["semantics"])))
    line_of = {}
    for n, e in enumerate(entries, 1):
        if len(e.semantics) != len(entries[0].semantics):
            raise DataError(
                f"{path} line {n}: {len(e.semantics)} semantics values, but "
                f"line 1 has {len(entries[0].semantics)}")
        if line_of.setdefault(e.id, n) != n:
            raise DataError(f"{path} line {n}: id {e.id} repeats line "
                            f"{line_of[e.id]}")
    return entries


def write_pairs_jsonl(pairs: list, path):
    with open(path, "w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(json.dumps({"input": p.input_tokens, "output": p.output_tokens,
                                 "sd": p.sd}) + "\n")


def read_pairs_jsonl(path) -> list:
    return _read_jsonl(path, lambda obj: TrainingPair(
        input_tokens=_tokens(obj["input"]),
        output_tokens=_tokens(obj["output"]), sd=_sd(obj["sd"])))
