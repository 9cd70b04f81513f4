"""The four benchmark workloads.

Each workload has a ``setup(seed)`` that builds its inputs from the seed
alone, a ``run(inputs, seed, budget, checks)`` that repeats one unit of
work until the budget is spent and returns an ``Outcome``, and a
``verify(checks, out)`` for checks on fixed inputs that runs once per
benchmark run, untimed and untraced. All are closed-loop, single-process
batch jobs. Correctness checks never abort a run: each one is recorded in
``checks`` and counted toward ``error_rate``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import env
from tracing import patched

from tsgp import bench, corpus, expr, sampler, slim, stdgp, trace
from tsgp.model import checkpoint, training
from tsgp.model.transformer import Hyperparams
from tsgp.model.vocab import PAD, Vocabulary

# Checks call the functions as imported here, so that a traced run does not
# count the benchmark's own verification calls as work of the program.
_parse_prefix = expr.parse_prefix
_depth = expr.depth
_knn_neighbors = corpus.knn_neighbors

WORK_DIR = env.BENCH_DIR / "out"

# Desk-scale settings shared by several workloads.
FEATURES, ROWS, NOISE = 4, 200, 0.1
POP = 100
DESK_CORPUS = dict(problems=3, pop=200, gens=15)
DESK_CORPUS_SEED = 12  # the corpus seed of the pinned checkpoint's recipe
K = 3
MAX_TOKENS, MAX_DEPTH = 100, 17

# A check kind listed here is a defect of the program that is known and
# still open: its failures are counted in ``failed`` and ``error_rate`` but
# do not make the run incorrect. ``knn_oracle`` compares the default
# brute-force mining path (``corpus._knn_all``) with ``knn_neighbors``; on
# harvested corpora with large classes of identical semantics the k+10
# shortlist fills with zero-distance duplicates and the two disagree.
KNOWN_DEFECTS = ("knn_oracle",)


def rng_for(seed: int, stream: int, i: int = 0) -> np.random.Generator:
    """Independent generator for (benchmark seed, stream, unit index)."""
    return np.random.default_rng([seed, stream, i])


def digest(*arrays_or_bytes) -> str:
    h = hashlib.sha256()
    for a in arrays_or_bytes:
        h.update(a if isinstance(a, bytes) else np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class Checks:
    """Per-kind attempted/failed counters."""

    def __init__(self):
        self.kinds = {}

    def record(self, kind: str, ok: bool):
        row = self.kinds.setdefault(kind, [0, 0])
        row[0] += 1
        row[1] += 0 if ok else 1

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.kinds.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.kinds.values())

    @property
    def correct(self) -> bool:
        return all(f == 0 for kind, (_, f) in self.kinds.items()
                   if kind not in KNOWN_DEFECTS)


class Budget:
    """Stops a run after ``seconds`` of timed work, or after ``units`` units."""

    def __init__(self, seconds: float = None, units: int = None):
        self.seconds, self.units = seconds, units
        self.elapsed = 0.0
        self.last = 0.0  # length of the latest timed segment
        self._start = None

    def more(self, done: int) -> bool:
        if self.units is not None:
            return done < self.units
        return self.spent() < self.seconds

    def spent(self) -> float:
        running = time.perf_counter() - self._start if self._start else 0.0
        return self.elapsed + running

    @contextlib.contextmanager
    def timed(self):
        self._start = time.perf_counter()
        try:
            yield
        finally:
            self.last = time.perf_counter() - self._start
            self.elapsed += self.last
            self._start = None


@dataclass
class Outcome:
    items: int = 0
    units: list = field(default_factory=list)  # (seconds, items) per unit
    op_s: list = field(default_factory=list)   # one sample per op
    extras: dict = field(default_factory=dict)  # name -> value
    layer: dict = field(default_factory=dict)   # per-layer values from data
    digests: dict = field(default_factory=dict)

    def add_unit(self, seconds: float, items: int):
        self.units.append((seconds, items))
        self.items += items


class GenClock:
    """Per-generation wall times, taken from ``RunTrace.record`` calls.

    Installed into the engines' modules while a workload runs; each
    interval is measured between consecutive records of one trace.
    """

    def __init__(self):
        self.samples = []

    @contextlib.contextmanager
    def installed(self, *modules):
        clock = self

        class TimedTrace(trace.RunTrace):
            def record(self, generation, best_train_rmse, best_size):
                now = time.perf_counter()
                if generation > 0:
                    clock.samples.append(now - self._stamp)
                self._stamp = now
                super().record(generation, best_train_rmse, best_size)

        with contextlib.ExitStack() as stack:
            for m in modules:
                stack.enter_context(patched(m, "RunTrace", TimedTrace))
            yield self


@contextlib.contextmanager
def capturing(owner, attr, sink, timings=None):
    """Append every (args, result) of ``owner.attr`` to ``sink``."""
    fn = owner.__dict__[attr]

    def capture(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        if timings is not None:
            timings.append(time.perf_counter() - t0)
        sink.append((args, out))
        return out

    with patched(owner, attr, capture):
        yield


def synthetic_dataset(rng: np.random.Generator, split_seed: int):
    prob = corpus.gen_synthetic_problem(FEATURES, ROWS, NOISE, rng)
    return bench.make_dataset("synthetic", prob.X, prob.y, split_seed)


def dataset_digest(datasets) -> str:
    return digest(*[a for ds in datasets for a in (ds.X, ds.Y)])


def check_checkpoint_round_trip(model, checks: Checks, tag: str):
    """Saved, loaded and saved again: the two files are byte-identical."""
    WORK_DIR.mkdir(exist_ok=True)
    first = WORK_DIR / f"{tag}-a.tsgp"
    second = WORK_DIR / f"{tag}-b.tsgp"
    try:
        checkpoint.save_checkpoint(model, first)
        checkpoint.save_checkpoint(checkpoint.load_checkpoint(first), second)
        checks.record("checkpoint_round_trip",
                      first.read_bytes() == second.read_bytes())
    finally:
        first.unlink(missing_ok=True)
        second.unlink(missing_ok=True)


class Workload:
    TRACE_SETUP = False  # the traced run also traces set-up

    def verify(self, checks: Checks, out: Outcome):
        """Checks whose inputs depend on neither the seed nor the run length."""


def harvest_desk_corpus(rng: np.random.Generator) -> list:
    gp_cfg = stdgp.GPConfig(pop_size=DESK_CORPUS["pop"],
                            generations=DESK_CORPUS["gens"],
                            selection=stdgp.DOUBLE_TOURNAMENT)
    entries, _ = corpus.build_corpus(DESK_CORPUS["problems"], gp_cfg, rng=rng)
    return entries


# --- search -----------------------------------------------------------------

class Search(Workload):
    """``run_tsgp`` with the pinned desk checkpoint on synthetic problems.

    One unit is one search of ``GENS`` generations at pop 100 and sdd 0.1,
    with variation logging on, on the next seeded problem. The op is one
    generation. Items are offspring.
    """

    name = "search"
    GENS = 5
    SDD = 0.1
    PROBLEMS = 32
    UNIT_S = 2.3  # seconds per unit on the reference box; sizes traced runs
    TRACE_SETUP = True  # the traced run also traces the checkpoint load
    extras = {"test_rmse": "1"}  # workload figure -> unit

    def setup(self, seed: int):
        meta = json.loads(env.CHECKPOINT_META.read_text())
        blob = env.CHECKPOINT.read_bytes()
        found = hashlib.sha256(blob).hexdigest()
        if found != meta["sha256"]:
            raise SetupError(f"{env.CHECKPOINT.name} sha256 {found} does not "
                             f"match the pinned {meta['sha256']}")
        model = checkpoint.load_checkpoint(env.CHECKPOINT)
        datasets = [synthetic_dataset(rng_for(seed, 1, i), seed * 1000 + i)
                    for i in range(self.PROBLEMS)]
        return {"model": model, "datasets": datasets,
                "digests": {"checkpoint": found,
                            "datasets": dataset_digest(datasets)}}

    def run(self, inputs, seed: int, budget: Budget, checks: Checks) -> Outcome:
        model, datasets = inputs["model"], inputs["datasets"]
        prims = sampler.primitives_from_vocab(model.vocab)
        cfg = sampler.SearchConfig(sd_desired=self.SDD, pop_size=POP,
                                   generations=self.GENS)
        out = Outcome(digests=dict(inputs["digests"]))
        check_checkpoint_round_trip(model, checks, "search")
        clock = GenClock()
        rmses, identical, variations, rows = [], 0, 0, 0
        unit = 0
        with clock.installed(sampler):
            while budget.more(unit):
                sampled = []
                with capturing(sampler, "sample_tokens_batch", sampled), \
                        budget.timed():
                    tr = sampler.run_tsgp(model, datasets[unit % len(datasets)],
                                          cfg, rng_for(seed, 2, unit))
                unit += 1
                out.add_unit(budget.last, POP * self.GENS)
                rmses.append(tr.final_best_test_rmse)
                identical += sum(not v.structurally_different
                                 for v in tr.variations)
                variations += len(tr.variations)
                for args, tokens in sampled:
                    rows += len(args[1])
                    for toks in tokens:
                        checks.record("offspring_legal",
                                      offspring_ok(toks, prims))
        out.op_s = clock.samples
        out.extras["test_rmse"] = statistics.median(rmses)
        out.extras["searches"] = unit
        out.layer["resample_rows"] = rows - POP * self.GENS * unit
        out.layer["identical_offspring_ratio"] = (
            identical / variations if variations else 0.0)
        return out


def offspring_ok(tokens, prims) -> bool:
    if len(tokens) > MAX_TOKENS:
        return False
    try:
        tree = _parse_prefix(tokens, prims)
    except expr.ParseError:
        return False
    return _depth(tree) <= MAX_DEPTH


# --- train ------------------------------------------------------------------

class _StopTraining(Exception):
    pass


class Train(Workload):
    """``train`` at desk hyperparameters on the desk pairs.

    Set-up harvests the desk corpus of the pinned checkpoint's recipe
    (corpus seed 12) and mines its pairs; the benchmark seed is the training
    seed, so it sets the initial weights and the batch order. A harvest of
    its own per benchmark seed would change the pair-length mix from seed
    to seed, and with it the cost of a step by up to a factor of two.
    One training run per benchmark run, stopped at the budget; one unit and
    one op are one optimizer step. Items are non-PAD target tokens.
    """

    name = "train"
    UNIT_S = 0.3
    LOSS_STEPS = (20, 30)  # train_loss: mean loss over these steps
    extras = {"train_loss": "nats"}

    def hyper(self) -> Hyperparams:
        return Hyperparams(d_model=64, n_heads=8, n_encoder_layers=2,
                           n_decoder_layers=2, epochs=2, batch_size=32)

    def setup(self, seed: int):
        entries = harvest_desk_corpus(np.random.default_rng(DESK_CORPUS_SEED))
        pairs, _ = corpus.mine_pairs(entries, K)
        blob = json.dumps([[p.input_tokens, p.output_tokens, p.sd]
                           for p in pairs]).encode()
        return {"pairs": pairs,
                "vocab": Vocabulary.from_primitives(expr.PrimitiveSet(FEATURES)),
                "digests": {"pairs": digest(blob)}}

    def run(self, inputs, seed: int, budget: Budget, checks: Checks) -> Outcome:
        out = Outcome(digests=dict(inputs["digests"]))
        losses = []
        step = {"tokens": 0, "end": time.perf_counter(), "model": None}
        make_batch, grad = training.make_batch, training.grad
        adamw_step = training.adamw_step

        def counted_batch(*args, **kwargs):
            batch = make_batch(*args, **kwargs)
            step["tokens"] = int((batch[3] != PAD).sum())
            return batch

        def checked_grad(*args, **kwargs):
            loss, grads = grad(*args, **kwargs)
            losses.append(loss)
            checks.record("finite_loss", math.isfinite(loss))
            return loss, grads

        def timed_step(model, *args, **kwargs):
            adamw_step(model, *args, **kwargs)
            now = time.perf_counter()
            out.add_unit(now - step["end"], step["tokens"])
            step.update(end=now, model=model)
            if budget.units is None and not budget.more(len(out.units)):
                raise _StopTraining

        with patched(training, "make_batch", counted_batch), \
                patched(training, "grad", checked_grad), \
                patched(training, "adamw_step", timed_step), budget.timed():
            try:
                training.train(inputs["pairs"], self.hyper(), inputs["vocab"],
                               seed=seed, max_steps=budget.units)
            except _StopTraining:
                pass
        out.op_s = [t for t, _ in out.units]
        lo, hi = self.LOSS_STEPS
        window = losses[lo:hi] or losses[-10:]
        out.extras["train_loss"] = float(np.mean(window))
        out.extras["steps"] = len(out.units)
        check_checkpoint_round_trip(step["model"], checks, "train")
        return out


# --- corpus -----------------------------------------------------------------

class Corpus(Workload):
    """Harvest a desk corpus, then mine it brute-force and through IVF.

    One unit is one pass: ``build_corpus`` (3 problems, pop 200, 15 gens,
    double tournament), brute-force ``mine_pairs`` with k=3 on the whole
    harvest, then ``build_ivf_index`` plus IVF ``mine_pairs`` on a seeded
    ``IVF_ENTRIES``-entry sample of it. The op is one ``query_ivf`` call.
    Items are harvested corpus entries.

    The k-NN checks run once per benchmark run, on one more pass over the
    desk corpus of the pinned checkpoint's recipe (corpus seed 12), so that
    the count of known-defect failures is the same on every run.
    """

    name = "corpus"
    UNIT_S = 5.5
    IVF_ENTRIES = 1200
    IVF_CLUSTERS = 32
    IVF_PROBE = 4
    ORACLE_SAMPLE = 500
    extras = {"harvest_s": "s", "mine_s": "s", "mine_ivf_s": "s"}

    def setup(self, seed: int):
        return {"digests": {}}

    def _pass(self, rng: np.random.Generator, budget: Budget, op_s=None):
        """One harvest-and-mine pass; returns entries, pairs and stage times."""
        t0 = budget.elapsed
        with budget.timed():
            entries = harvest_desk_corpus(rng)
        t1 = budget.elapsed
        with budget.timed():
            pairs, _ = corpus.mine_pairs(entries, K)
        t2 = budget.elapsed
        pick = np.sort(rng.choice(len(entries), size=min(
            self.IVF_ENTRIES, len(entries)), replace=False))
        subset = [entries[i] for i in pick]
        with capturing(corpus, "query_ivf", [], op_s), budget.timed():
            index = corpus.build_ivf_index(subset, self.IVF_CLUSTERS, rng)
            corpus.mine_pairs(subset, K, index=index, n_probe=self.IVF_PROBE)
        return entries, pairs, (t1 - t0, t2 - t1, budget.elapsed - t2)

    def run(self, inputs, seed: int, budget: Budget, checks: Checks) -> Outcome:
        out = Outcome()
        stage = {"harvest_s": [], "mine_s": [], "mine_ivf_s": []}
        stats = {"entries": [], "distinct": [], "largest": [], "pairs": []}
        corpora = hashlib.sha256()
        unit = 0
        while budget.more(unit):
            entries, pairs, times = self._pass(rng_for(seed, 4, unit), budget,
                                               out.op_s)
            unit += 1
            for key, t in zip(stage, times):
                stage[key].append(t)
            out.add_unit(sum(times), len(entries))

            sem = np.stack([e.semantics for e in entries])
            for e in entries:
                corpora.update(" ".join(e.tokens).encode())
            corpora.update(sem.tobytes())
            _, counts = np.unique(sem, axis=0, return_counts=True)
            stats["entries"].append(len(entries))
            stats["distinct"].append(len(counts) / len(entries))
            stats["largest"].append(int(counts.max()))
            stats["pairs"].append(len(pairs))
        for key, values in stage.items():
            out.extras[key] = statistics.median(values)
        out.extras["passes"] = unit
        out.layer.update({
            "corpus.entries": statistics.median(stats["entries"]),
            "corpus.distinct_semantics_ratio":
                statistics.median(stats["distinct"]),
            "corpus.largest_duplicate_class":
                statistics.median(stats["largest"]),
            "corpus.pairs": statistics.median(stats["pairs"]),
        })
        out.digests["harvested_corpora"] = corpora.hexdigest()
        return out

    def verify(self, checks: Checks, out: Outcome):
        """``knn_oracle`` and ``ivf_rule`` on one pass over the desk corpus."""
        rng = np.random.default_rng(DESK_CORPUS_SEED)
        mined, queried = [], []
        with capturing(corpus, "_knn_all", mined), \
                capturing(corpus, "query_ivf", queried):
            entries, _, _ = self._pass(rng, Budget(units=1))
        neighbours = mined[0][1]
        mismatch = 0
        for i in rng.choice(len(entries), size=self.ORACLE_SAMPLE,
                            replace=False):
            qid = entries[i].id
            ok = same_neighbours(neighbours[qid],
                                 _knn_neighbors(entries, qid, K))
            checks.record("knn_oracle", ok)
            mismatch += not ok
        for args, result in queried:
            checks.record("ivf_rule", ivf_rule_ok(args[1], result))
        out.layer["corpus.oracle_mismatch"] = mismatch
        out.layer["corpus.short_neighbour_lists"] = sum(
            len(v) < K for v in neighbours.values())
        out.digests["check_corpus"] = digest(
            np.stack([e.semantics for e in entries]))


def same_neighbours(got, want) -> bool:
    return (len(got) == len(want)
            and all(a == c and math.isclose(b, d, rel_tol=1e-12, abs_tol=0.0)
                    for (a, b), (c, d) in zip(got, want)))


def ivf_rule_ok(query_id, result) -> bool:
    """Excludes the query and zero distances; ascending by (sd, id); <= k."""
    return (len(result) <= K
            and all(i != query_id and sd > 0.0 for i, sd in result)
            and all((s1, i1) < (s2, i2)
                    for (i1, s1), (i2, s2) in zip(result, result[1:])))


# --- baselines --------------------------------------------------------------

class Baselines(Workload):
    """``run_method`` for stdgp and slim, then the ``tsgp bench`` reports.

    One unit is one bench round: ``RUNS`` seeded runs per method (pop 100,
    ``GENS`` generations, variation logging on), each on its own synthetic
    dataset, with trace and variation CSVs, then ``aggregate_runs``, the
    results/series/stats CSVs and their Wilcoxon rank-sum tests. The op is
    one generation. Items are offspring evaluated.
    """

    name = "baselines"
    GENS = 10
    RUNS = 4
    ROUNDS = 24
    METHODS = ("stdgp", "slim")
    UNIT_S = 2.5
    extras = {"test_rmse": "1"}

    def setup(self, seed: int):
        seeds = [seed * 10_000 + i for i in range(self.RUNS * self.ROUNDS)]
        datasets = [synthetic_dataset(np.random.default_rng(s), s)
                    for s in seeds]
        return {"seeds": seeds, "datasets": datasets,
                "digests": {"datasets": dataset_digest(datasets)}}

    def run(self, inputs, seed: int, budget: Budget, checks: Checks) -> Outcome:
        out = Outcome(digests=dict(inputs["digests"]))
        clock = GenClock()
        finals = []
        unit = 0
        out_dir = WORK_DIR / f"baselines-{seed}"
        out_dir.mkdir(parents=True, exist_ok=True)
        try:
            with clock.installed(stdgp, slim):
                while budget.more(unit):
                    with budget.timed():
                        by_method = self._round(inputs, unit, out_dir)
                    unit += 1
                    out.add_unit(budget.last, POP * self.GENS * self.RUNS
                                 * len(self.METHODS))
                    for traces in by_method.values():
                        for tr in traces:
                            finals.append(tr.final_best_test_rmse)
                            best = [g.best_train_rmse for g in tr.generations]
                            checks.record("run_finite_monotone", (
                                math.isfinite(tr.final_best_test_rmse)
                                and len(best) == self.GENS + 1
                                and all(b <= a for a, b in zip(best, best[1:]))))
                    checks.record("stats_p_values", stats_ok(out_dir))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        out.op_s = clock.samples
        out.extras["test_rmse"] = statistics.median(finals)
        out.extras["rounds"] = unit
        return out

    def _round(self, inputs, unit: int, out_dir) -> dict:
        """One ``tsgp bench``-shaped round over the unit's seeds."""
        n = len(inputs["seeds"])
        picks = [(unit * self.RUNS + r) % n for r in range(self.RUNS)]
        by_method = {}
        for method in self.METHODS:
            traces = []
            for r, i in enumerate(picks):
                tr = bench.run_method(method, inputs["datasets"][i],
                                      inputs["seeds"][i],
                                      generations=self.GENS, pop_size=POP)
                trace.write_trace_csv(tr, out_dir / f"trace_{method}_{r}.csv")
                trace.write_variation_csv(
                    tr, out_dir / f"variations_{method}_{r}.csv")
                traces.append(tr)
            by_method[method] = traces
        aggregates = {m: bench.aggregate_runs(t) for m, t in by_method.items()}
        every = [t for traces in by_method.values() for t in traces]
        bench.write_results_csv(every, "synthetic", out_dir / "results.csv")
        for metric in ("train_rmse", "size", "sd"):
            bench.write_series_csv(aggregates, metric, "synthetic",
                                   out_dir / f"series_{metric}.csv")
        bench.write_stats_csv(by_method, "synthetic", out_dir / "stats.csv")
        return by_method


def stats_ok(out_dir) -> bool:
    lines = (out_dir / "stats.csv").read_text().splitlines()[1:]
    return len(lines) == 1 and 0.0 <= float(lines[0].split(",")[3]) <= 1.0


class SetupError(Exception):
    """The workload's inputs cannot be built as pinned."""


WORKLOADS = {w.name: w for w in (Search(), Train(), Corpus(), Baselines())}
