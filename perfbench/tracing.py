"""Span tracing of ``tsgp`` from the outside.

Inside ``Tracer.installed()`` the public functions and methods of the
``tsgp`` modules listed in ``TARGETS`` are replaced by wrappers that record
one span per call: name, start, end, parent span and run id. Spans stay in
memory until ``write`` saves them. Nothing under ``src/`` is edited; the
originals are put back when the block ends.

``per_layer_metrics`` turns the spans into the per-layer metrics named in
``BENCHMARK.json``. Layer times are inclusive span times; ``self_times``
gives span time minus the time covered by direct child spans.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import os
import time
from collections import defaultdict

import numpy as np

from tsgp import bench, corpus, expr, sampler, slim, stdgp, trace
from tsgp.model import autodiff, checkpoint, training, transformer
from tsgp.model.vocab import PAD

# Row buckets of transformer.decode_row_us.*: prefix length (tokens emitted
# before the decode call) -> bucket label.
DECODE_BUCKETS = ((0, 5, "t0-5"), (6, 20, "t6-20"), (21, 40, "t21-40"),
                  (41, 101, "t41-101"))


def _decode_attrs(args, kwargs, out):
    dec_ids = args[1]
    return {"rows": int(dec_ids.shape[0]), "prefix": int(dec_ids.shape[1]) - 1}


def _batch_attrs(args, kwargs, out):
    return {"rows": len(args[1]), "tokens": sum(len(t) for t in out)}


def _make_batch_attrs(args, kwargs, out):
    targets = out[3]
    return {"pad": int((targets == PAD).sum()), "positions": int(targets.size)}


def _checkpoint_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[-1])}


def _mine_attrs(args, kwargs, out):
    return {"ivf": kwargs.get("index") is not None}


# (owner, attribute, span name, attribute extractor or None)
TARGETS = (
    (sampler, "run_tsgp", "sampler.run_tsgp", None),
    (sampler, "sample_tokens_batch", "sampler.sample_tokens_batch",
     _batch_attrs),
    (sampler, "legal_mask", "sampler.legal_mask", None),
    (transformer.SdTransformer, "encode", "transformer.encode", None),
    (transformer.SdTransformer, "decode", "transformer.decode", _decode_attrs),
    (transformer.SdTransformer, "forward", "transformer.forward", None),
    (autodiff, "matmul", "autodiff.matmul", None),
    (autodiff, "softmax", "autodiff.softmax", None),
    (autodiff, "layer_norm", "autodiff.layer_norm", None),
    (autodiff.Tensor, "backward", "autodiff.backward", None),
    (training, "train", "training.train", None),
    (training, "make_batch", "training.make_batch", _make_batch_attrs),
    (training, "grad", "training.grad", None),
    (training, "adamw_step", "training.adamw_step", None),
    (checkpoint, "save_checkpoint", "checkpoint.save", _checkpoint_bytes),
    (checkpoint, "load_checkpoint", "checkpoint.load", _checkpoint_bytes),
    (expr, "evaluate", "expr.evaluate", None),
    (expr, "parse_prefix", "expr.parse_prefix", None),
    (stdgp, "run_stdgp", "stdgp.run_stdgp", None),
    (stdgp, "subtree_crossover", "stdgp.subtree_crossover", None),
    (stdgp, "subtree_mutation", "stdgp.subtree_mutation", None),
    (slim, "run_slim", "slim.run_slim", None),
    (slim, "inflate", "slim.inflate", None),
    (slim, "deflate", "slim.deflate", None),
    (corpus, "build_corpus", "corpus.build_corpus", None),
    (corpus, "mine_pairs", "corpus.mine_pairs", _mine_attrs),
    (corpus, "build_ivf_index", "corpus.build_ivf_index", None),
    (corpus, "query_ivf", "corpus.query_ivf", None),
    (bench, "run_method", "bench.run_method", None),
    (bench, "aggregate_runs", "bench.aggregate_runs", None),
    (bench, "wilcoxon_ranksum", "bench.wilcoxon_ranksum", None),
    (bench, "write_results_csv", "bench.write_results_csv", None),
    (bench, "write_series_csv", "bench.write_series_csv", None),
    (bench, "write_stats_csv", "bench.write_stats_csv", None),
    (trace, "write_trace_csv", "trace.write_trace_csv", None),
    (trace, "write_variation_csv", "trace.write_variation_csv", None),
)

NAME, START, END, PARENT, RUN, ATTRS = range(6)


@contextlib.contextmanager
def patched(owner, attr, value):
    """Set ``owner.attr`` to ``value`` for the duration of the block."""
    old = owner.__dict__[attr]
    setattr(owner, attr, value)
    try:
        yield old
    finally:
        setattr(owner, attr, old)


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, run id, attrs]
        self._stack = []
        self.run_id = ""
        self._groups, self._groups_len = {}, -1

    def _wrap(self, fn, name, attrs_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    self.run_id, None]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if attrs_of is not None:
                span[ATTRS] = attrs_of(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        with contextlib.ExitStack() as stack:
            for owner, attr, name, attrs_of in TARGETS:
                fn = owner.__dict__[attr]
                stack.enter_context(
                    patched(owner, attr, self._wrap(fn, name, attrs_of)))
            yield self

    # -- summaries ---------------------------------------------------------

    def by_name(self, name) -> list:
        if self._groups_len != len(self.spans):
            self._groups = defaultdict(list)
            for s in self.spans:
                self._groups[s[NAME]].append(s)
            self._groups_len = len(self.spans)
        return self._groups.get(name, [])

    def total(self, name) -> float:
        return sum(s[END] - s[START] for s in self.by_name(name))

    def count(self, name) -> int:
        return len(self.by_name(name))

    def self_times(self) -> dict:
        """name -> [calls, inclusive s, self s]; self = inclusive - children."""
        child = defaultdict(float)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, s in enumerate(self.spans):
            row = out[s[NAME]]
            dur = s[END] - s[START]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return dict(out)

    def write(self, path):
        """Gzipped CSV, one span per row, times in microseconds from the first."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "name", "start_us", "end_us", "parent",
                        "run_id"])
            for i, s in enumerate(self.spans):
                w.writerow([i, s[NAME], round((s[START] - t0) * 1e6, 1),
                            round((s[END] - t0) * 1e6, 1), s[PARENT],
                            s[RUN]])


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0


def _percentile_ms(durations, q) -> float:
    return float(np.percentile(durations, q)) * 1e3 if durations else 0.0


def per_layer_metrics(tr: Tracer, extra: dict) -> dict:
    """name -> value for every per-layer metric.

    ``extra`` supplies the values the workload measured from its own data
    (corpus statistics, identical-offspring ratio, resample rows,
    overhead ratio). Metrics of a layer a workload does not use are 0.
    """
    m = {}
    batch_rows = {i: s[ATTRS]["rows"] for i, s in enumerate(tr.spans)
                  if s[NAME] == "sampler.sample_tokens_batch"}
    batches = tr.by_name("sampler.sample_tokens_batch")
    m["sampler.batch_calls"] = len(batches)
    m["sampler.batch_s"] = tr.total("sampler.sample_tokens_batch")
    m["sampler.tokens_emitted"] = sum(s[ATTRS]["tokens"] for s in batches)
    sampler_decodes = [s for s in tr.by_name("transformer.decode")
                       if s[PARENT] in batch_rows]
    m["sampler.decode_calls"] = len(sampler_decodes)
    m["sampler.active_row_ratio"] = _ratio(
        sum(s[ATTRS]["rows"] for s in sampler_decodes),
        sum(batch_rows[s[PARENT]] for s in sampler_decodes))
    m["sampler.resample_rows"] = extra.get("resample_rows", 0)
    m["sampler.identical_offspring_ratio"] = extra.get(
        "identical_offspring_ratio", 0.0)
    m["sampler.legal_mask_calls"] = tr.count("sampler.legal_mask")
    m["sampler.legal_mask_s"] = tr.total("sampler.legal_mask")

    m["transformer.encode_s"] = tr.total("transformer.encode")
    m["transformer.decode_s"] = tr.total("transformer.decode")
    m["transformer.forward_s"] = tr.total("transformer.forward")
    for lo, hi, label in DECODE_BUCKETS:
        rows = [s for s in sampler_decodes if lo <= s[ATTRS]["prefix"] <= hi]
        m[f"transformer.decode_row_us.{label}"] = _ratio(
            sum(s[END] - s[START] for s in rows) * 1e6,
            sum(s[ATTRS]["rows"] for s in rows))

    m["autodiff.matmul_calls"] = tr.count("autodiff.matmul")
    m["autodiff.matmul_s"] = tr.total("autodiff.matmul")
    m["autodiff.softmax_s"] = tr.total("autodiff.softmax")
    m["autodiff.layer_norm_s"] = tr.total("autodiff.layer_norm")
    m["autodiff.backward_s"] = tr.total("autodiff.backward")

    batches = tr.by_name("training.make_batch")
    m["training.make_batch_s"] = tr.total("training.make_batch")
    m["training.pad_fraction"] = _ratio(
        sum(s[ATTRS]["pad"] for s in batches),
        sum(s[ATTRS]["positions"] for s in batches))
    m["training.grad_s"] = tr.total("training.grad")
    m["training.adamw_s"] = tr.total("training.adamw_step")
    m["training.steps"] = tr.count("training.adamw_step")

    m["checkpoint.load_s"] = tr.total("checkpoint.load")
    m["checkpoint.save_s"] = tr.total("checkpoint.save")
    saved = tr.by_name("checkpoint.save") + tr.by_name("checkpoint.load")
    m["checkpoint.bytes"] = max((s[ATTRS]["bytes"] for s in saved), default=0)

    m["expr.evaluate_calls"] = tr.count("expr.evaluate")
    m["expr.evaluate_s"] = tr.total("expr.evaluate")
    m["expr.parse_calls"] = tr.count("expr.parse_prefix")
    m["expr.parse_s"] = tr.total("expr.parse_prefix")

    m["stdgp.run_s"] = tr.total("stdgp.run_stdgp")
    m["stdgp.crossover_calls"] = tr.count("stdgp.subtree_crossover")
    m["stdgp.mutation_calls"] = tr.count("stdgp.subtree_mutation")
    m["slim.run_s"] = tr.total("slim.run_slim")
    m["slim.inflate_calls"] = tr.count("slim.inflate")
    m["slim.deflate_calls"] = tr.count("slim.deflate")

    for key in ("corpus.entries", "corpus.distinct_semantics_ratio",
                "corpus.largest_duplicate_class", "corpus.pairs",
                "corpus.oracle_mismatch", "corpus.short_neighbour_lists"):
        m[key] = extra.get(key, 0)
    m["corpus.harvest_s"] = tr.total("corpus.build_corpus")
    brute = [s for s in tr.by_name("corpus.mine_pairs") if not s[ATTRS]["ivf"]]
    m["corpus.mine_s"] = sum(s[END] - s[START] for s in brute)
    m["corpus.ivf_build_s"] = tr.total("corpus.build_ivf_index")
    queries = [s[END] - s[START] for s in tr.by_name("corpus.query_ivf")]
    m["corpus.ivf_query_calls"] = len(queries)
    m["corpus.ivf_query_ms_p50"] = _percentile_ms(queries, 50)
    m["corpus.ivf_query_ms_p90"] = _percentile_ms(queries, 90)

    m["bench.aggregate_s"] = tr.total("bench.aggregate_runs")
    m["bench.wilcoxon_s"] = tr.total("bench.wilcoxon_ranksum")
    m["bench.csv_write_s"] = sum(
        tr.total(n) for n in ("bench.write_results_csv",
                              "bench.write_series_csv",
                              "bench.write_stats_csv",
                              "trace.write_trace_csv",
                              "trace.write_variation_csv"))
    m["tracing.overhead_ratio"] = extra["overhead_ratio"]
    return m
