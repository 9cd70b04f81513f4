"""Command-line front end: the full pipeline as seeded, reproducible
subcommands.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Every output directory gets a run manifest (resolved configuration, seed,
input digests, tool version).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from pathlib import Path

import click

from . import __version__
from .errors import DataError, NumericError


def _thread_env(threads: int):
    """Cap the BLAS and OpenMP pools. NumPy reads these variables when it
    loads, so nothing in this module imports it before a subcommand body."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(ctx, out_path):
    """Record the subcommand's options, seed, threading and the digest of
    every input file option beside ``out_path``."""
    out_path = Path(out_path)
    inputs = [ctx.params[p.name] for p in ctx.command.params
              if isinstance(p.type, click.Path) and p.type.exists
              and ctx.params[p.name]]
    manifest = {
        "subcommand": ctx.info_name,
        "config": ctx.params,
        "seed": ctx.obj["seed"],
        "threads": ctx.obj["threads"],
        "deterministic": ctx.obj["deterministic"],
        "inputs": {str(p): _digest(p) for p in inputs},
        "version": __version__,
    }
    if out_path.is_dir():
        target = out_path / "manifest.json"
    else:
        target = out_path.with_name(out_path.name + ".manifest.json")
    target.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


class StrictInt(click.types.IntParamType):
    """click's integer type, except that a float or boolean (which only
    ``--config`` can supply) is a usage error instead of being truncated."""

    def convert(self, value, param, ctx):
        if isinstance(value, (bool, float)):
            self.fail(f"{value!r} is not a valid integer.", param, ctx)
        return super().convert(value, param, ctx)


STRICT_INT = StrictInt()


class StrictFloat(click.types.FloatParamType):
    """click's float type, except that a boolean (which only ``--config``
    can supply) or a value that is not finite is a usage error."""

    def convert(self, value, param, ctx):
        if isinstance(value, bool):
            self.fail(f"{value!r} is not a valid float.", param, ctx)
        value = super().convert(value, param, ctx)
        if not math.isfinite(value):
            self.fail(f"{value!r} is not a finite number.", param, ctx)
        return value


STRICT_FLOAT = StrictFloat()


class AtLeast(click.ParamType):
    """A number option with a lower bound; a smaller value (or NaN) is a
    usage error naming the option, whether it came from a flag or from
    ``--config``."""

    relation = ">="

    def __init__(self, low, base: click.ParamType = STRICT_INT):
        self.low, self.base, self.name = low, base, base.name

    def convert(self, value, param, ctx):
        value = self.base.convert(value, param, ctx)
        if not self.within(value):
            raise click.UsageError(
                f"{param.opts[0]} must be {self.relation} {self.low}")
        return value

    def within(self, value) -> bool:
        return value >= self.low


class Above(AtLeast):
    """``AtLeast`` with an exclusive bound."""

    relation = ">"

    def within(self, value) -> bool:
        return value > self.low


_INPUT_FILE = click.Path(exists=True, dir_okay=False)


@click.group()
@click.option("--seed", type=STRICT_INT, default=0, show_default=True,
              help="Master seed for all randomness.")
@click.option("--threads", type=AtLeast(1), default=None,
              help="Worker thread cap (default: available cores).")
@click.option("--deterministic", is_flag=True,
              help="Force single-threaded, bit-reproducible execution.")
@click.option("--config", "config_path", type=_INPUT_FILE,
              help="JSON object setting the default of any subcommand "
                   "option by its parameter name (flags win).")
@click.pass_context
def cli(ctx, seed, threads, deterministic, config_path):
    """Semantic-aware transformer variation for GP: corpus, training, search."""
    if deterministic:
        threads = 1
    if threads is None:
        threads = os.cpu_count() or 1
    _thread_env(threads)
    ctx.obj = {"seed": seed, "threads": threads, "deterministic": deterministic}
    if config_path:
        try:
            config = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except UnicodeDecodeError as e:
            raise DataError(f"--config {config_path} is not UTF-8 text "
                            f"({e.reason})") from None
        if not isinstance(config, dict):
            raise click.UsageError(
                f"--config {config_path} must hold a JSON object")
        # every key must name an option of the subcommand that runs
        command = cli.commands[ctx.invoked_subcommand]
        flags = {p.name: p.opts[0] for p in cli.params}
        for key in sorted(config.keys() - {p.name for p in command.params}):
            hint = (f"is a global option; pass it as the flag {flags[key]}"
                    if key in flags else f"names no option of {command.name}")
            raise click.UsageError(f"--config {config_path}: {key!r} {hint}")
        ctx.default_map = {command.name: config}


@cli.command("gen-corpus")
@click.option("--problems", type=AtLeast(1), default=3, show_default=True)
@click.option("--pop", type=AtLeast(1), default=200, show_default=True)
@click.option("--gens", type=AtLeast(0), default=15, show_default=True)
@click.option("--features", type=AtLeast(1), default=4, show_default=True)
@click.option("--rows", type=AtLeast(10), default=200, show_default=True)
@click.option("--noise", type=AtLeast(0, STRICT_FLOAT), default=0.1,
              show_default=True)
@click.option("--m-sem", type=AtLeast(2), default=100, show_default=True)
@click.option("--out", type=click.Path(), default="corpus.jsonl",
              show_default=True)
@click.pass_context
def gen_corpus(ctx, problems, pop, gens, features, rows, noise, m_sem, out):
    """Harvest functions from synthetic problems into a semantics-annotated
    corpus (one JSON object per line)."""
    import numpy as np
    from .corpus import build_corpus, write_corpus_jsonl
    from .stdgp import GPConfig, DOUBLE_TOURNAMENT

    gp_config = GPConfig(pop_size=pop, generations=gens,
                         selection=DOUBLE_TOURNAMENT)
    rng = np.random.default_rng(ctx.obj["seed"])
    entries, _ = build_corpus(problems, gp_config, d=features, m=rows,
                              noise_sigma=noise, m_sem=m_sem, rng=rng)
    write_corpus_jsonl(entries, out)
    _write_manifest(ctx, out)
    click.echo(f"wrote {len(entries)} corpus entries to {out}")


@cli.command("mine-pairs")
@click.option("--corpus", "corpus_path", type=_INPUT_FILE, required=True)
@click.option("--k", type=AtLeast(1), default=3, show_default=True)
@click.option("--sd-max", type=Above(0, STRICT_FLOAT), default=100.0,
              show_default=True)
@click.option("--max-len", type=AtLeast(1), default=100, show_default=True)
@click.option("--ivf-clusters", type=AtLeast(0), default=0,
              help="Use an IVF index with this many clusters (0 = brute force).")
@click.option("--n-probe", type=AtLeast(1), default=None)
@click.option("--out", type=click.Path(), default="pairs.jsonl",
              show_default=True)
@click.pass_context
def mine_pairs_cmd(ctx, corpus_path, k, sd_max, max_len, ivf_clusters,
                   n_probe, out):
    """Mine semantically similar training pairs from a corpus."""
    import numpy as np
    from .corpus import (read_corpus_jsonl, mine_pairs, build_ivf_index,
                         write_pairs_jsonl)

    if n_probe is not None and not ivf_clusters:
        raise click.UsageError("--n-probe needs --ivf-clusters (an IVF "
                               "index to probe)")
    entries = read_corpus_jsonl(corpus_path)
    if not entries:
        raise DataError(f"{corpus_path} holds no corpus entries")
    if ivf_clusters > len(entries):
        raise click.UsageError(f"--ivf-clusters must be in 0..{len(entries)} "
                               "(the corpus size)")
    index = None
    if ivf_clusters:
        index = build_ivf_index(entries, ivf_clusters,
                                np.random.default_rng(ctx.obj["seed"]))
    pairs, dropped = mine_pairs(entries, k, sd_max, max_len, index=index,
                                n_probe=n_probe)
    if not pairs:
        raise DataError(f"{corpus_path} yields no training pairs "
                        f"({dropped} dropped for length)")
    write_pairs_jsonl(pairs, out)
    _write_manifest(ctx, out)
    click.echo(f"wrote {len(pairs)} pairs to {out} "
               f"({dropped} dropped for length)")


@cli.command("train")
@click.option("--pairs", "pairs_path", type=_INPUT_FILE, required=True)
@click.option("--epochs", type=AtLeast(1), default=8, show_default=True)
@click.option("--lr", type=Above(0, STRICT_FLOAT), default=1e-3,
              show_default=True)
@click.option("--d-model", type=AtLeast(1), default=128, show_default=True)
@click.option("--n-heads", type=AtLeast(1), default=8, show_default=True)
@click.option("--layers", type=AtLeast(1), default=2, show_default=True,
              help="Encoder and decoder stack depth.")
@click.option("--batch-size", type=AtLeast(1), default=32, show_default=True)
@click.option("--weight-decay", type=AtLeast(0, STRICT_FLOAT), default=0.01,
              show_default=True)
@click.option("--features", type=AtLeast(1), default=4, show_default=True)
@click.option("--out", type=click.Path(), default="model.tsgp",
              show_default=True)
@click.option("--curve", type=click.Path(), default=None,
              help="Write the training-loss curve CSV here.")
@click.pass_context
def train_cmd(ctx, pairs_path, epochs, lr, d_model, n_heads, layers,
              batch_size, weight_decay, features, out, curve):
    """Train the semantic-distance-conditioned transformer on mined pairs."""
    import csv
    from .corpus import read_pairs_jsonl
    from .expr import PrimitiveSet
    from .model import Hyperparams, Vocabulary, train, save_checkpoint

    if d_model % n_heads or d_model % 2:
        raise click.UsageError("--d-model must be even and a multiple of "
                               f"--n-heads ({n_heads})")
    pairs = read_pairs_jsonl(pairs_path)
    if not pairs:
        raise DataError(f"{pairs_path} holds no training pairs")
    hyper = Hyperparams(d_model=d_model, n_heads=n_heads,
                        n_encoder_layers=layers, n_decoder_layers=layers,
                        lr=lr, epochs=epochs, batch_size=batch_size,
                        weight_decay=weight_decay)
    vocab = Vocabulary.from_primitives(PrimitiveSet(features))
    unknown = sorted({t for p in pairs for t in p.input_tokens + p.output_tokens}
                     - set(vocab.symbols))
    if unknown:
        raise DataError(f"{pairs_path} uses tokens outside the vocabulary of "
                        f"--features {features}: {', '.join(unknown)}")
    line = next((n for n, p in enumerate(pairs, 1)
                 if len(p.output_tokens) > hyper.max_len), None)
    if line:
        raise DataError(f"{pairs_path} line {line}: output longer than "
                        f"{hyper.max_len} tokens")
    model, loss_curve = train(pairs, hyper, vocab, seed=ctx.obj["seed"])
    save_checkpoint(model, out)
    if curve:
        with open(curve, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["step", "loss"])
            w.writerows((s, repr(l)) for s, l in loss_curve)
    _write_manifest(ctx, out)
    click.echo(f"trained on {len(pairs)} pairs, final loss "
               f"{loss_curve[-1][1]:.4f}, checkpoint at {out}")


METHODS = ("tsgp", "stdgp", "slim")

def _run_options(command):
    """The problem and search options ``search`` and ``bench`` share; the
    command receives them as keyword arguments."""
    for option in reversed([
        click.option("--model", "model_path", type=_INPUT_FILE, default=None,
                     help="Checkpoint (required for tsgp)."),
        click.option("--data", type=_INPUT_FILE, default=None),
        click.option("--target", default="target", show_default=True),
        click.option("--synthetic", is_flag=True,
                     help="Search on a fresh seeded synthetic problem."),
        click.option("--rows", type=AtLeast(10), default=200,
                     show_default=True),
        click.option("--noise", type=AtLeast(0, STRICT_FLOAT), default=0.1,
                     show_default=True),
        click.option("--features", type=AtLeast(1), default=4,
                     show_default=True),
        click.option("--sdd", type=AtLeast(0, STRICT_FLOAT), default=0.1,
                     show_default=True,
                     help="Desired semantic distance fed to the transformer."),
        click.option("--pop", type=AtLeast(1), default=100, show_default=True),
        click.option("--gens", type=AtLeast(0), default=50, show_default=True),
    ]):
        command = option(command)
    return command


def _load_model(model_path, methods):
    """The checkpoint a tsgp run needs; None when no method is tsgp."""
    if "tsgp" not in methods:
        return None
    if not model_path:
        raise click.UsageError("tsgp needs --model")
    from .model import load_checkpoint
    return load_checkpoint(model_path)


def _load_dataset(run: dict, split_seed: int):
    import numpy as np
    from .bench import load_csv, make_dataset
    from .corpus import gen_synthetic_problem

    if run["synthetic"]:
        rng = np.random.default_rng(split_seed)
        problem = gen_synthetic_problem(run["features"], run["rows"],
                                        run["noise"], rng)
        return make_dataset("synthetic", problem.X, problem.y, split_seed)
    if not run["data"]:
        raise click.UsageError("need --data CSV or --synthetic")
    return load_csv(run["data"], run["target"], split_seed)


@cli.command("search")
@click.option("--method", type=click.Choice(METHODS), required=True)
@_run_options
@click.option("--out", type=click.Path(file_okay=False), default="run",
              show_default=True)
@click.pass_context
def search_cmd(ctx, method, out, **run):
    """Run one seeded search and write its trace CSVs."""
    from .bench import run_method
    from .trace import write_trace_csv, write_variation_csv

    model = _load_model(run["model_path"], [method])
    dataset = _load_dataset(run, ctx.obj["seed"])
    trace = run_method(method, dataset, ctx.obj["seed"],
                       generations=run["gens"], pop_size=run["pop"],
                       model=model, sd_desired=run["sdd"])
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trace_csv(trace, out_dir / "trace.csv")
    write_variation_csv(trace, out_dir / "variations.csv")
    _write_manifest(ctx, out_dir)
    click.echo(f"{method}: final train best "
               f"{trace.generations[-1].best_train_rmse:.4f}, "
               f"test {trace.final_best_test_rmse:.4f}, traces in {out_dir}")


def _method_list(ctx, param, value) -> list:
    methods = [m.strip() for m in value.split(",") if m.strip()]
    if not methods or not set(methods) <= set(METHODS):
        raise click.UsageError(f"--methods must list some of "
                               f"{','.join(METHODS)}, got {value!r}")
    return methods


@cli.command("bench")
@click.option("--methods", default=",".join(METHODS), show_default=True,
              callback=_method_list)
@_run_options
@click.option("--runs", type=AtLeast(1), default=30, show_default=True)
@click.option("--probe/--no-probe", default=True, show_default=True,
              help="Also run the variation-distance replication probe.")
@click.option("--out", type=click.Path(file_okay=False), default="bench_out",
              show_default=True)
@click.pass_context
def bench_cmd(ctx, methods, runs, probe, out, **run):
    """Multi-run orchestration: results, per-generation series and pairwise
    statistics CSVs, one row set per method."""
    from .bench import (aggregate_runs, run_method, variation_probe,
                        write_results_csv, write_series_csv, write_stats_csv)
    from .trace import write_trace_csv, write_variation_csv

    model = _load_model(run["model_path"], methods)
    seeds = [ctx.obj["seed"] * 10_000 + r for r in range(runs)]
    datasets = [_load_dataset(run, seed) for seed in seeds]
    dataset_name = datasets[0].name
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    traces_by_method = {}
    all_traces = []
    for method in methods:
        traces = []
        for r, (seed, dataset) in enumerate(zip(seeds, datasets)):
            trace = run_method(method, dataset, seed, generations=run["gens"],
                               pop_size=run["pop"], model=model,
                               sd_desired=run["sdd"])
            write_trace_csv(trace, out_dir / f"trace_{method}_{r}.csv")
            write_variation_csv(trace, out_dir / f"variations_{method}_{r}.csv")
            traces.append(trace)
        traces_by_method[method] = traces
        all_traces.extend(traces)

    aggregates = {m: aggregate_runs(t) for m, t in traces_by_method.items()}
    write_results_csv(all_traces, dataset_name, out_dir / "results.csv")
    for metric in ("train_rmse", "size", "sd"):
        write_series_csv(aggregates, metric, dataset_name,
                         out_dir / f"series_{metric}.csv")
    write_stats_csv(traces_by_method, dataset_name, out_dir / "stats.csv")

    if probe and model is not None:
        dataset = _load_dataset(run, ctx.obj["seed"])
        report = variation_probe(model, dataset, n_parents=run["pop"],
                                 seed=ctx.obj["seed"], sd_desired=run["sdd"])
        (out_dir / "probe.json").write_text(
            json.dumps(report, indent=2) + "\n")
        click.echo(f"variation probe: tsgp median SD "
                   f"{report['tsgp_median_sd']:.4f} vs subtree mutation "
                   f"{report['stdgp_mutation_median_sd']:.4f} "
                   f"(p={report['wilcoxon_p']:.4f})")
    _write_manifest(ctx, out_dir)
    click.echo(f"bench outputs in {out_dir}")


@cli.command("fetch-data")
@click.argument("name")
@click.option("--cache", type=click.Path(), default="pmlb_cache",
              show_default=True)
@click.pass_context
def fetch_data(ctx, name, cache):
    """Download a PMLB dataset into the local cache."""
    from .bench import fetch_pmlb
    path = fetch_pmlb(name, cache)
    click.echo(str(path))


@cli.command("verify-model")
@click.option("--model", "model_path", type=_INPUT_FILE, required=True)
@click.pass_context
def verify_model(ctx, model_path):
    """Gradient, causality and checkpoint round-trip checks on a checkpoint."""
    import numpy as np
    from .model import load_checkpoint, save_checkpoint
    from .verify import causality_probe, gradient_check

    model = load_checkpoint(model_path)
    rng = np.random.default_rng(ctx.obj["seed"])

    max_rel = gradient_check(model, rng, n_probes=25)
    click.echo(f"gradient check: max relative error {max_rel:.3e}")
    leak, row_err = causality_probe(model, rng)
    click.echo(f"causality: max leakage {leak:.3e}, "
               f"attention row-sum error {row_err:.3e}")
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        p1, p2 = Path(tmp) / "a.tsgp", Path(tmp) / "b.tsgp"
        save_checkpoint(model, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        round_trip = p1.read_bytes() == p2.read_bytes()
    click.echo(f"checkpoint round trip byte-identical: {round_trip}")
    if max_rel > 1e-4 or leak > 0 or row_err > 1e-6 or not round_trip:
        raise NumericError("verification failed")
    click.echo("verify-model: all checks passed")


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.UsageError as e:
        click.echo(f"error: {e.format_message()}", err=True)
        click.echo("run with --help for usage", err=True)
        return 1
    except click.ClickException as e:
        e.show()
        return 1
    except click.Abort:
        return 1
    except (DataError, FileNotFoundError, json.JSONDecodeError) as e:
        click.echo(f"data error: {e}", err=True)
        return 2
    except (NumericError, FloatingPointError) as e:
        click.echo(f"numeric failure: {e}", err=True)
        return 3


if __name__ == "__main__":
    sys.exit(main())
