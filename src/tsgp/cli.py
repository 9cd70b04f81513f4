"""Command-line front end: the full pipeline as seeded, reproducible
subcommands.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Every output directory gets a run manifest (resolved configuration, seed,
input digests, tool version).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

import click

from . import __version__


def _thread_env(threads: int):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_path, subcommand: str, config: dict, seed: int,
                    inputs: list, ctx_obj: dict):
    out_path = Path(out_path)
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
        "threads": ctx_obj.get("threads"),
        "deterministic": ctx_obj.get("deterministic", False),
        "inputs": {str(p): _digest(p) for p in inputs},
        "version": __version__,
    }
    if out_path.is_dir():
        target = out_path / "manifest.json"
    else:
        target = out_path.with_name(out_path.name + ".manifest.json")
    target.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _resolved(ctx, **values) -> dict:
    """Merge config-file defaults with CLI flags (flags win)."""
    from click.core import ParameterSource
    file_cfg = ctx.obj.get("config", {})
    out = {}
    for name, value in values.items():
        src = ctx.get_parameter_source(name)
        if (src is not None and src != ParameterSource.COMMANDLINE
                and name in file_cfg):
            out[name] = file_cfg[name]
        else:
            out[name] = value
    return out


def _check_min(cfg: dict, **minimums):
    """Reject option values below their minimum as usage errors."""
    for name, low in minimums.items():
        if cfg[name] < low:
            raise click.UsageError(
                f"--{name.replace('_', '-')} must be >= {low}")


def _check_run_sizes(cfg: dict, rows_used: bool = True):
    """Reject population, generation, row and feature counts no run can
    use; rows and features only where the problem is generated."""
    _check_min(cfg, pop=1, gens=0)
    if rows_used:
        _check_min(cfg, rows=10, features=1)


@click.group()
@click.option("--seed", type=int, default=0, show_default=True,
              help="Master seed for all randomness.")
@click.option("--threads", type=int, default=None,
              help="Worker thread cap (default: available cores).")
@click.option("--deterministic", is_flag=True,
              help="Force single-threaded, bit-reproducible execution.")
@click.option("--config", "config_path", type=click.Path(exists=True),
              help="JSON file overriding option defaults (flags win).")
@click.pass_context
def cli(ctx, seed, threads, deterministic, config_path):
    """Semantic-aware transformer variation for GP: corpus, training, search."""
    if deterministic:
        threads = 1
    if threads is None:
        threads = os.cpu_count() or 1
    _thread_env(threads)
    ctx.obj = {"seed": seed, "threads": threads, "deterministic": deterministic,
               "config": json.loads(Path(config_path).read_text())
               if config_path else {}}


@cli.command("gen-corpus")
@click.option("--problems", type=int, default=3, show_default=True)
@click.option("--pop", type=int, default=200, show_default=True)
@click.option("--gens", type=int, default=15, show_default=True)
@click.option("--features", type=int, default=4, show_default=True)
@click.option("--rows", type=int, default=200, show_default=True)
@click.option("--noise", type=float, default=0.1, show_default=True)
@click.option("--m-sem", type=int, default=100, show_default=True)
@click.option("--out", type=click.Path(), default="corpus.jsonl",
              show_default=True)
@click.pass_context
def gen_corpus(ctx, problems, pop, gens, features, rows, noise, m_sem, out):
    """Harvest functions from synthetic problems into a semantics-annotated
    corpus (one JSON object per line)."""
    import numpy as np
    from .corpus import build_corpus, write_corpus_jsonl
    from .stdgp import GPConfig, DOUBLE_TOURNAMENT

    cfg = _resolved(ctx, problems=problems, pop=pop, gens=gens,
                    features=features, rows=rows, noise=noise, m_sem=m_sem)
    _check_min(cfg, problems=1, m_sem=2)
    _check_run_sizes(cfg)
    gp_config = GPConfig(pop_size=cfg["pop"], generations=cfg["gens"],
                         selection=DOUBLE_TOURNAMENT)
    rng = np.random.default_rng(ctx.obj["seed"])
    entries, _ = build_corpus(cfg["problems"], gp_config, d=cfg["features"],
                              m=cfg["rows"], noise_sigma=cfg["noise"],
                              m_sem=cfg["m_sem"], rng=rng)
    write_corpus_jsonl(entries, out)
    _write_manifest(out, "gen-corpus", cfg, ctx.obj["seed"], [], ctx.obj)
    click.echo(f"wrote {len(entries)} corpus entries to {out}")


@cli.command("mine-pairs")
@click.option("--corpus", "corpus_path", type=click.Path(exists=True),
              required=True)
@click.option("--k", type=int, default=3, show_default=True)
@click.option("--sd-max", type=float, default=100.0, show_default=True)
@click.option("--max-len", type=int, default=100, show_default=True)
@click.option("--ivf-clusters", type=int, default=0,
              help="Use an IVF index with this many clusters (0 = brute force).")
@click.option("--n-probe", type=int, default=None)
@click.option("--out", type=click.Path(), default="pairs.jsonl",
              show_default=True)
@click.pass_context
def mine_pairs_cmd(ctx, corpus_path, k, sd_max, max_len, ivf_clusters,
                   n_probe, out):
    """Mine semantically similar training pairs from a corpus."""
    import numpy as np
    from .corpus import (read_corpus_jsonl, mine_pairs, build_ivf_index,
                         write_pairs_jsonl)

    cfg = _resolved(ctx, k=k, sd_max=sd_max, max_len=max_len,
                    ivf_clusters=ivf_clusters, n_probe=n_probe)
    _check_min(cfg, k=1)
    if cfg["n_probe"] is not None:
        _check_min(cfg, n_probe=1)
    entries = read_corpus_jsonl(corpus_path)
    if not 0 <= cfg["ivf_clusters"] <= len(entries):
        raise click.UsageError(f"--ivf-clusters must be in 0..{len(entries)} "
                               "(the corpus size)")
    index = None
    if cfg["ivf_clusters"]:
        index = build_ivf_index(entries, cfg["ivf_clusters"],
                                np.random.default_rng(ctx.obj["seed"]))
    pairs, dropped = mine_pairs(entries, cfg["k"], cfg["sd_max"],
                                cfg["max_len"], index=index,
                                n_probe=cfg["n_probe"])
    write_pairs_jsonl(pairs, out)
    _write_manifest(out, "mine-pairs", cfg, ctx.obj["seed"],
                    [corpus_path], ctx.obj)
    click.echo(f"wrote {len(pairs)} pairs to {out} "
               f"({dropped} dropped for length)")


@cli.command("train")
@click.option("--pairs", "pairs_path", type=click.Path(exists=True),
              required=True)
@click.option("--epochs", type=int, default=8, show_default=True)
@click.option("--lr", type=float, default=1e-3, show_default=True)
@click.option("--d-model", type=int, default=128, show_default=True)
@click.option("--n-heads", type=int, default=8, show_default=True)
@click.option("--layers", type=int, default=2, show_default=True,
              help="Encoder and decoder stack depth.")
@click.option("--batch-size", type=int, default=32, show_default=True)
@click.option("--weight-decay", type=float, default=0.01, show_default=True)
@click.option("--features", type=int, default=4, show_default=True)
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

    cfg = _resolved(ctx, epochs=epochs, lr=lr, d_model=d_model,
                    n_heads=n_heads, layers=layers, batch_size=batch_size,
                    weight_decay=weight_decay, features=features)
    _check_min(cfg, epochs=1, batch_size=1, d_model=1, n_heads=1)
    if cfg["d_model"] % cfg["n_heads"] or cfg["d_model"] % 2:
        raise click.UsageError("--d-model must be even and a multiple of "
                               f"--n-heads ({cfg['n_heads']})")
    pairs = read_pairs_jsonl(pairs_path)
    hyper = Hyperparams(d_model=cfg["d_model"], n_heads=cfg["n_heads"],
                        n_encoder_layers=cfg["layers"],
                        n_decoder_layers=cfg["layers"],
                        lr=cfg["lr"], epochs=cfg["epochs"],
                        batch_size=cfg["batch_size"],
                        weight_decay=cfg["weight_decay"])
    vocab = Vocabulary.from_primitives(PrimitiveSet(cfg["features"]))
    model, loss_curve = train(pairs, hyper, vocab, seed=ctx.obj["seed"])
    save_checkpoint(model, out)
    if curve:
        with open(curve, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["step", "loss"])
            w.writerows((s, repr(l)) for s, l in loss_curve)
    _write_manifest(out, "train", cfg, ctx.obj["seed"], [pairs_path], ctx.obj)
    click.echo(f"trained on {len(pairs)} pairs, final loss "
               f"{loss_curve[-1][1]:.4f}, checkpoint at {out}")


def _load_dataset(ctx, data, target, synthetic, rows, noise, features,
                  split_seed):
    import numpy as np
    from .bench import load_csv, make_dataset
    from .corpus import gen_synthetic_problem

    if synthetic:
        rng = np.random.default_rng(split_seed)
        problem = gen_synthetic_problem(features, rows, noise, rng)
        return make_dataset("synthetic", problem.X, problem.y, split_seed)
    if not data:
        raise click.UsageError("need --data CSV or --synthetic")
    return load_csv(data, target, split_seed)


@cli.command("search")
@click.option("--method", type=click.Choice(["tsgp", "stdgp", "slim"]),
              required=True)
@click.option("--model", "model_path", type=click.Path(exists=True),
              default=None, help="Checkpoint (required for tsgp).")
@click.option("--data", type=click.Path(exists=True), default=None)
@click.option("--target", default="target", show_default=True)
@click.option("--synthetic", is_flag=True,
              help="Search on a fresh seeded synthetic problem.")
@click.option("--rows", type=int, default=200, show_default=True)
@click.option("--noise", type=float, default=0.1, show_default=True)
@click.option("--features", type=int, default=4, show_default=True)
@click.option("--sdd", type=float, default=0.1, show_default=True,
              help="Desired semantic distance fed to the transformer.")
@click.option("--pop", type=int, default=100, show_default=True)
@click.option("--gens", type=int, default=50, show_default=True)
@click.option("--out", type=click.Path(), default="run", show_default=True)
@click.pass_context
def search_cmd(ctx, method, model_path, data, target, synthetic, rows, noise,
               features, sdd, pop, gens, out):
    """Run one seeded search and write its trace CSVs."""
    from .bench import run_method
    from .trace import write_trace_csv, write_variation_csv

    cfg = _resolved(ctx, method=method, data=data, target=target,
                    synthetic=synthetic, rows=rows, noise=noise,
                    features=features, sdd=sdd, pop=pop, gens=gens)
    _check_run_sizes(cfg, rows_used=cfg["synthetic"])
    model = None
    inputs = []
    if cfg["method"] == "tsgp":
        if not model_path:
            raise click.UsageError("--method tsgp requires --model")
        from .model import load_checkpoint
        model = load_checkpoint(model_path)
        inputs.append(model_path)
    if data:
        inputs.append(data)
    dataset = _load_dataset(ctx, cfg["data"], cfg["target"], cfg["synthetic"],
                            cfg["rows"], cfg["noise"], cfg["features"],
                            ctx.obj["seed"])
    trace = run_method(cfg["method"], dataset, ctx.obj["seed"],
                       generations=cfg["gens"], pop_size=cfg["pop"],
                       model=model, sd_desired=cfg["sdd"])
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trace_csv(trace, out_dir / "trace.csv")
    write_variation_csv(trace, out_dir / "variations.csv")
    _write_manifest(out_dir, "search", cfg, ctx.obj["seed"], inputs, ctx.obj)
    click.echo(f"{cfg['method']}: final train best "
               f"{trace.generations[-1].best_train_rmse:.4f}, "
               f"test {trace.final_best_test_rmse:.4f}, traces in {out_dir}")


@cli.command("bench")
@click.option("--methods", default="tsgp,stdgp,slim", show_default=True)
@click.option("--model", "model_path", type=click.Path(exists=True),
              default=None)
@click.option("--data", type=click.Path(exists=True), default=None)
@click.option("--target", default="target", show_default=True)
@click.option("--synthetic", is_flag=True)
@click.option("--rows", type=int, default=200, show_default=True)
@click.option("--noise", type=float, default=0.1, show_default=True)
@click.option("--features", type=int, default=4, show_default=True)
@click.option("--runs", type=int, default=30, show_default=True)
@click.option("--sdd", type=float, default=0.1, show_default=True)
@click.option("--pop", type=int, default=100, show_default=True)
@click.option("--gens", type=int, default=50, show_default=True)
@click.option("--probe/--no-probe", default=True, show_default=True,
              help="Also run the variation-distance replication probe.")
@click.option("--out", type=click.Path(), default="bench_out",
              show_default=True)
@click.pass_context
def bench_cmd(ctx, methods, model_path, data, target, synthetic, rows, noise,
              features, runs, sdd, pop, gens, probe, out):
    """Multi-run orchestration: results, per-generation series and pairwise
    statistics CSVs, one row set per method."""
    from .bench import (aggregate_runs, run_method, variation_probe,
                        write_results_csv, write_series_csv, write_stats_csv)
    from .trace import write_trace_csv, write_variation_csv

    method_list = [m.strip() for m in methods.split(",") if m.strip()]
    cfg = _resolved(ctx, methods=methods, data=data, target=target,
                    synthetic=synthetic, rows=rows, noise=noise,
                    features=features, runs=runs, sdd=sdd, pop=pop, gens=gens)
    if cfg["runs"] < 1:
        raise click.UsageError("--runs must be >= 1")
    _check_run_sizes(cfg, rows_used=cfg["synthetic"])
    model = None
    inputs = [p for p in (model_path, data) if p]
    if "tsgp" in method_list:
        if not model_path:
            raise click.UsageError("benching tsgp requires --model")
        from .model import load_checkpoint
        model = load_checkpoint(model_path)

    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    traces_by_method = {}
    all_traces = []
    dataset_name = None
    for method in method_list:
        traces = []
        for r in range(cfg["runs"]):
            seed = ctx.obj["seed"] * 10_000 + r
            dataset = _load_dataset(ctx, cfg["data"], cfg["target"],
                                    cfg["synthetic"], cfg["rows"],
                                    cfg["noise"], cfg["features"], seed)
            dataset_name = dataset.name
            trace = run_method(method, dataset, seed, generations=cfg["gens"],
                               pop_size=cfg["pop"], model=model,
                               sd_desired=cfg["sdd"])
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
        dataset = _load_dataset(ctx, cfg["data"], cfg["target"],
                                cfg["synthetic"], cfg["rows"], cfg["noise"],
                                cfg["features"], ctx.obj["seed"])
        report = variation_probe(model, dataset, n_parents=cfg["pop"],
                                 seed=ctx.obj["seed"], sd_desired=cfg["sdd"])
        (out_dir / "probe.json").write_text(
            json.dumps(report, indent=2) + "\n")
        click.echo(f"variation probe: tsgp median SD "
                   f"{report['tsgp_median_sd']:.4f} vs subtree mutation "
                   f"{report['stdgp_mutation_median_sd']:.4f} "
                   f"(p={report['wilcoxon_p']:.4f})")
    _write_manifest(out_dir, "bench", cfg, ctx.obj["seed"], inputs, ctx.obj)
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
@click.option("--model", "model_path", type=click.Path(exists=True),
              required=True)
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
        raise NumericFailure("verification failed")
    click.echo("verify-model: all checks passed")


class NumericFailure(Exception):
    pass


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping."""
    from .bench import BenchError
    from .expr import ExprError
    from .model import (BadMagicError, ManifestMismatchError,
                        NonFiniteLossError, TruncatedError)
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
    except (BenchError, ExprError, BadMagicError, ManifestMismatchError,
            TruncatedError, FileNotFoundError, json.JSONDecodeError) as e:
        click.echo(f"data error: {e}", err=True)
        return 2
    except (NonFiniteLossError, NumericFailure, FloatingPointError) as e:
        click.echo(f"numeric failure: {e}", err=True)
        return 3


if __name__ == "__main__":
    sys.exit(main())
