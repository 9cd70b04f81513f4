import csv
import json
import math
import struct
from types import SimpleNamespace

import pytest

from tsgp.cli import STRICT_FLOAT, STRICT_INT, Above, AtLeast, cli, main
from tsgp.corpus import read_pairs_jsonl
from tsgp.expr import PrimitiveSet
from tsgp.model import Vocabulary

CANONICAL_VOCAB = list(Vocabulary.from_primitives(PrimitiveSet(1)).symbols)


def _with_header(model_file, bad, edit):
    """Write to ``bad`` the checkpoint ``model_file`` with its JSON header
    changed by ``edit``; returns ``bad``."""
    from tsgp.model.checkpoint import MAGIC
    blob = model_file.read_bytes()
    (hlen,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + hlen])
    edit(header)
    raw = json.dumps(header).encode()
    bad.write_bytes(MAGIC + struct.pack("<I", len(raw)) + raw
                    + blob[12 + hlen:])
    return bad


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def corpus_file(workdir):
    path = workdir / "corpus.jsonl"
    rc = main(["--seed", "1", "gen-corpus", "--problems", "1", "--pop", "20",
               "--gens", "2", "--out", str(path)])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def pairs_file(workdir, corpus_file):
    path = workdir / "pairs.jsonl"
    rc = main(["--seed", "1", "mine-pairs", "--corpus", str(corpus_file),
               "--k", "2", "--out", str(path)])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def model_file(workdir, pairs_file):
    path = workdir / "model.tsgp"
    rc = main(["--seed", "1", "train", "--pairs", str(pairs_file),
               "--epochs", "1", "--d-model", "16", "--n-heads", "2",
               "--layers", "1", "--out", str(path),
               "--curve", str(workdir / "curve.csv")])
    assert rc == 0
    return path


class TestPipeline:
    def test_corpus_and_manifest(self, corpus_file):
        assert corpus_file.exists()
        manifest = json.loads(
            (corpus_file.parent / "corpus.jsonl.manifest.json").read_text())
        assert manifest["subcommand"] == "gen-corpus"
        assert manifest["seed"] == 1
        assert manifest["config"]["problems"] == 1

    def test_pairs_invariants(self, pairs_file):
        pairs = read_pairs_jsonl(pairs_file)
        assert pairs
        assert all(0.0 < p.sd < 100.0 for p in pairs)
        manifest = json.loads(
            (pairs_file.parent / "pairs.jsonl.manifest.json").read_text())
        assert str(pairs_file.parent / "corpus.jsonl") in manifest["inputs"]

    def test_train_outputs(self, model_file, workdir):
        assert model_file.read_bytes()[:8] == b"TSGPMDL1"
        with open(workdir / "curve.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and "loss" in rows[0]

    def test_search_stdgp(self, workdir):
        out = workdir / "run_stdgp"
        rc = main(["--seed", "2", "search", "--method", "stdgp", "--synthetic",
                   "--pop", "10", "--gens", "2", "--out", str(out)])
        assert rc == 0
        with open(out / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3  # generations 0..2
        assert (out / "variations.csv").exists()
        assert (out / "manifest.json").exists()

    def test_search_tsgp_with_model(self, workdir, model_file):
        out = workdir / "run_tsgp"
        rc = main(["--seed", "2", "search", "--method", "tsgp", "--model",
                   str(model_file), "--synthetic", "--pop", "8", "--gens", "2",
                   "--out", str(out)])
        assert rc == 0
        assert (out / "trace.csv").exists()

    def test_verify_model(self, model_file):
        assert main(["verify-model", "--model", str(model_file)]) == 0


class TestExitCodes:
    def test_usage_error_bad_problems(self, workdir):
        assert main(["gen-corpus", "--problems", "0",
                     "--out", str(workdir / "x.jsonl")]) == 1

    def test_usage_error_missing_file(self):
        assert main(["mine-pairs", "--corpus", "no_such_file.jsonl"]) == 1

    def test_usage_error_search_needs_data(self):
        assert main(["search", "--method", "stdgp"]) == 1

    def test_usage_error_tsgp_needs_model(self):
        assert main(["search", "--method", "tsgp", "--synthetic"]) == 1

    @pytest.mark.parametrize("args", [
        ["gen-corpus", "--pop", "0"],
        ["gen-corpus", "--gens", "-1"],
        ["gen-corpus", "--rows", "9"],
        ["search", "--method", "stdgp", "--synthetic", "--pop", "0"],
        ["search", "--method", "stdgp", "--synthetic", "--gens", "-1"],
        ["search", "--method", "stdgp", "--synthetic", "--rows", "9"],
        ["bench", "--methods", "stdgp", "--synthetic", "--pop", "0"],
        ["bench", "--methods", "stdgp", "--synthetic", "--gens", "-1"],
        ["bench", "--methods", "stdgp", "--synthetic", "--rows", "9"],
    ], ids=lambda a: " ".join(a))
    def test_usage_error_bad_run_size(self, workdir, capsys, args):
        out = workdir / "bad_size"
        assert main(args + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {args[-2]} must be >= ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["gen-corpus", "--m-sem", "0"],
        ["gen-corpus", "--features", "0"],
        ["mine-pairs", "--corpus", "CORPUS", "--k", "0"],
        ["mine-pairs", "--corpus", "CORPUS", "--ivf-clusters", "5000"],
        ["mine-pairs", "--corpus", "CORPUS", "--ivf-clusters", "-1"],
        ["mine-pairs", "--corpus", "CORPUS", "--ivf-clusters", "4",
         "--n-probe", "0"],
        ["mine-pairs", "--corpus", "CORPUS", "--max-len", "0"],
        ["mine-pairs", "--corpus", "CORPUS", "--sd-max", "0"],
        ["mine-pairs", "--corpus", "CORPUS", "--sd-max", "-1"],
        ["train", "--pairs", "PAIRS", "--epochs", "0"],
        ["train", "--pairs", "PAIRS", "--batch-size", "0"],
        ["train", "--pairs", "PAIRS", "--n-heads", "8", "--d-model", "30"],
        ["train", "--pairs", "PAIRS", "--n-heads", "0"],
        ["train", "--pairs", "PAIRS", "--layers", "0"],
        ["train", "--pairs", "PAIRS", "--lr", "-1"],
        ["train", "--pairs", "PAIRS", "--lr", "0"],
        ["train", "--pairs", "PAIRS", "--weight-decay", "-5"],
        ["train", "--pairs", "PAIRS", "--features", "-2"],
        ["gen-corpus", "--noise", "-1"],
        ["search", "--method", "stdgp", "--synthetic", "--noise", "-1"],
        ["bench", "--methods", "stdgp", "--synthetic", "--noise", "-1"],
        ["search", "--method", "stdgp", "--synthetic", "--features", "0"],
        ["bench", "--methods", "stdgp", "--synthetic", "--features", "0"],
    ], ids=lambda a: " ".join(a))
    def test_usage_error_bad_size(self, workdir, capsys, corpus_file,
                                  pairs_file, args):
        paths = {"CORPUS": str(corpus_file), "PAIRS": str(pairs_file)}
        out = workdir / "bad_input"
        assert main([paths.get(a, a) for a in args]
                    + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {args[-2]} must be ")
        assert "Traceback" not in err
        assert not list(workdir.glob("bad_input*"))

    def test_usage_error_n_probe_without_ivf(self, workdir, capsys,
                                             corpus_file):
        out = workdir / "probe_pairs.jsonl"
        assert main(["mine-pairs", "--corpus", str(corpus_file),
                     "--n-probe", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --n-probe needs --ivf-clusters")
        assert "Traceback" not in err
        assert not out.exists()

    def test_data_error_corrupt_pairs(self, workdir):
        bad = workdir / "bad.jsonl"
        bad.write_text("{not json\n")
        assert main(["train", "--pairs", str(bad)]) == 2

    def test_data_error_pairs_outside_vocabulary(self, workdir, pairs_file,
                                                 capsys):
        out = workdir / "few_features.tsgp"
        assert main(["train", "--pairs", str(pairs_file), "--features", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert "outside the vocabulary of --features 1: v2" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_data_error_non_finite_csv(self, workdir):
        bad = workdir / "nan.csv"
        rows = [f"{i * 0.1:.1f},{i * 0.2:.1f}" for i in range(30)]
        rows[3] = "0.3,nan"
        bad.write_text("x,target\n" + "\n".join(rows) + "\n")
        assert main(["search", "--method", "stdgp", "--data", str(bad),
                     "--pop", "10", "--gens", "1",
                     "--out", str(workdir / "nan_run")]) == 2

    @pytest.mark.parametrize("rows", [
        [], ["x,target"] + [f"{i},1.0" for i in range(30)],
        ["x,y,target"] + [f"{i},{i % 7}" for i in range(30)],
        ["target"] + [f"{i % 7}" for i in range(30)],
        ["x,target,target"] + [f"{i},{i % 7},{i % 7}" for i in range(30)],
        ["x\xe9,target"] + [f"{i},{i % 7}" for i in range(30)]],
        ids=["empty", "constant column", "rows narrower than header",
             "no feature column", "repeated column", "not UTF-8"])
    def test_data_error_bad_csv(self, tmp_path, capsys, rows):
        bad = tmp_path / "bad.csv"
        bad.write_bytes("".join(r + "\n" for r in rows).encode("latin-1"))
        out = tmp_path / "out"
        assert main(["search", "--method", "stdgp", "--data", str(bad),
                     "--pop", "10", "--gens", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_data_error_bad_checkpoint(self, workdir):
        bad = workdir / "bad.tsgp"
        bad.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        assert main(["verify-model", "--model", str(bad)]) == 2

    def test_data_error_header_without_vocabulary(self, workdir, model_file):
        bad = _with_header(model_file, workdir / "novocab.tsgp",
                           lambda h: h.pop("vocabulary"))
        assert main(["verify-model", "--model", str(bad)]) == 2

    @pytest.mark.parametrize("edit", [
        lambda h: h.update(sd_conditioning="cross-attention-token"),
        lambda h: h.pop("sd_conditioning")], ids=["other scheme", "missing"])
    def test_data_error_sd_conditioning(self, tmp_path, capsys, model_file,
                                        edit):
        bad = _with_header(model_file, tmp_path / "bad.tsgp", edit)
        assert main(["verify-model", "--model", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: malformed header: ")
        assert "sd_conditioning" in err and "Traceback" not in err

    @pytest.mark.parametrize("hyper,vocab", [
        ({"d_model": 9, "n_heads": 3}, CANONICAL_VOCAB),
        ({"d_model": 8, "n_heads": 2}, ["ADD", "v1"]),
        ({"d_model": 8, "n_heads": 2},
         ["<pad>", "<bos>", "<eos>", "v1", "C+0.1"])],
        ids=["odd d_model", "no specials", "no operators"])
    def test_data_error_consistent_checkpoint(self, tmp_path, capsys, hyper,
                                              vocab):
        """Hand-built checkpoints whose tensors have exactly the shapes their
        own header implies."""
        from tsgp.model.checkpoint import MAGIC
        from tsgp.model.transformer import param_spec
        hyper = dict(hyper, n_encoder_layers=1, n_decoder_layers=1,
                     ffn_dim=4 * hyper["d_model"])
        spec = param_spec(SimpleNamespace(**hyper), len(vocab))
        tensors, offset = [], 0
        for name in sorted(spec):
            shape = list(spec[name][0])
            tensors.append({"name": name, "shape": shape, "offset": offset})
            offset += 4 * math.prod(shape)
        raw = json.dumps({"hyperparams": hyper, "vocabulary": vocab,
                          "tensors": tensors}).encode()
        weights = struct.pack(f"<{offset // 4}f", *[0.1] * (offset // 4))
        bad = tmp_path / "bad.tsgp"
        bad.write_bytes(MAGIC + struct.pack("<I", len(raw)) + raw + weights)
        assert main(["verify-model", "--model", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: malformed header: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,content", [
        ("mine-pairs", ""),
        ("mine-pairs", '{"id": 0, "tokens": ["v1"], "semantics": [1.0]}\n'),
        ("mine-pairs", "[1, 2]\n"),
        ("mine-pairs", '{"id": 0, "problem_id": 0, "tokens": ["v1"], '
                       '"semantics": ["a"]}\n'),
        ("mine-pairs", '{"id": 0, "problem_id": 0, "tokens": ["v1"], '
                       '"semantics": [1.0, 2.0]}\n'
                       '{"id": 1, "problem_id": 0, "tokens": ["v2"], '
                       '"semantics": [1.0]}\n'),
        ("mine-pairs", '{"id": 0, "problem_id": 0, "tokens": ["v1"], '
                       '"semantics": [NaN, 1.0]}\n'),
        ("mine-pairs", '{"id": 0, "problem_id": 0, "tokens": ["v1"], '
                       '"semantics": []}\n'),
        ("mine-pairs", '{"id": 0, "problem_id": 0, "tokens": ["v1"], '
                       '"semantics": [1.0]}\n'
                       '{"id": 0, "problem_id": 0, "tokens": ["v2"], '
                       '"semantics": [2.0]}\n'),
        ("mine-pairs", '{"id": "a", "problem_id": 0, "tokens": ["v1"], '
                       '"semantics": [1.0]}\n'),
        ("mine-pairs", '{"id": 0, "problem_id": 0, "tokens": "v1", '
                       '"semantics": [1.0]}\n'),
        ("mine-pairs", '{"id": 0, "problem_id": 0, "tokens": ["v1"], '
                       '"semantics": [1.0]}\n'),
        ("mine-pairs", '{"id": 0, "problem_id": 0, "tokens": ["v1"], '
                       '"semantics": [1.0, 2.0]}\n'
                       '{"id": 1, "problem_id": 0, "tokens": ["MUL", "v1", '
                       '"C+0.5"], "semantics": [1.0, 2.0]}\n'),
        ("train", ""),
        ("train", '{"input": ["v1"], "output": ["v2"]}\n'),
        ("train", '{"input": ["v1"], "output": ["v2"], "sd": "x"}\n'),
        ("train", '{"input": ["v1"], "output": ["v2"], "sd": null}\n'),
        ("train", '{"input": ["v1"], "output": ["v2"], "sd": NaN}\n'),
        ("train", '{"input": ["v1"], "output": ["v2"], "sd": -1.0}\n'),
        ("train", '{"input": ["v1"], "output": ["v2"], "sd": 1e999999}\n'),
        ("train", '{"input": ["v1"], "output": ["v2"], "sd": 10' + "0" * 400
                  + '}\n'),
        ("train", '{"input": "v1", "output": ["v2"], "sd": 0.5}\n'),
        ("train", '{"input": ["v1"], "output": [1], "sd": 0.5}\n'),
        ("train", '{"input": ["v1"], "output": ["v2"], "sd": 0.5}\n'
                  '{"input": ["v1"], "output": ' + json.dumps(["v2"] * 101)
                  + ', "sd": 0.5}\n'),
        ("mine-pairs", '{"id": 0, "problem_id": "\xe9", "tokens": ["v1"], '
                       '"semantics": [1.0]}\n'),
        ("train", '{"input": ["v1"], "output": ["v2"], "sd": 0.5}\n\xff\n'),
    ], ids=["empty corpus", "no problem_id", "list line",
            "non-numeric semantics", "semantics lengths differ",
            "non-finite semantics", "empty semantics", "duplicate ids",
            "string id", "string tokens", "one entry",
            "identical semantics", "no pairs", "no sd", "string sd",
            "null sd", "NaN sd", "negative sd", "infinite sd",
            "huge integer sd", "string input", "non-string output token",
            "output too long", "corpus not UTF-8", "pairs not UTF-8"])
    def test_data_error_bad_jsonl(self, tmp_path, capsys, command, content):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(content.encode("latin-1"))
        flag = "--corpus" if command == "mine-pairs" else "--pairs"
        out = tmp_path / "out"
        assert main([command, flag, str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {bad}")
        assert "Traceback" not in err
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("max_len", [-5, 1.5])
    def test_data_error_header_bad_max_len(self, tmp_path, capsys, model_file,
                                           max_len):
        bad = _with_header(
            model_file, tmp_path / "bad_max_len.tsgp",
            lambda h: h["hyperparams"].update(max_len=max_len))
        assert main(["verify-model", "--model", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: malformed header: ")
        assert "max_len" in err

    @pytest.mark.parametrize("methods", ["foo", "stdgp,foo", ",", ""])
    def test_usage_error_bad_methods(self, tmp_path, capsys, methods):
        out = tmp_path / "bench_out"
        assert main(["bench", "--methods", methods, "--synthetic", "--runs",
                     "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --methods must list some of ")
        assert not out.exists()

    def test_usage_error_bench_needs_data(self, tmp_path, capsys):
        out = tmp_path / "bench_out"
        assert main(["bench", "--methods", "stdgp", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: need --data CSV or --synthetic")
        assert not out.exists()

    def test_usage_error_threads_below_one(self, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        assert main(["--threads", "0", "gen-corpus", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: --threads must be >= 1")
        assert not out.exists()

    def test_usage_error_directory_as_input_file(self, tmp_path, capsys):
        assert main(["mine-pairs", "--corpus", str(tmp_path)]) == 1
        assert "is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["search", "--method", "stdgp"],
                                         ["bench", "--methods", "stdgp"]],
                             ids=["search", "bench"])
    def test_usage_error_out_names_a_file(self, tmp_path, capsys, command):
        out = tmp_path / "taken"
        out.write_text("keep\n")
        assert main(command + ["--synthetic", "--pop", "5", "--gens", "1",
                               "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Invalid value for '--out': ")
        assert "is a file" in err and "Traceback" not in err
        assert out.read_text() == "keep\n"

    def test_data_error_config_not_utf8(self, tmp_path, capsys, corpus_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"k": "\xff"}')
        out = tmp_path / "p.jsonl"
        assert main(["--config", str(cfg), "mine-pairs", "--corpus",
                     str(corpus_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: --config {cfg} is not UTF-8")
        assert "Traceback" not in err
        assert not list(tmp_path.glob("p.jsonl*"))


# The smallest valid invocation of each subcommand that has bounded options.
BASE_ARGS = {
    "gen-corpus": [],
    "mine-pairs": ["--corpus", "CORPUS"],
    "train": ["--pairs", "PAIRS"],
    "search": ["--method", "stdgp", "--synthetic"],
    "bench": ["--methods", "stdgp", "--synthetic"],
}
BOUNDED = [(name, param) for name, command in cli.commands.items()
           for param in command.params if isinstance(param.type, AtLeast)]
INTEGER = [(name, param) for name, command in cli.commands.items()
           for param in command.params
           if STRICT_INT in (param.type, getattr(param.type, "base", None))]
FLOAT = [(name, param) for name, command in cli.commands.items()
         for param in command.params
         if STRICT_FLOAT in (param.type, getattr(param.type, "base", None))]
RUN_OPTIONS = {"model_path", "data", "target", "synthetic", "rows", "noise",
               "features", "sdd", "pop", "gens"}


class TestOptionLayer:
    @pytest.mark.parametrize("via_config", [False, True],
                             ids=["flag", "config"])
    @pytest.mark.parametrize("command,param", BOUNDED,
                             ids=[f"{c} {p.opts[0]}" for c, p in BOUNDED])
    def test_below_bound_is_usage_error(self, tmp_path, capsys, corpus_file,
                                        pairs_file, command, param,
                                        via_config):
        paths = {"CORPUS": str(corpus_file), "PAIRS": str(pairs_file)}
        low = param.type.low
        # An exclusive bound is checked at the bound itself, the one value
        # that tells it from an inclusive one.
        exclusive = isinstance(param.type, Above)
        rel, bad = (">", low) if exclusive else (">=", low - 1)
        args = ([paths.get(a, a) for a in BASE_ARGS[command]]
                + ["--out", str(tmp_path / "out")])
        if via_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({param.name: bad}))
            argv = ["--config", str(cfg), command] + args
        else:
            argv = [command] + args + [param.opts[0], str(bad)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {param.opts[0]} must be {rel} {low}\n")
        assert "Traceback" not in err
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("config", [{"k": "abc"}, [1, 2], "k"],
                             ids=["wrong type", "list", "string"])
    def test_bad_config_is_usage_error(self, tmp_path, capsys, corpus_file,
                                       config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "p.jsonl"
        assert main(["--config", str(cfg), "mine-pairs", "--corpus",
                     str(corpus_file), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not list(tmp_path.glob("p.jsonl*"))

    @pytest.mark.parametrize("value", [1.5, True], ids=["1.5", "true"])
    @pytest.mark.parametrize("command,param", INTEGER,
                             ids=[f"{c} {p.opts[0]}" for c, p in INTEGER])
    def test_config_integer_is_strict(self, tmp_path, capsys, corpus_file,
                                      pairs_file, command, param, value):
        paths = {"CORPUS": str(corpus_file), "PAIRS": str(pairs_file)}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({param.name: value}))
        assert main(["--config", str(cfg), command]
                    + [paths.get(a, a) for a in BASE_ARGS[command]]
                    + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: Invalid value for '{param.opts[0]}': "
                              f"{value!r} is not a valid integer.")
        assert "Traceback" not in err
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("via_config", [False, True],
                             ids=["flag", "config"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    @pytest.mark.parametrize("command,param", FLOAT,
                             ids=[f"{c} {p.opts[0]}" for c, p in FLOAT])
    def test_float_must_be_finite(self, tmp_path, capsys, corpus_file,
                                  pairs_file, command, param, value,
                                  via_config):
        paths = {"CORPUS": str(corpus_file), "PAIRS": str(pairs_file)}
        args = ([paths.get(a, a) for a in BASE_ARGS[command]]
                + ["--out", str(tmp_path / "out")])
        if via_config:  # Python's json reads NaN and Infinity
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({param.name: value}))
            argv = ["--config", str(cfg), command] + args
        else:
            argv = [command] + args + [param.opts[0], str(value)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: Invalid value for '{param.opts[0]}': "
                              f"{value!r} is not a finite number.")
        assert "Traceback" not in err
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("command,param", FLOAT,
                             ids=[f"{c} {p.opts[0]}" for c, p in FLOAT])
    def test_config_float_is_strict(self, tmp_path, capsys, corpus_file,
                                    pairs_file, command, param):
        paths = {"CORPUS": str(corpus_file), "PAIRS": str(pairs_file)}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({param.name: True}))
        assert main(["--config", str(cfg), command]
                    + [paths.get(a, a) for a in BASE_ARGS[command]]
                    + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: Invalid value for '{param.opts[0]}': "
                              "True is not a valid float.")
        assert "Traceback" not in err
        assert not list(tmp_path.glob("out*"))

    def test_search_and_bench_share_run_options(self):
        def options(name):
            return {p.name: (p.to_info_dict(), getattr(p.type, "low", None))
                    for p in cli.commands[name].params}
        search, bench = options("search"), options("bench")
        assert set(search) - {"method", "out"} == RUN_OPTIONS
        assert set(bench) - {"methods", "runs", "probe", "out"} == RUN_OPTIONS
        assert all(search[n] == bench[n] for n in RUN_OPTIONS)


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, workdir, corpus_file):
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({"k": 1, "sd_max": 50.0}))
        out = workdir / "p_cfg.jsonl"
        rc = main(["--config", str(cfg), "mine-pairs", "--corpus",
                   str(corpus_file), "--sd-max", "75.0", "--out", str(out)])
        assert rc == 0
        manifest = json.loads(
            (workdir / "p_cfg.jsonl.manifest.json").read_text())
        assert manifest["config"]["k"] == 1        # from config file
        assert manifest["config"]["sd_max"] == 75.0  # flag wins

    @pytest.mark.parametrize("config,message", [
        ({"kk": 5}, "'kk' names no option of mine-pairs"),
        ({"k": 2, "epochs": 3}, "'epochs' names no option of mine-pairs"),
        ({"seed": 3, "threads": 1},
         "'seed' is a global option; pass it as the flag --seed"),
        ({"deterministic": True},
         "'deterministic' is a global option; pass it as the flag "
         "--deterministic"),
    ], ids=["typo", "other subcommand", "seed and threads", "deterministic"])
    def test_unknown_key_is_usage_error(self, tmp_path, capsys, corpus_file,
                                        config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "p.jsonl"
        assert main(["--config", str(cfg), "mine-pairs", "--corpus",
                     str(corpus_file), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --config {cfg}: {message}")
        assert "Traceback" not in err
        assert not list(tmp_path.glob("p.jsonl*"))

    def test_config_value_recorded_in_manifest(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synthetic": True, "pop": 7, "gens": 1}))
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "search", "--method", "stdgp",
                     "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["synthetic"], config["pop"], config["gens"]) == (
            True, 7, 1)
        assert config["method"] == "stdgp"
        with open(out / "trace.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 2
