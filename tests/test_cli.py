import csv
import json
import math
import struct
from types import SimpleNamespace

import click
import pytest

from tsgp.cli import Above, AtLeast, cli, main
from tsgp.corpus import read_pairs_jsonl
from tsgp.expr import PrimitiveSet
from tsgp.model import Vocabulary

CANONICAL_VOCAB = list(Vocabulary.from_primitives(PrimitiveSet(1)).symbols)


def _no_network(*args, **kwargs):
    raise AssertionError("opened a URL")


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

    @pytest.mark.parametrize("rows,message", [
        ([], "bad.csv is empty"),
        (["x,target"] + [f"{i},1.0" for i in range(30)],
         "column 'target' is constant"),
        (["a,target,b"] + [f"{i},{i % 7},3.0" for i in range(30)],
         "column 'b' is constant"),
        # 0.1 repeated has a population std of about 1e-17, not 0
        (["a,target,b"] + [f"{i},0.1,{i % 5}" for i in range(30)],
         "column 'target' is constant"),
        (["x,y,target"] + [f"{i},{i % 7}" for i in range(30)],
         "data row 1 has 2 cells"),
        (["target"] + [f"{i % 7}" for i in range(30)],
         "bad.csv has no feature column"),
        (["x,target,target"] + [f"{i},{i % 7},{i % 7}" for i in range(30)],
         "bad.csv repeats header column(s) 'target'"),
        (["x\xe9,target"] + [f"{i},{i % 7}" for i in range(30)],
         "bad.csv is not UTF-8 text")],
        ids=["empty", "constant column", "constant feature",
             "constant target of 0.1", "rows narrower than header",
             "no feature column", "repeated column", "not UTF-8"])
    def test_data_error_bad_csv(self, tmp_path, capsys, rows, message):
        bad = tmp_path / "bad.csv"
        bad.write_bytes("".join(r + "\n" for r in rows).encode("latin-1"))
        out = tmp_path / "out"
        assert main(["search", "--method", "stdgp", "--data", str(bad),
                     "--pop", "10", "--gens", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {message}")
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

    def test_data_error_header_integer_too_long(self, tmp_path, capsys,
                                                model_file):
        """An integer past Python's digit limit fails ``json.loads`` with a
        plain ValueError, not a JSONDecodeError."""
        from tsgp.model.checkpoint import MAGIC
        blob = model_file.read_bytes()
        (hlen,) = struct.unpack("<I", blob[8:12])
        header = blob[12:12 + hlen].decode()
        raw = header.replace('"d_model":16', '"d_model":' + "9" * 5001)
        assert len(raw) == hlen + 4999
        bad = tmp_path / "long_int.tsgp"
        bad.write_bytes(MAGIC + struct.pack("<I", len(raw)) + raw.encode()
                        + blob[12 + hlen:])
        assert main(["verify-model", "--model", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: unreadable header: ")
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("command", ["verify-model", "search"])
    @pytest.mark.parametrize("key,value", [
        ("max_len", 1), ("max_len", 3), ("max_len", 400), ("ffn_dim", 128)])
    def test_data_error_header_fixed_key(self, tmp_path, capsys, model_file,
                                         key, value, command):
        """The token budget and the FFN width (4 x d_model, here 64) are
        fixed: a header with another value is not a model that samples
        longer offspring."""
        bad = _with_header(model_file, tmp_path / "bad.tsgp",
                           lambda h: h["hyperparams"].update({key: value}))
        out = tmp_path / "run"
        args = {"verify-model": ["verify-model", "--model", str(bad)],
                "search": ["search", "--method", "tsgp", "--model", str(bad),
                           "--synthetic", "--pop", "4", "--gens", "1",
                           "--out", str(out)]}[command]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: malformed header: ")
        assert f"{key} must be " in err and "Traceback" not in err
        assert not out.exists()

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

    @pytest.mark.parametrize("command,option", [
        (["search", "--method", "stdgp", "--synthetic", "--pop", "5",
          "--gens", "1"], "--out"),
        (["bench", "--methods", "stdgp", "--synthetic", "--pop", "5",
          "--gens", "1"], "--out"),
        (["fetch-data", "192_vineyard"], "--cache"),
    ], ids=["search", "bench", "fetch-data"])
    def test_usage_error_out_names_a_file(self, tmp_path, capsys, command,
                                          option):
        out = tmp_path / "taken"
        out.write_text("keep\n")
        assert main(command + [option, str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: Invalid value for '{option}': ")
        assert "is a file" in err and "Traceback" not in err
        assert out.read_text() == "keep\n"

    @pytest.mark.parametrize("command,option", [
        (["gen-corpus", "--problems", "1", "--pop", "5", "--gens", "1"],
         "--out"),
        (["mine-pairs", "--corpus", "{corpus}"], "--out"),
        (["train", "--pairs", "{pairs}", "--epochs", "1"], "--out"),
        (["train", "--pairs", "{pairs}", "--epochs", "1",
          "--out", "{tmp}/model.tsgp"], "--curve"),
    ], ids=["gen-corpus", "mine-pairs", "train", "train-curve"])
    def test_usage_error_output_file_names_a_directory(
            self, tmp_path, capsys, corpus_file, pairs_file, command, option):
        taken = tmp_path / "taken"
        taken.mkdir()
        (taken / "keep").write_text("keep\n")
        args = [arg.format(corpus=corpus_file, pairs=pairs_file, tmp=tmp_path)
                for arg in command]
        assert main(args + [option, str(taken)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: Invalid value for '{option}': ")
        assert "is a directory" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["keep",
                                                                "taken"]
        assert (taken / "keep").read_text() == "keep\n"

    @pytest.mark.parametrize("features", [6, 2], ids=["more", "fewer"])
    @pytest.mark.parametrize("command", [["search", "--method", "tsgp"],
                                         ["bench", "--methods", "stdgp,tsgp"]],
                             ids=["search", "bench"])
    def test_data_error_model_and_data_features_differ(
            self, tmp_path, capsys, model_file, command, features):
        out = tmp_path / "out"
        assert main(command + ["--model", str(model_file), "--synthetic",
                               "--features", str(features), "--pop", "5",
                               "--gens", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {model_file} has 4 variables but "
                              f"the data has {features} features\n")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["../escaped", "/tmp/escaped", "a/b",
                                      "..", ".", "", "a\0b"])
    def test_usage_error_fetch_data_name_not_one_component(
            self, tmp_path, capsys, monkeypatch, name):
        monkeypatch.setattr("urllib.request.urlopen", _no_network)
        cache = tmp_path / "cache"
        assert main(["fetch-data", name, "--cache", str(cache)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: NAME must be a single path component, "
                              f"got {name!r}\n")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("content", ['{"k": 2', '{"k": 1' + "0" * 5000
                                         + "}"], ids=["not JSON",
                                                      "5001-digit integer"])
    def test_data_error_config_unreadable(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        assert main(["--config", str(cfg), "mine-pairs"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: --config {cfg}: ")
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

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
           if click.INT in (param.type, getattr(param.type, "base", None))]
FLOAT = [(name, param) for name, command in cli.commands.items()
         for param in command.params
         if click.FLOAT in (param.type, getattr(param.type, "base", None))]
RUN_OPTIONS = {"model_path", "data", "target", "synthetic", "rows", "noise",
               "features", "sdd", "pop", "gens"}
# Every parameter of the group and of each subcommand, by the name
# ``--config`` and the manifest use, with its flags. A new option is a new
# knob, so adding one means editing this on purpose.
SURFACE = {
    "tsgp": {"seed": "--seed", "threads": "--threads",
             "deterministic": "--deterministic", "config_path": "--config"},
    "gen-corpus": {"problems": "--problems", "pop": "--pop", "gens": "--gens",
                   "features": "--features", "rows": "--rows",
                   "noise": "--noise", "m_sem": "--m-sem", "out": "--out"},
    "mine-pairs": {"corpus_path": "--corpus", "k": "--k",
                   "sd_max": "--sd-max", "out": "--out"},
    "train": {"pairs_path": "--pairs", "epochs": "--epochs", "lr": "--lr",
              "d_model": "--d-model", "n_heads": "--n-heads",
              "layers": "--layers", "batch_size": "--batch-size",
              "weight_decay": "--weight-decay", "features": "--features",
              "out": "--out", "curve": "--curve"},
    "search": {"method": "--method", "model_path": "--model",
               "data": "--data", "target": "--target",
               "synthetic": "--synthetic", "rows": "--rows",
               "noise": "--noise", "features": "--features", "sdd": "--sdd",
               "pop": "--pop", "gens": "--gens", "out": "--out"},
    "bench": {"methods": "--methods", "model_path": "--model",
              "data": "--data", "target": "--target",
              "synthetic": "--synthetic", "rows": "--rows",
              "noise": "--noise", "features": "--features", "sdd": "--sdd",
              "pop": "--pop", "gens": "--gens", "runs": "--runs",
              "out": "--out"},
    "fetch-data": {"name": "name", "cache": "--cache"},
    "verify-model": {"model_path": "--model"},
}
# Options that mine-pairs and bench no longer have, each with a value its
# flag once took.
REMOVED = [("mine-pairs", "--max-len", "max_len", "50"),
           ("mine-pairs", "--ivf-clusters", "ivf_clusters", "4"),
           ("mine-pairs", "--n-probe", "n_probe", "2"),
           ("bench", "--probe", "probe", None),
           ("bench", "--no-probe", "probe", None)]
# Every option that takes a value, and every parameter of every subcommand.
VALUED = [(name, param) for name, command in cli.commands.items()
          for param in command.params
          if isinstance(param, click.Option) and not param.is_flag]
PARAMS = [(name, param) for name, command in cli.commands.items()
          for param in command.params]
# What each subcommand is given besides the option under test.
REQUIRED_ARGS = {
    "mine-pairs": ["--corpus", "CORPUS"],
    "train": ["--pairs", "PAIRS"],
    "search": ["--method", "stdgp"],
    "bench": ["--methods", "stdgp"],
    "fetch-data": ["192_vineyard"],
}


def _rejected(param, workdir):
    """A JSON value that ``param`` or its subcommand rejects before any work,
    with the entry in ``workdir`` that makes an output path unusable."""
    kind = param.type
    if isinstance(kind, AtLeast):
        return 1.5 if kind.base is click.INT else kind.low - 1
    if isinstance(kind, click.Path):
        if not kind.exists:  # an output path that names the wrong kind
            if kind.dir_okay:
                (workdir / "5").write_text("keep\n")
            else:
                (workdir / "5").mkdir()
            return 5
        return 1  # names no file
    return 5  # no such method; no such column, and no --data or --synthetic


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
                              f"{json.dumps(value)!r} is not a valid integer.")
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
                              "'true' is not a valid float.")
        assert "Traceback" not in err
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("command,param", VALUED,
                             ids=[f"{c} {p.opts[0]}" for c, p in VALUED])
    def test_config_value_parses_as_its_flag(
            self, tmp_path, capsys, monkeypatch, corpus_file, pairs_file,
            command, param):
        """A ``--config`` value fails exactly as its text does as the flag."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("urllib.request.urlopen", _no_network)
        value = _rejected(param, tmp_path)
        paths = {"CORPUS": str(corpus_file), "PAIRS": str(pairs_file)}
        args = [paths.get(a, a) for a in REQUIRED_ARGS.get(command, [])]
        if param.opts[0] in args:
            args = args[2:]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({param.name: value}))
        before = sorted(tmp_path.rglob("*"))
        outcomes = []
        for argv in ([command] + args + [param.opts[0], json.dumps(value)],
                     ["--config", str(cfg), command] + args):
            rc = main(argv)
            err = capsys.readouterr().err
            assert "Traceback" not in err
            outcomes.append((rc, err.splitlines()[0]))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] != 0
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("value", [[1], {"a": 1}, None],
                             ids=["list", "object", "null"])
    @pytest.mark.parametrize("command,param", PARAMS,
                             ids=[f"{c} {p.name}" for c, p in PARAMS])
    def test_config_value_must_be_scalar(self, tmp_path, capsys, command,
                                         param, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({param.name: value}))
        assert main(["--config", str(cfg), command]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --config {cfg}: {param.name!r} must "
                              "be a string, number or boolean\n")
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_surface_is_pinned(self):
        def surface(command):
            return {p.name: "/".join(p.opts + p.secondary_opts)
                    for p in command.params}
        assert {"tsgp": surface(cli)} | {
            name: surface(command) for name, command in cli.commands.items()
        } == SURFACE

    @pytest.mark.parametrize("via_config", [False, True],
                             ids=["flag", "config"])
    @pytest.mark.parametrize("command,flag,key,value", REMOVED,
                             ids=[f"{c} {f}" for c, f, _, _ in REMOVED])
    def test_removed_option_is_usage_error(self, tmp_path, capsys,
                                           corpus_file, command, flag, key,
                                           value, via_config):
        args = {"mine-pairs": ["--corpus", str(corpus_file)],
                "bench": ["--methods", "stdgp", "--synthetic", "--pop", "5",
                          "--gens", "1", "--runs", "1"]}[command]
        args += ["--out", str(tmp_path / "out")]
        if via_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: int(value) if value else True}))
            argv, message = (["--config", str(cfg), command] + args,
                             f"--config {cfg}: {key!r} names no option of "
                             f"{command}")
        else:
            argv = [command] + args + [flag] + ([value] if value else [])
            message = f"No such option '{flag}'"
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err
        assert not list(tmp_path.glob("out*"))

    def test_search_and_bench_share_run_options(self):
        def options(name):
            return {p.name: (p.to_info_dict(), getattr(p.type, "low", None))
                    for p in cli.commands[name].params}
        search, bench = options("search"), options("bench")
        assert set(search) - {"method", "out"} == RUN_OPTIONS
        assert set(bench) - {"methods", "runs", "out"} == RUN_OPTIONS
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

    @pytest.mark.parametrize("argv,config,message", [
        (["search", "--method", "stdgp", "--synthetic"], {"model_path": 1},
         "Invalid value for '--model': File '1' does not exist."),
        (["mine-pairs"], {"corpus_path": 0},
         "Invalid value for '--corpus': File '0' does not exist."),
        (["search", "--method", "stdgp", "--synthetic"], {"noise": None},
         "--config {cfg}: 'noise' must be a string, number or boolean"),
        (["train", "--pairs", "{pairs}"], {"lr": 10 ** 400},
         "Invalid value for '--lr': inf is not a finite number."),
    ], ids=["model_path 1", "corpus_path 0", "noise null",
            "lr 401 digits"])
    def test_config_value_of_the_wrong_kind(self, tmp_path, capsys,
                                            monkeypatch, pairs_file, argv,
                                            config, message):
        """Values that once raised a Python error from inside a run."""
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [arg.format(pairs=pairs_file) for arg in argv]
        assert main(["--config", str(cfg)] + argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message.format(cfg=cfg)}")
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_config_number_names_a_path_as_its_flag_does(self, tmp_path,
                                                         monkeypatch):
        """``{"out": 5}`` writes where ``--out 5`` writes."""
        args = ["search", "--method", "stdgp", "--synthetic", "--pop", "5",
                "--gens", "1"]
        for via_config, where in ((False, "flag"), (True, "config")):
            (tmp_path / where).mkdir()
            monkeypatch.chdir(tmp_path / where)
            if via_config:
                (tmp_path / "cfg.json").write_text(json.dumps({"out": 5}))
                argv = ["--config", str(tmp_path / "cfg.json")] + args
            else:
                argv = args + ["--out", "5"]
            assert main(argv) == 0
        for name in ("trace.csv", "variations.csv"):
            assert ((tmp_path / "flag" / "5" / name).read_bytes()
                    == (tmp_path / "config" / "5" / name).read_bytes())
        configs = [json.loads((tmp_path / w / "5" / "manifest.json")
                              .read_text())["config"]
                   for w in ("flag", "config")]
        assert configs[0] == configs[1] and configs[0]["out"] == "5"

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


# A small run of each subcommand that writes outputs, with the name of its
# --out.
REPLAYED = {
    "gen-corpus": (["gen-corpus", "--problems", "1", "--pop", "10",
                    "--gens", "1"], "corpus.jsonl"),
    "mine-pairs": (["mine-pairs", "--corpus", "CORPUS", "--k", "2"],
                   "pairs.jsonl"),
    "train": (["train", "--pairs", "PAIRS", "--epochs", "1", "--d-model",
               "16", "--n-heads", "2", "--layers", "1"], "model.tsgp"),
    "search": (["search", "--method", "stdgp", "--synthetic", "--pop", "10",
                "--gens", "2"], "run"),
    "bench": (["bench", "--methods", "stdgp,tsgp", "--model", "MODEL",
               "--synthetic", "--pop", "6", "--gens", "1", "--runs", "2"],
              "bench_out"),
}


class TestManifestReplay:
    @pytest.mark.parametrize("command", sorted(REPLAYED))
    def test_manifest_replays_the_run(self, tmp_path, corpus_file, pairs_file,
                                      model_file, command):
        """``--seed`` plus the manifest's ``config`` as ``--config``, with a
        new ``--out``, writes the same bytes."""
        paths = {"CORPUS": str(corpus_file), "PAIRS": str(pairs_file),
                 "MODEL": str(model_file)}
        args, name = REPLAYED[command]
        first, again = tmp_path / "first", tmp_path / "again"
        first.mkdir()
        again.mkdir()
        assert main(["--seed", "3"] + [paths.get(a, a) for a in args]
                    + ["--out", str(first / name)]) == 0
        manifest_path = next(first.rglob("*manifest.json"))
        manifest = json.loads(manifest_path.read_text())
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(manifest["config"]))
        assert main(["--seed", str(manifest["seed"]), "--config", str(cfg),
                     manifest["subcommand"], "--out", str(again / name)]) == 0

        def outputs(root):
            return {p.relative_to(root): p.read_bytes()
                    for p in sorted(root.rglob("*"))
                    if p.is_file() and not p.name.endswith("manifest.json")}
        assert outputs(first) and outputs(first) == outputs(again)
        replayed = json.loads(
            next(again.rglob("*manifest.json")).read_text())["config"]
        assert replayed == dict(manifest["config"], out=str(again / name))
