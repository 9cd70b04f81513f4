import csv
import json
import struct

import pytest

from tsgp.cli import main
from tsgp.corpus import read_pairs_jsonl


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
        ["train", "--pairs", "PAIRS", "--epochs", "0"],
        ["train", "--pairs", "PAIRS", "--batch-size", "0"],
        ["train", "--pairs", "PAIRS", "--n-heads", "8", "--d-model", "30"],
        ["train", "--pairs", "PAIRS", "--n-heads", "0"],
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

    def test_data_error_non_finite_csv(self, workdir):
        bad = workdir / "nan.csv"
        rows = [f"{i * 0.1:.1f},{i * 0.2:.1f}" for i in range(30)]
        rows[3] = "0.3,nan"
        bad.write_text("x,target\n" + "\n".join(rows) + "\n")
        assert main(["search", "--method", "stdgp", "--data", str(bad),
                     "--pop", "10", "--gens", "1",
                     "--out", str(workdir / "nan_run")]) == 2

    def test_data_error_bad_checkpoint(self, workdir):
        bad = workdir / "bad.tsgp"
        bad.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        assert main(["verify-model", "--model", str(bad)]) == 2

    def test_data_error_header_without_vocabulary(self, workdir, model_file):
        from tsgp.model.checkpoint import MAGIC
        blob = model_file.read_bytes()
        (hlen,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12:12 + hlen])
        del header["vocabulary"]
        raw = json.dumps(header).encode()
        bad = workdir / "novocab.tsgp"
        bad.write_bytes(MAGIC + struct.pack("<I", len(raw)) + raw
                        + blob[12 + hlen:])
        assert main(["verify-model", "--model", str(bad)]) == 2


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
