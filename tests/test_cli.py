import csv
import json
import os
import pathlib
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from softmax_bounds import cli
from softmax_bounds.bounds import _sigmoid_impl
from softmax_bounds.config import NumericalError
from softmax_bounds.linear_model import LinearModel
from softmax_bounds.manifest import (
    SCOPE_FULL,
    SCOPE_NO_ELAPSED,
    RunManifest,
    sha256_csv_without_last_column,
    sha256_file,
)

from helpers import gen_toy_5class, write_sparse


@pytest.fixture(scope="module")
def toy_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy")
    train = root / "train.txt"
    test = root / "test.txt"
    write_sparse(gen_toy_5class(200, seed=7), str(train))
    write_sparse(gen_toy_5class(120, seed=8), str(test))
    return str(train), str(test)


@pytest.fixture(scope="module")
def trained(toy_files, tmp_path_factory):
    """One train run per objective, reused across the compare tests."""
    train, test = toy_files
    root = tmp_path_factory.mktemp("runs")
    dirs = {}
    for obj in ("soft", "ove", "bouchard"):
        out = str(root / obj)
        rc = cli.main(
            ["train", "--train", train, "--test", test,
             "--objective", obj, "--lam", "1.0", "--out", out]
        )
        assert rc == 0
        dirs[obj] = out
    out = str(root / "ove-sgd")
    rc = cli.main(
        ["train", "--train", train, "--test", test, "--objective", "ove-sgd",
         "--b", "10", "--S", "2", "--lr", "0.05", "--lr-decay", "0.95",
         "--epochs", "40", "--lam", "1.0", "--seed", "19",
         "--log-every", "50", "--out", out]
    )
    assert rc == 0
    dirs["ove-sgd"] = out
    return dirs


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


HASHERS = {SCOPE_FULL: sha256_file, SCOPE_NO_ELAPSED: sha256_csv_without_last_column}


@pytest.fixture(autouse=True)
def manifest_holds_after_every_command(monkeypatch):
    """After each ``cli.main`` call in this module, ``--out`` holds no
    manifest, or every file its manifest lists hashes to the recorded
    digest in the recorded scope."""
    real = cli.main

    def main(argv):
        rc = real(argv)
        path = os.path.join(argv[argv.index("--out") + 1] if "--out" in argv else ".",
                            "manifest.json")
        if os.path.exists(path):
            for entry in read_json(path)["outputs"]:
                assert HASHERS[entry["scope"]](entry["path"]) == entry["sha256"], entry
        return rc

    monkeypatch.setattr(cli, "main", main)


def snapshot(out):
    """{name: bytes} of every file in ``out``, or None if it does not exist."""
    if not out.exists():
        return None
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def read_trace(path):
    with open(path, "r", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def assert_bouchard_stationary(tmp_path, counts):
    """``estimate --method bouchard`` on ``counts`` exits 0 with
    N |sigmoid(f_k - alpha) - N_k / N| <= 1e-8 on every class."""
    out = str(tmp_path / "run")
    assert cli.main(["estimate", "--method", "bouchard", "--out", out,
                     "--counts", ",".join(map(str, counts))]) == 0
    probs = read_json(os.path.join(out, "probs.json"))
    sig = _sigmoid_impl(np.array(probs["f_hat"]) - probs["alpha"])
    n = counts.sum()
    assert n * np.max(np.abs(sig - counts / n)) <= 1e-8


class TestEstimate:
    def test_exact_counts(self, tmp_path):
        out = str(tmp_path / "run")
        assert cli.main(["estimate", "--method", "exact",
                         "--counts", "2,3,5", "--out", out]) == 0
        probs = read_json(os.path.join(out, "probs.json"))
        assert probs["method"] == "exact"
        np.testing.assert_allclose(probs["probs"], [0.2, 0.3, 0.5], atol=1e-12)
        header, rows = read_trace(os.path.join(out, "trace.csv"))
        assert header == ["iteration", "value"]
        manifest = read_json(os.path.join(out, "manifest.json"))
        assert manifest["schema_version"] == 1
        assert manifest["config"]["counts"] == [2, 3, 5]
        names = {os.path.basename(o["path"]): o["scope"] for o in manifest["outputs"]}
        assert names == {"probs.json": "full", "trace.csv": "full"}

    def test_ove_matches_counts(self, tmp_path):
        out = str(tmp_path / "run")
        assert cli.main(["estimate", "--method", "ove",
                         "--counts", "2,3,5", "--out", out]) == 0
        probs = read_json(os.path.join(out, "probs.json"))
        np.testing.assert_allclose(probs["probs"], [0.2, 0.3, 0.5], atol=1e-6)
        header, rows = read_trace(os.path.join(out, "trace.csv"))
        values = [float(r[1]) for r in rows]
        assert values == sorted(values)

    def test_bouchard_counts(self, tmp_path):
        out = str(tmp_path / "run")
        assert cli.main(["estimate", "--method", "bouchard",
                         "--counts", "3,1", "--out", out]) == 0
        probs = read_json(os.path.join(out, "probs.json"))
        np.testing.assert_allclose(probs["probs"], [0.9, 0.1], atol=1e-4)
        assert "alpha" in probs

    def test_bouchard_large_counts_converge(self, tmp_path):
        out = str(tmp_path / "run")
        assert cli.main(["estimate", "--method", "bouchard",
                         "--counts", "7000,2000,1000", "--out", out]) == 0
        probs = read_json(os.path.join(out, "probs.json"))
        raw = np.array([7000, 2000, 1000]) / np.array([3000, 8000, 9000])
        np.testing.assert_allclose(probs["probs"], raw / raw.sum(), rtol=1e-9)

    def test_ove_skewed_counts_converge(self, tmp_path):
        # the rarest class's curvature is about 1e-5 of the largest one's,
        # which fixed-step gradient ascent could not cross in 50000 steps
        counts = np.array([100000, 1000, 10, 1])
        out = str(tmp_path / "run")
        assert cli.main(["estimate", "--method", "ove",
                         "--counts", "100000,1000,10,1", "--out", out]) == 0
        probs = read_json(os.path.join(out, "probs.json"))
        np.testing.assert_allclose(probs["probs"], counts / counts.sum(), rtol=0, atol=1e-6)

    @pytest.mark.parametrize("counts", [[10**6, 1, 1], [10**7] + [1] * 9])
    def test_ove_dominant_count_converges(self, tmp_path, counts):
        # a value and gradient that added each class's self pair and took it
        # out again left rounding above the line search's few ulps of
        # noise, and these stalled at a gradient inf-norm near 1e-5
        out = str(tmp_path / "run")
        assert cli.main(["estimate", "--method", "ove", "--counts",
                         ",".join(map(str, counts)), "--out", out]) == 0
        probs = read_json(os.path.join(out, "probs.json"))
        counts = np.array(counts)
        np.testing.assert_allclose(probs["probs"], counts / counts.sum(), rtol=1e-8, atol=0)

    def test_bouchard_skewed_counts_converge(self, tmp_path):
        # counts over five decades, on which L-BFGS on the profile objective
        # stalled at a gradient of about 1e-6
        assert_bouchard_stationary(tmp_path, np.array([100000, 1000, 10, 1]))

    def test_bouchard_zipf_counts_converge(self, tmp_path):
        # 1000 classes of Zipf counts, on which that ascent stalled at 2e-4
        draws = np.random.default_rng(1).zipf(1.3, 200000)
        counts = np.bincount(draws[draws <= 1000], minlength=1001)[1:]
        counts[counts == 0] = 1
        assert_bouchard_stationary(tmp_path, counts)

    def test_labels_file(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("1\n1\n2\n2\n2\n3\n3\n3\n3\n3\n", encoding="utf-8")
        out = str(tmp_path / "run")
        assert cli.main(["estimate", "--method", "exact",
                         "--labels", str(path), "--out", out]) == 0
        probs = read_json(os.path.join(out, "probs.json"))
        np.testing.assert_allclose(probs["probs"], [0.2, 0.3, 0.5], atol=1e-12)
        manifest = read_json(os.path.join(out, "manifest.json"))
        assert str(path) in manifest["datasets"]

    def test_labels_k_override_pads_unseen_classes(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("1\n1\n2\n2\n", encoding="utf-8")
        out = str(tmp_path / "run")
        assert cli.main(["estimate", "--method", "exact", "--labels", str(path),
                         "--K", "4", "--out", out]) == 0
        probs = read_json(os.path.join(out, "probs.json"))
        assert probs["num_classes"] == 4
        np.testing.assert_allclose(probs["probs"], [0.5, 0.5, 0.0, 0.0], atol=1e-12)

    def test_labels_take_k_from_the_sidecar(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("1\n2\n2\n3\n", encoding="utf-8")
        (tmp_path / "labels.txt.meta.json").write_text('{"K": 6}', encoding="utf-8")
        out = str(tmp_path / "run")
        assert cli.main(["estimate", "--method", "exact", "--labels", str(path),
                         "--out", out]) == 0
        probs = read_json(os.path.join(out, "probs.json"))
        assert probs["num_classes"] == 6
        np.testing.assert_allclose(probs["probs"], [0.25, 0.5, 0.25, 0, 0, 0], atol=1e-12)

    def test_labels_of_one_class_give_two_classes(self, tmp_path):
        # as train does, a file that holds only label 1 is a 2-class problem
        path = tmp_path / "labels.txt"
        path.write_text("1\n1\n1\n", encoding="utf-8")
        out = str(tmp_path / "run")
        assert cli.main(["estimate", "--method", "exact", "--labels", str(path),
                         "--out", out]) == 0
        probs = read_json(os.path.join(out, "probs.json"))
        assert probs["num_classes"] == 2
        np.testing.assert_allclose(probs["probs"], [1.0, 0.0], atol=1e-12)

    def test_counts_k_override_pads_unseen_classes(self, tmp_path):
        out = str(tmp_path / "run")
        assert cli.main(["estimate", "--method", "exact", "--counts", "1,2",
                         "--K", "5", "--out", out]) == 0
        probs = read_json(os.path.join(out, "probs.json"))
        assert probs["num_classes"] == 5
        np.testing.assert_allclose(probs["probs"], [1 / 3, 2 / 3, 0.0, 0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("extra, message", [
        (["--counts", "1,2,3", "--K", "2"], "--K 2 is below the 3 classes of --counts"),
        (["--counts", "1,2", "--N", "10"], "--N applies only with --gen"),
    ])
    def test_k_below_counts_and_n_without_gen_are_config_errors(
            self, tmp_path, capsys, extra, message):
        rc = cli.main(["estimate", "--method", "exact", *extra, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_ove_sgd_from_generator(self, tmp_path):
        out = str(tmp_path / "run")
        assert cli.main(
            ["estimate", "--method", "ove-sgd", "--gen", "powerlaw",
             "--K", "20", "--N", "5000", "--b", "50", "--S", "5",
             "--lr", "0.01", "--epochs", "10", "--seed", "3",
             "--log-every", "100", "--out", out]
        ) == 0
        probs = read_json(os.path.join(out, "probs.json"))
        assert probs["num_classes"] == 20
        assert sum(probs["probs"]) == pytest.approx(1.0, abs=1e-9)
        header, rows = read_trace(os.path.join(out, "trace.csv"))
        assert header == ["iteration", "value"]
        values = [float(r[1]) for r in rows]
        assert all(np.isfinite(values))
        # the trace tracks L1 distance to the exact MLE; it should shrink
        assert values[-1] < values[0]

    @pytest.mark.parametrize("lr", ["inf", "nan"])
    def test_ove_sgd_non_finite_learning_rate(self, tmp_path, capsys, lr):
        rc = cli.main(["estimate", "--method", "ove-sgd", "--gen", "powerlaw",
                       "--K", "20", "--N", "100", "--S", "3", "--lr", lr,
                       "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "lr0 must be positive and finite" in capsys.readouterr().err

    def test_ove_sgd_overflow_is_numerical_error(self, tmp_path, capsys):
        # the first step already overflows the scores
        out = tmp_path / "run"
        rc = cli.main(["estimate", "--method", "ove-sgd", "--gen", "powerlaw",
                       "--K", "20", "--N", "100", "--S", "3", "--lr", "1e308",
                       "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: scores became non-finite")
        assert not (out / "probs.json").exists()

    @pytest.mark.parametrize("method, seed", [("exact", "-3"), ("ove-sgd", "-1")])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, method, seed):
        rc = cli.main(["estimate", "--method", method, "--gen", "powerlaw",
                       "--K", "5", "--N", "10", "--S", "2", "--seed", seed,
                       "--out", str(tmp_path / "run")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: seed must be a non-negative integer, got {seed}\n"
        )

    def test_ove_sgd_rejects_counts(self, tmp_path, capsys):
        rc = cli.main(["estimate", "--method", "ove-sgd",
                       "--counts", "2,3,5", "--out", str(tmp_path)])
        assert rc == 2
        assert "use --labels or --gen" in capsys.readouterr().err

    def test_gen_requires_dims(self, tmp_path):
        rc = cli.main(["estimate", "--method", "exact", "--gen", "powerlaw",
                       "--out", str(tmp_path)])
        assert rc == 2

    def test_malformed_counts(self, tmp_path, capsys):
        rc = cli.main(["estimate", "--method", "exact", "--counts", "a,b",
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "--counts" in capsys.readouterr().err

    def test_malformed_label_file(self, tmp_path, capsys):
        path = tmp_path / "labels.txt"
        path.write_text("1\nbogus\n2\n", encoding="utf-8")
        rc = cli.main(["estimate", "--method", "exact", "--labels", str(path),
                       "--out", str(tmp_path / "run")])
        assert rc == 3
        assert "line 2" in capsys.readouterr().err

    def test_zero_based_label_file_rejected(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0\n1\n", encoding="utf-8")
        assert cli.main(["estimate", "--method", "exact", "--labels", str(path),
                         "--out", str(tmp_path / "run")]) == 3

    @pytest.mark.parametrize("method", ["exact", "ove-sgd"])
    def test_label_above_k_is_config_error(self, tmp_path, capsys, method):
        path = tmp_path / "labels.txt"
        path.write_text("1\n5\n2\n", encoding="utf-8")
        rc = cli.main(["estimate", "--method", method, "--labels", str(path),
                       "--K", "3", "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "error: " in capsys.readouterr().err

    def test_label_beyond_int64_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "labels.txt"
        path.write_text("1\n99999999999999999999\n", encoding="utf-8")
        rc = cli.main(["estimate", "--method", "exact", "--labels", str(path),
                       "--out", str(tmp_path / "run")])
        assert rc == 3
        assert capsys.readouterr().err == (
            "error: line 2: label 99999999999999999999 out of range\n")

    def test_label_past_the_array_size_limit_is_data_error(self, tmp_path, capsys):
        # K = 2**63 - 1 classes: refused before np.bincount is asked for them
        path = tmp_path / "labels.txt"
        path.write_text("1\n9223372036854775807\n", encoding="utf-8")
        rc = cli.main(["estimate", "--method", "exact", "--labels", str(path),
                       "--out", str(tmp_path / "run")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag, source", [
        ("--K", ["--method", "exact", "--counts", "1,2", "--K"]),
        ("--N", ["--method", "ove-sgd", "--gen", "powerlaw", "--K", "10", "--N"]),
    ])
    def test_size_flag_past_the_array_size_limit_is_config_error(self, tmp_path, capsys,
                                                                 flag, source):
        rc = cli.main(["estimate", *source, "9223372036854775807", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} 9223372036854775807: ") and err.count("\n") == 1

    def test_label_file_with_pairs_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "labels.txt"
        path.write_text("1\n2 3:0.5\n", encoding="utf-8")
        rc = cli.main(["estimate", "--method", "exact", "--labels", str(path),
                       "--out", str(tmp_path / "run")])
        assert rc == 3
        assert "one 1-based label per line" in capsys.readouterr().err

    def test_count_beyond_int64_is_config_error(self, tmp_path, capsys):
        rc = cli.main(["estimate", "--method", "exact", "--counts", "1,99999999999999999999",
                       "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: --counts value 99999999999999999999 does not fit in int64\n")

    def test_counts_whose_sum_overflows_int64_are_config_error(self, tmp_path, capsys):
        rc = cli.main(["estimate", "--method", "exact",
                       "--counts", "5000000000000000000,5000000000000000000",
                       "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: counts sum to 10000000000000000000, which does not fit in int64\n")

    def test_negative_counts_are_config_error(self, tmp_path, capsys):
        rc = cli.main(["estimate", "--method", "exact", "--counts", "1,-2,3",
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "error: " in capsys.readouterr().err

    def test_all_zero_counts_are_config_error(self, tmp_path, capsys):
        rc = cli.main(["estimate", "--method", "exact", "--counts", "0,0",
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "error: " in capsys.readouterr().err

    def test_gen_single_class_is_config_error(self, tmp_path, capsys):
        rc = cli.main(["estimate", "--method", "exact", "--gen", "powerlaw",
                       "--K", "1", "--N", "10", "--out", str(tmp_path)])
        assert rc == 2
        assert "error: " in capsys.readouterr().err

    def test_missing_label_file(self, tmp_path):
        rc = cli.main(["estimate", "--method", "exact",
                       "--labels", str(tmp_path / "absent.txt"),
                       "--out", str(tmp_path / "run")])
        assert rc == 3

    def test_unknown_method_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["estimate", "--method", "nope", "--counts", "1,1"])
        assert exc.value.code == 2

    def test_counts_and_labels_mutually_exclusive(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("1\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            cli.main(["estimate", "--method", "exact", "--counts", "1,1",
                      "--labels", str(path)])
        assert exc.value.code == 2


class TestTrain:
    def test_full_batch_artifacts(self, trained, toy_files):
        for obj in ("soft", "ove", "bouchard"):
            out = trained[obj]
            model = LinearModel.load(os.path.join(out, "checkpoint.bin"))
            assert (model.num_classes, model.num_features) == (5, 2)
            payload = read_json(os.path.join(out, "report.json"))
            assert payload["eval_split"] == "test"
            report = payload["report"]
            assert report["method"] == obj
            assert 0.0 <= report["error"] <= 1.0
            assert report["nlpd"] >= 0.0
            header, rows = read_trace(os.path.join(out, "trace.csv"))
            assert header == ["iteration", "value"]
            values = [float(r[1]) for r in rows]
            assert values[-1] >= values[0]

    def test_fitted_bound_ordering(self, trained):
        finals = {
            obj: read_json(os.path.join(trained[obj], "report.json"))["report"][
                "bound_final"
            ]
            for obj in ("soft", "ove", "bouchard")
        }
        assert finals["soft"] > finals["ove"] > finals["bouchard"]

    def test_sgd_artifacts(self, trained):
        out = trained["ove-sgd"]
        model = LinearModel.load(os.path.join(out, "checkpoint.bin"))
        assert (model.num_classes, model.num_features) == (5, 2)
        header, rows = read_trace(os.path.join(out, "trace.csv"))
        assert header == ["iteration", "raw_bound_estimate", "lr", "epoch", "elapsed_ms"]
        assert int(rows[0][0]) == 0
        manifest = read_json(os.path.join(out, "manifest.json"))
        scopes = {os.path.basename(o["path"]): o["scope"] for o in manifest["outputs"]}
        assert scopes["trace.csv"] == "excluding-elapsed-ms"
        assert scopes["checkpoint.bin"] == "full"
        assert scopes["report.json"] == "full"

    @pytest.mark.parametrize("objective", ["ove-sgd", "soft"])
    def test_manifest_hashes_match_the_files(self, trained, objective):
        # the checkpoint's digest comes from save, not from reading it back
        manifest = read_json(os.path.join(trained[objective], "manifest.json"))
        for entry in manifest["outputs"]:
            if entry["scope"] == SCOPE_FULL:
                assert entry["sha256"] == sha256_file(entry["path"])

    def test_sgd_tracks_full_batch_fit(self, trained):
        sgd = read_json(os.path.join(trained["ove-sgd"], "report.json"))["report"]
        full = read_json(os.path.join(trained["ove"], "report.json"))["report"]
        assert sgd["bound_final"] <= full["bound_final"] + 1e-9
        assert sgd["bound_final"] > full["bound_final"] * 1.10

    def test_eval_split_defaults_to_train(self, toy_files, tmp_path):
        train, _ = toy_files
        out = str(tmp_path / "run")
        assert cli.main(["train", "--train", train, "--objective", "soft",
                         "--lam", "1.0", "--out", out]) == 0
        payload = read_json(os.path.join(out, "report.json"))
        assert payload["eval_split"] == "train"

    def test_malformed_dataset(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("3 0:1.0\nnot-a-row\n", encoding="utf-8")
        rc = cli.main(["train", "--train", str(path), "--objective", "soft",
                       "--out", str(tmp_path / "run")])
        assert rc == 3

    def test_malformed_sidecar(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("1 1:1.0\n2 2:1.0\n", encoding="utf-8")
        (tmp_path / "t.txt.meta.json").write_text('{"K": 3,', encoding="utf-8")
        rc = cli.main(["train", "--train", str(path), "--objective", "soft",
                       "--out", str(tmp_path / "run")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "t.txt.meta.json" in err

    def test_sidecar_past_the_array_size_limit_is_data_error(self, tmp_path, capsys):
        # a 2**32 x 2**32 model: refused before LinearModel.zeros allocates it
        path = tmp_path / "t.txt"
        path.write_text("1 1:1.0\n2 2:1.0\n", encoding="utf-8")
        (tmp_path / "t.txt.meta.json").write_text('{"K": 4294967296, "D": 4294967296}',
                                                  encoding="utf-8")
        rc = cli.main(["train", "--train", str(path), "--objective", "ove-sgd",
                       "--out", str(tmp_path / "run")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    def test_num_features_past_the_array_size_limit_is_config_error(self, toy_files, tmp_path,
                                                                    capsys):
        train, _ = toy_files
        rc = cli.main(["train", "--train", train, "--objective", "soft",
                       "--num-features", "9223372036854775807", "--out", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --num-features 9223372036854775807: ")
        assert err.count("\n") == 1

    def test_bad_learning_rate(self, toy_files, tmp_path, capsys):
        train, _ = toy_files
        rc = cli.main(["train", "--train", train, "--objective", "ove-sgd",
                       "--lr", "-1.0", "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "lr0" in capsys.readouterr().err

    @pytest.mark.parametrize("lr", ["inf", "nan"])
    def test_non_finite_learning_rate(self, toy_files, tmp_path, capsys, lr):
        train, _ = toy_files
        rc = cli.main(["train", "--train", train, "--objective", "ove-sgd",
                       "--lr", lr, "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "lr0 must be positive and finite" in capsys.readouterr().err

    def test_sgd_overflow_is_numerical_error(self, tmp_path, capsys):
        # one step of 1e308 * 10 / 2 overflows the weights
        path = tmp_path / "t.txt"
        path.write_text("1 1:10.0\n2 2:10.0\n", encoding="utf-8")
        rc = cli.main(["train", "--train", str(path), "--objective", "ove-sgd",
                       "--lr", "1e308", "--lam", "0", "--epochs", "1", "--b", "2",
                       "--out", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: training produced non-finite")

    def test_huge_learning_rate_is_numerical_error(self, tmp_path, capsys):
        # one step of 1e308 leaves finite weights whose scores 2 * w overflow,
        # so the evaluation, not the training loop, meets the infinity
        path = tmp_path / "t.txt"
        path.write_text("1 1:2.0\n2 2:2.0\n", encoding="utf-8")
        rc = cli.main(["train", "--train", str(path), "--objective", "ove-sgd",
                       "--lr", "1e308", "--lam", "0", "--epochs", "1", "--b", "2",
                       "--S", "1", "--out", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: the one-vs-each bound is nan")

    @pytest.mark.parametrize("objective", ["soft", "ove", "bouchard"])
    def test_diverging_full_batch_fit_prints_one_error_line(self, tmp_path, capsys, objective):
        # scores of +-1e308 overflow on every trial step, which each objective
        # rejects alike; the fit stops on its own rules, with no numpy
        # warning ahead of the error line
        path = tmp_path / "big.txt"
        path.write_text("1 1:1e308\n2 2:-1e308\n", encoding="utf-8")
        rc = cli.main(["train", "--train", str(path), "--objective", objective,
                       "--lam", "1", "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: full-batch fit stalled: ")
        assert err.endswith("(line search step below 1e-18)\n")
        assert len(err.splitlines()) == 1

    def test_negative_seed_is_config_error(self, toy_files, tmp_path, capsys):
        train, _ = toy_files
        rc = cli.main(["train", "--train", train, "--objective", "ove-sgd",
                       "--seed", "-2", "--out", str(tmp_path / "run")])
        assert rc == 2
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -2\n"

    @pytest.mark.parametrize("objective", ["ove", "soft", "ove-sgd", "bouchard"])
    def test_nan_lam(self, toy_files, tmp_path, capsys, objective):
        train, _ = toy_files
        for lam in ("nan", "inf"):
            rc = cli.main(["train", "--train", train, "--objective", objective,
                           "--lam", lam, "--out", str(tmp_path / "run")])
            assert rc == 2
            assert f"lam must be >= 0 and finite, got {lam}" in capsys.readouterr().err

    def test_too_many_sampled_classes(self, toy_files, tmp_path):
        train, _ = toy_files
        rc = cli.main(["train", "--train", train, "--objective", "ove-sgd",
                       "--S", "10", "--out", str(tmp_path / "run")])
        assert rc == 2


class TestOverlappedTail:
    """``train`` writes and hashes the checkpoint on a helper thread while
    it evaluates; the join must end that overlap before anything else is
    staged or published, on success and on failure."""

    @pytest.fixture
    def argv(self, toy_files, tmp_path):
        train, test = toy_files
        return ["train", "--train", train, "--test", test, "--objective", "soft",
                "--lam", "1.0", "--out", str(tmp_path / "run")]

    @pytest.fixture
    def slow_save(self, monkeypatch):
        """Make ``LinearModel.save`` wait before it writes, so an evaluation
        on the toy set ends first, and record its digest and the files in
        the output directory when it returns."""
        calls = []
        real = LinearModel.save

        def save(model, path):
            time.sleep(0.2)
            digest = real(model, path)
            calls.append((digest, sorted(os.listdir(os.path.dirname(path)))))
            return digest

        monkeypatch.setattr(LinearModel, "save", save)
        return calls

    @staticmethod
    def failing_evaluate(model, data):
        raise NumericalError("evaluation overflowed")

    @staticmethod
    def run(argv):
        """Exit code of ``cli.main(argv)`` and the threads it left alive."""
        before = set(threading.enumerate())
        rc = cli.main(argv)
        return rc, [t for t in threading.enumerate() if t not in before]

    def test_success_joins_before_report(self, argv, slow_save):
        rc, alive = self.run(argv)
        assert rc == 0
        assert alive == []
        ((digest, files_at_save),) = slow_save
        assert files_at_save == [".checkpoint.bin.partial", ".trace.csv.partial"]
        out = argv[-1]
        manifest = read_json(os.path.join(out, "manifest.json"))
        (entry,) = [o for o in manifest["outputs"] if o["path"].endswith("checkpoint.bin")]
        assert entry["sha256"] == digest

    def test_save_error_wins_over_evaluation_error(self, argv, monkeypatch, capsys):
        def save(model, path):
            raise OSError("disk full")

        monkeypatch.setattr(LinearModel, "save", save)
        monkeypatch.setattr(cli, "_evaluate", self.failing_evaluate)
        rc, alive = self.run(argv)
        assert rc == 3
        assert capsys.readouterr().err == "error: disk full\n"
        assert alive == []
        assert os.listdir(argv[-1]) == []

    def test_evaluation_error_joins_the_save_and_leaves_nothing(
        self, argv, slow_save, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "_evaluate", self.failing_evaluate)
        rc, alive = self.run(argv)
        assert rc == 1
        assert capsys.readouterr().err == "error: evaluation overflowed\n"
        assert alive == []
        # the save ran to its end before the staged files were removed
        ((_, files_at_save),) = slow_save
        assert ".checkpoint.bin.partial" in files_at_save
        assert os.listdir(argv[-1]) == []


class TestCompare:
    def test_reference_against_itself(self, trained, toy_files, tmp_path):
        _, test = toy_files
        ckpt = os.path.join(trained["soft"], "checkpoint.bin")
        out = str(tmp_path / "cmp")
        assert cli.main(["compare", "--reference", f"soft={ckpt}",
                         "--candidate", f"again={ckpt}",
                         "--test", test, "--out", out]) == 0
        with open(os.path.join(out, "reports.csv"), encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "norm", "error", "nlpd"]
        ref, cand = rows[1], rows[2]
        assert ref[0] == "soft" and ref[1] == ""
        assert cand[0] == "again"
        assert float(cand[1]) == 0.0
        assert cand[2:] == ref[2:]

    def test_multi_candidate_table(self, trained, toy_files, tmp_path):
        _, test = toy_files
        out = str(tmp_path / "cmp")
        argv = ["compare", "--reference",
                f"soft={os.path.join(trained['soft'], 'checkpoint.bin')}"]
        for name in ("ove", "bouchard", "ove-sgd"):
            argv += ["--candidate",
                     f"{name}={os.path.join(trained[name], 'checkpoint.bin')}"]
        argv += ["--test", test, "--out", out]
        assert cli.main(argv) == 0

        table = read_json(os.path.join(out, "reports.json"))
        assert [r["method"] for r in table] == ["soft", "ove", "bouchard", "ove-sgd"]
        assert table[0]["norm"] is None
        by_name = {r["method"]: r for r in table}
        for name in ("ove", "bouchard", "ove-sgd"):
            assert by_name[name]["norm"] > 0.0
        # the bound surrogates should sit closer to the exact fit than
        # the bouchard fit, whose objective is much looser
        assert by_name["ove"]["norm"] < by_name["bouchard"]["norm"]
        for row in table:
            report = read_json(
                os.path.join(trained[row["method"]], "report.json")
            )["report"]
            assert row["error"] == pytest.approx(report["error"], abs=1e-12)
            assert row["nlpd"] == pytest.approx(report["nlpd"], abs=1e-12)

    def test_requires_a_candidate(self, trained, toy_files, tmp_path, capsys):
        _, test = toy_files
        ckpt = os.path.join(trained["soft"], "checkpoint.bin")
        rc = cli.main(["compare", "--reference", f"soft={ckpt}",
                       "--test", test, "--out", str(tmp_path)])
        assert rc == 2
        assert "--candidate" in capsys.readouterr().err

    def test_name_without_path(self, trained, toy_files, tmp_path):
        _, test = toy_files
        ckpt = os.path.join(trained["soft"], "checkpoint.bin")
        rc = cli.main(["compare", "--reference", "soft",
                       "--candidate", f"a={ckpt}",
                       "--test", test, "--out", str(tmp_path)])
        assert rc == 2

    def test_garbage_checkpoint(self, trained, toy_files, tmp_path):
        _, test = toy_files
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"definitely not a checkpoint")
        rc = cli.main(["compare", "--reference", f"bad={bad}",
                       "--candidate", f"bad2={bad}",
                       "--test", test, "--out", str(tmp_path / "cmp")])
        assert rc == 3

    def test_zero_reference_is_data_error(self, trained, toy_files, tmp_path, capsys):
        # every distance is relative to the gauge-fixed reference's norm
        _, test = toy_files
        ref = tmp_path / "zero.bin"
        LinearModel.zeros(5, 2).save(str(ref))
        out = tmp_path / "cmp"
        rc = cli.main(["compare", "--reference", f"zero={ref}",
                       "--candidate", f"soft={trained['soft']}/checkpoint.bin",
                       "--test", test, "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert str(ref) in err and "zero after gauge fixing" in err
        assert not out.exists()

    @pytest.mark.parametrize("role", ["reference", "candidate"])
    def test_non_finite_checkpoint_is_data_error(self, trained, toy_files, tmp_path,
                                                 capsys, role):
        _, test = toy_files
        good = f"{trained['soft']}/checkpoint.bin"
        bad = tmp_path / "nan.bin"
        blob = bytearray(pathlib.Path(good).read_bytes())
        blob[24:32] = np.array([np.nan], dtype="<f8").tobytes()
        bad.write_bytes(bytes(blob))
        ref, cand = (bad, good) if role == "reference" else (good, bad)
        rc = cli.main(["compare", "--reference", f"r={ref}", "--candidate", f"c={cand}",
                       "--test", test, "--out", str(tmp_path / "cmp")])
        assert rc == 3
        assert "non-finite" in capsys.readouterr().err

    def test_shape_mismatch(self, toy_files, tmp_path, capsys):
        # the 5-class test set read with a 3-class reference's K: its
        # first label past 3 is a data error naming its line
        _, test = toy_files
        ckpt = tmp_path / "wrong.bin"
        LinearModel.zeros(3, 7).save(str(ckpt))
        rc = cli.main(["compare", "--reference", f"wrong={ckpt}",
                       "--candidate", f"also={ckpt}",
                       "--test", test, "--out", str(tmp_path / "cmp")])
        assert rc == 3
        lines = pathlib.Path(test).read_text(encoding="utf-8").splitlines()
        lineno = next(i for i, line in enumerate(lines, 1) if int(line.split()[0]) > 3)
        assert capsys.readouterr().err == (
            f"error: line {lineno}: label exceeds the class count 3\n")

    def test_candidate_shape_mismatch(self, trained, toy_files, tmp_path, capsys):
        _, test = toy_files
        ckpt = tmp_path / "wrong.bin"
        LinearModel.zeros(3, 7).save(str(ckpt))
        ref = os.path.join(trained["soft"], "checkpoint.bin")
        rc = cli.main(["compare", "--reference", f"soft={ref}", "--candidate", f"wrong={ckpt}",
                       "--test", test, "--out", str(tmp_path / "cmp")])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: {ckpt} against reference {ref}: "
            f"shape mismatch: reference 5 x 2, other 3 x 7\n")

    @staticmethod
    def three_by_five(tmp_path):
        """Two 3 x 5 checkpoints, as --reference and --candidate arguments."""
        rng = np.random.default_rng(3)
        argv = []
        for flag, name in (("--reference", "r"), ("--candidate", "c")):
            path = tmp_path / f"{name}.bin"
            LinearModel(rng.normal(size=(3, 5)), rng.normal(size=3)).save(str(path))
            argv += [flag, f"{name}={path}"]
        return argv

    def test_takes_k_and_d_from_the_reference(self, tmp_path):
        # a 2-class, 3-feature file with no sidecar, against 3 x 5
        # checkpoints, scores as the same file with a sidecar pinning 3 x 5
        models = self.three_by_five(tmp_path)
        tables = []
        for name, sidecar in (("bare", None), ("pinned", '{"K": 3, "D": 5}')):
            test = tmp_path / f"{name}.txt"
            test.write_text("1 1:0.5 3:-1.0\n2 2:2.0\n1 3:0.25\n", encoding="utf-8")
            if sidecar is not None:
                (tmp_path / f"{name}.txt.meta.json").write_text(sidecar, encoding="utf-8")
            out = tmp_path / f"cmp-{name}"
            assert cli.main(["compare", *models, "--test", str(test), "--out", str(out)]) == 0
            tables.append((out / "reports.json").read_bytes())
        assert tables[0] == tables[1]
        assert [r["method"] for r in json.loads(tables[0])] == ["r", "c"]

    @pytest.mark.parametrize("row, problem", [
        ("4 1:1.0", "label exceeds the class count 3"),
        ("1 6:1.0", "feature index out of range for 5 features"),
    ], ids=["label", "feature"])
    def test_test_row_past_the_reference_names_its_line(self, tmp_path, capsys, row, problem):
        test = tmp_path / "test.txt"
        test.write_text(f"1 1:1.0\n\n{row}\n2 2:1.0\n", encoding="utf-8")
        out = tmp_path / "cmp"
        rc = cli.main(["compare", *self.three_by_five(tmp_path), "--test", str(test),
                       "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == f"error: line 3: {problem}\n"
        assert not out.exists()

    @pytest.mark.parametrize("k, d", [(1, 5), (0, 3), (2, 0)])
    def test_reference_below_two_classes_or_one_feature_is_data_error(self, tmp_path, capsys,
                                                                      k, d):
        ref, cand = tmp_path / "small.bin", tmp_path / "c.bin"
        LinearModel.zeros(k, d).save(str(ref))
        LinearModel.zeros(3, 5).save(str(cand))
        test = tmp_path / "test.txt"
        test.write_text("1 1:1.0\n", encoding="utf-8")
        rc = cli.main(["compare", "--reference", f"r={ref}", "--candidate", f"c={cand}",
                       "--test", str(test), "--out", str(tmp_path / "cmp")])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: reference {ref} is {k} x {d}; need >= 2 classes, >= 1 feature\n")

    @pytest.mark.parametrize("flag", ["--num-classes", "--num-features"])
    def test_has_no_dimension_flags(self, tmp_path, flag):
        test = tmp_path / "test.txt"
        test.write_text("1 1:1.0\n2 3:1.0\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            cli.main(["compare", *self.three_by_five(tmp_path), "--test", str(test),
                      flag, "3", "--out", str(tmp_path / "cmp")])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["estimate", "--method", "ove", "--counts", "1,2", "--seed", "-1"],
    ["estimate", "--method", "exact", "--labels", "LABELS", "--seed", "-3"],
    ["train", "--train", "TRAIN", "--objective", "soft", "--seed", "-4"],
], ids=["estimate-counts", "estimate-labels", "train-soft"])
def test_negative_seed_exits_2_on_every_command(argv, toy_files, tmp_path, capsys):
    # these paths never draw from a seeded stream, so only the CLI's own
    # check stops them before a manifest records the seed
    labels = tmp_path / "labels.txt"
    labels.write_text("1\n2\n")
    argv = [{"LABELS": str(labels), "TRAIN": toy_files[0]}.get(a, a) for a in argv]
    out = tmp_path / "run"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: seed must be a non-negative integer, got {argv[-1]}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train"])  # compare has no dimension flags
@pytest.mark.parametrize("flag, value, least", [
    ("--num-classes", "1", 2),
    ("--num-classes", "0", 2),
    ("--num-classes", "-5", 2),
    ("--num-features", "0", 1),
    ("--num-features", "-1", 1),
])
def test_count_below_minimum_exits_2(command, flag, value, least, tmp_path, capsys):
    # every label is 1, so --num-classes 1 fits the file; an inferred count
    # would be raised to 2 classes, but an explicit one is taken as given
    data = tmp_path / "d.txt"
    data.write_text("1 1:1.0\n1 2:0.5\n1 1:2.0\n")
    argv = [command, "--train", str(data), "--objective", "soft"]
    out = tmp_path / "run"
    assert cli.main(argv + [flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {flag} must be at least {least}, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("meta", ['{"K": 9223372036854775808}', '{"D": 9223372036854775808}',
                                  '{"K": 18446744073709551616}', '{"D": 18446744073709551616}'])
def test_sidecar_past_int64_is_data_error(command, meta, tmp_path, capsys):
    # refused while reading the sidecar, before scipy meets a shape that
    # does not fit in a C long
    data = tmp_path / "d.txt"
    data.write_text("1 1:1.0\n2 2:1.0\n", encoding="utf-8")
    (tmp_path / "d.txt.meta.json").write_text(meta, encoding="utf-8")
    ckpt = tmp_path / "m.bin"
    LinearModel(np.eye(2), np.zeros(2)).save(str(ckpt))
    argv = {"train": ["train", "--train", str(data), "--objective", "soft"],
            "compare": ["compare", "--reference", f"a={ckpt}", "--candidate", f"b={ckpt}",
                        "--test", str(data)]}[command]
    out = tmp_path / "run"
    assert cli.main(argv + ["--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"error: {data}.meta.json: K and D must be integers in [0, 9223372036854775807]\n")
    assert not out.exists()


def test_sidecar_at_int64_max_features_meets_the_size_rule(tmp_path, capsys):
    data = tmp_path / "d.txt"
    data.write_text("1 1:1.0\n2 2:1.0\n", encoding="utf-8")
    (tmp_path / "d.txt.meta.json").write_text('{"D": 9223372036854775807}', encoding="utf-8")
    rc = cli.main(["train", "--train", str(data), "--objective", "soft",
                   "--out", str(tmp_path / "run")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}: a 2 x 9223372036854775807 model needs more than ")
    assert err.count("\n") == 1


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def _patch(target, name, exc):
    """A fault injector: make ``target.name`` raise ``exc``."""
    return lambda m: m.setattr(target, name, _raise(exc))


def _fail_move(name):
    """A fault injector: make ``os.replace`` raise when it moves the staged
    ``name`` into place."""
    real = os.replace

    def replace(src, dst):
        if os.path.basename(src) == f".{name}.partial":
            raise OSError(f"cannot move {name}")
        return real(src, dst)
    return lambda m: m.setattr(os, "replace", replace)


# (command, its last output before the manifest)
PUBLISH_COMMANDS = [("estimate-ove-sgd", "trace.csv"), ("train-ove-sgd", "report.json"),
                    ("train-soft", "report.json"), ("compare", "reports.json")]
PUBLISH_FAILURES = ["after-load", "numerical", "save", "write-manifest", "move-last-output",
                    "move-manifest"]


@pytest.mark.parametrize("command, last, failure", [
    (command, last, failure)
    for command, last in PUBLISH_COMMANDS
    for failure in PUBLISH_FAILURES
    if failure != "save" or command.startswith("train")
])
def test_failed_command_leaves_out_as_it_was(command, last, failure, toy_files, trained,
                                             tmp_path, monkeypatch, capsys):
    # a rerun that fails at any point leaves the previous run's files and
    # manifest byte for byte, with no staged file; into a fresh --out it
    # leaves nothing
    train, test = toy_files
    zero = tmp_path / "zero.bin"
    LinearModel.zeros(5, 2).save(str(zero))
    argv = {
        "estimate-ove-sgd": ["estimate", "--method", "ove-sgd", "--gen", "powerlaw",
                             "--K", "20", "--N", "500", "--S", "3", "--epochs", "2"],
        "train-ove-sgd": ["train", "--train", train, "--test", test, "--objective", "ove-sgd",
                          "--b", "10", "--S", "2", "--epochs", "2"],
        "train-soft": ["train", "--train", train, "--test", test, "--objective", "soft"],
        "compare": ["compare", "--reference", f"soft={trained['soft']}/checkpoint.bin",
                    "--candidate", f"ove={trained['ove']}/checkpoint.bin", "--test", test],
    }[command]
    inject = None
    if failure == "after-load":  # an error raised once the inputs are loaded
        extra, rc = {"estimate-ove-sgd": (["--S", "25"], cli.EXIT_CONFIG),
                     "train-ove-sgd": (["--lr", "1e300"], cli.EXIT_CONFIG),
                     "train-soft": (["--lam", "nan"], cli.EXIT_CONFIG),
                     "compare": (["--reference", f"zero={zero}"], cli.EXIT_DATA)}[command]
    elif failure == "numerical" and command == "estimate-ove-sgd":
        extra, rc = ["--lr", "1e308"], cli.EXIT_NUMERICAL  # the fit overflows
    else:
        extra, (inject, rc) = [], {
            "numerical": (_patch(cli, "_evaluate", NumericalError("overflow")),
                          cli.EXIT_NUMERICAL),
            "save": (_patch(LinearModel, "save", OSError("disk full")), cli.EXIT_DATA),
            "write-manifest": (_patch(RunManifest, "write", OSError("disk full")), cli.EXIT_DATA),
            "move-last-output": (_fail_move(last), cli.EXIT_DATA),
            "move-manifest": (_fail_move("manifest.json"), cli.EXIT_DATA),
        }[failure]

    def fail(out):
        with monkeypatch.context() as m:
            if inject is not None:
                inject(m)
            assert cli.main(argv + extra + ["--out", str(out)]) == rc
        assert capsys.readouterr().err.startswith("error: ")

    fresh = tmp_path / "fresh"
    fail(fresh)
    assert snapshot(fresh) in (None, {})
    out = tmp_path / "run"
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_OK
    before = snapshot(out)
    assert {last, "manifest.json"} <= before.keys()
    fail(out)
    assert snapshot(out) == before


def test_interrupted_command_leaves_out_as_it_was(toy_files, tmp_path, monkeypatch):
    # Ctrl-C during the evaluation, with the trace and the checkpoint staged
    train, test = toy_files
    out = tmp_path / "run"
    argv = ["train", "--train", train, "--test", test, "--objective", "soft", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    before = snapshot(out)
    monkeypatch.setattr(cli, "_evaluate", _raise(KeyboardInterrupt()))
    with pytest.raises(KeyboardInterrupt):
        cli.main(argv)
    assert snapshot(out) == before


class TestManifest:
    def test_precomputed_digest_must_be_full_scope(self, tmp_path):
        manifest = RunManifest(command=["train"])
        with pytest.raises(ValueError, match="precomputed"):
            manifest.add_output(tmp_path / "t.csv", scope="excluding-elapsed-ms", sha256="0" * 64)

    def test_failed_rerun_leaves_no_stale_manifest(self, toy_files, tmp_path, capsys):
        # the second run overwrites trace.csv and the checkpoint, then
        # overflows on the test set's extra row
        train, _ = toy_files
        test = tmp_path / "test.txt"
        with open(train, encoding="utf-8") as fh:
            test.write_text(fh.read() + "1 1:1e308\n", encoding="utf-8")
        out = str(tmp_path / "run")
        argv = ["train", "--train", train, "--objective", "soft", "--out", out]
        assert cli.main(argv + ["--lam", "1e-3"]) == 0
        assert cli.main(argv + ["--lam", "2e-3", "--test", str(test)]) == 1
        assert "overflowed" in capsys.readouterr().err
        path = os.path.join(out, "manifest.json")
        if os.path.exists(path):
            hashers = {SCOPE_FULL: sha256_file, SCOPE_NO_ELAPSED: sha256_csv_without_last_column}
            for entry in read_json(path)["outputs"]:
                assert hashers[entry["scope"]](entry["path"]) == entry["sha256"]


class TestReproducibility:
    def test_train_outputs_byte_identical(self, toy_files, tmp_path):
        train, test = toy_files
        argv = ["train", "--train", train, "--test", test,
                "--objective", "ove-sgd", "--b", "10", "--S", "2",
                "--lr", "0.05", "--epochs", "5", "--seed", "42",
                "--log-every", "20"]
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert cli.main(argv + ["--out", out]) == 0
            manifest = read_json(os.path.join(out, "manifest.json"))
            outs.append(
                sorted(
                    (os.path.basename(o["path"]), o["scope"], o["sha256"])
                    for o in manifest["outputs"]
                )
            )
        assert outs[0] == outs[1]

    def test_estimate_outputs_byte_identical(self, tmp_path):
        argv = ["estimate", "--method", "ove-sgd", "--gen", "powerlaw",
                "--K", "10", "--N", "2000", "--b", "20", "--S", "3",
                "--lr", "0.01", "--epochs", "5", "--seed", "11"]
        digests = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert cli.main(argv + ["--out", out]) == 0
            manifest = read_json(os.path.join(out, "manifest.json"))
            digests.append(
                sorted(
                    (os.path.basename(o["path"]), o["sha256"])
                    for o in manifest["outputs"]
                )
            )
        assert digests[0] == digests[1]

    def test_seed_changes_sgd_output(self, tmp_path):
        base = ["estimate", "--method", "ove-sgd", "--gen", "powerlaw",
                "--K", "10", "--N", "2000", "--b", "20", "--S", "3",
                "--lr", "0.01", "--epochs", "5"]
        digests = []
        for seed in ("11", "12"):
            out = str(tmp_path / seed)
            assert cli.main(base + ["--seed", seed, "--out", out]) == 0
            manifest = read_json(os.path.join(out, "manifest.json"))
            (probs_entry,) = [
                o for o in manifest["outputs"]
                if os.path.basename(o["path"]) == "probs.json"
            ]
            digests.append(probs_entry["sha256"])
        assert digests[0] != digests[1]


class TestEnvironment:
    def test_thread_env_var_applied(self, tmp_path, monkeypatch):
        for var in cli._THREAD_ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("SOFTMAX_BOUNDS_THREADS", "1")
        assert cli.main(["estimate", "--method", "exact", "--counts", "1,1",
                         "--out", str(tmp_path)]) == 0
        for var in cli._THREAD_ENV_VARS:
            assert os.environ[var] == "1"

    def test_thread_env_var_does_not_clobber(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "4")
        monkeypatch.setenv("SOFTMAX_BOUNDS_THREADS", "1")
        assert cli.main(["estimate", "--method", "exact", "--counts", "1,1",
                         "--out", str(tmp_path)]) == 0
        assert os.environ["OMP_NUM_THREADS"] == "4"

    def test_module_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "softmax_bounds.cli", "estimate",
             "--method", "exact", "--counts", "1,3", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        probs = read_json(os.path.join(str(tmp_path), "probs.json"))
        np.testing.assert_allclose(probs["probs"], [0.25, 0.75], atol=1e-12)

    def test_estimate_imports_no_scipy(self, tmp_path):
        # what keeps it so: ``_maximize`` lives in nonparam and the block
        # slicer in bounds, and only the dataset and linear-model code
        # imports scipy
        runs = [["--method", method, "--counts", "5,1,3"]
                for method in ("exact", "ove", "bouchard")]
        runs.append(["--method", "ove-sgd", "--gen", "powerlaw", "--K", "20", "--N", "200",
                     "--epochs", "2"])
        runs = [run + ["--out", str(tmp_path / str(i))] for i, run in enumerate(runs)]
        code = ("import json, sys\nfrom softmax_bounds import cli\n"
                "codes = [cli.main(['estimate', *run]) for run in json.loads(sys.argv[1])]\n"
                "scipy = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
                "print(json.dumps([codes, scipy]))")
        result = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1]) == [[0, 0, 0, 0], []]

    def test_help_exits_cleanly(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
