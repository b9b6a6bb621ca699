import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from softmax_bounds import cli
from softmax_bounds.datasets import gen_toy_5class, write_sparse
from softmax_bounds.linear_model import LinearModel


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


def read_trace(path):
    with open(path, "r", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


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

    def test_negative_seed_is_config_error(self, toy_files, tmp_path, capsys):
        train, _ = toy_files
        rc = cli.main(["train", "--train", train, "--objective", "ove-sgd",
                       "--seed", "-2", "--out", str(tmp_path / "run")])
        assert rc == 2
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -2\n"

    @pytest.mark.parametrize("objective", ["ove", "soft", "ove-sgd"])
    def test_nan_lam(self, toy_files, tmp_path, capsys, objective):
        train, _ = toy_files
        rc = cli.main(["train", "--train", train, "--objective", objective,
                       "--lam", "nan", "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "lam must be >= 0, got nan" in capsys.readouterr().err

    def test_too_many_sampled_classes(self, toy_files, tmp_path):
        train, _ = toy_files
        rc = cli.main(["train", "--train", train, "--objective", "ove-sgd",
                       "--S", "10", "--out", str(tmp_path / "run")])
        assert rc == 2


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

    def test_shape_mismatch(self, toy_files, tmp_path, capsys):
        _, test = toy_files
        ckpt = tmp_path / "wrong.bin"
        LinearModel.zeros(3, 7).save(str(ckpt))
        rc = cli.main(["compare", "--reference", f"wrong={ckpt}",
                       "--candidate", f"also={ckpt}",
                       "--test", test, "--out", str(tmp_path / "cmp")])
        assert rc == 3
        assert "test set" in capsys.readouterr().err


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

    def test_help_exits_cleanly(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
