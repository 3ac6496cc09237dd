import itertools
import json
import logging
import re
import subprocess
import sys
import threading
import warnings
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
import yaml

from priorfit import cli, infer
from priorfit.cli import main
from priorfit.config import RunConfig, dump_run_config, load_run_config
from priorfit.agents import AgentConfig
from priorfit.model import Model, ModelConfig
from priorfit.prior import (CLASSIFICATION, Dataset, GeneratorHyperSpace,
                            generate_dataset, sample_generator)
from priorfit.seeding import derive_rng
from priorfit.tensor import Tensor
from priorfit.train import TrainConfig
from priorfit.data_io import export_csv


TINY_YAML = """\
train:
  model_lr: 0.001
  datasets_per_step: 4
  accumulation_steps: 1
  total_datasets: 8
  rows: [16, 20]
  seed: 3
  eval_every: 2
  dtype: float64
model:
  d_model: 16
  n_blocks: 1
  n_heads: 2
  d_ff: 24
  feature_width: 3
space:
  feature_count: [2, 3]
  hidden_width: [6, 8]
  layer_count: [2, 2]
  categorical_fraction: [0.0, 0.0]
agent:
  fraction: 0.25
  reset_period: 3
"""


@pytest.fixture
def run_dir(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(TINY_YAML)
    out = tmp_path / "out"
    rc = main(["pretrain", "--config", str(cfg_path), "--outdir", str(out)])
    assert rc == 0
    return tmp_path, cfg_path, out


class TestStartup:
    def test_fresh_import_loads_every_module_and_no_scipy(self):
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import priorfit.cli; "
                "print(json.dumps(sorted(sys.modules)))")
        done = subprocess.run([sys.executable, "-c", code, str(src)],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        loaded = json.loads(done.stdout)
        package = {f"priorfit.{p.stem}" for p in (src / "priorfit").glob("*.py")
                   if p.stem != "__init__"}
        assert package <= set(loaded)
        assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def make_train_test_csv(tmp_path, seed=0, n=40):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    y = (x[:, 0] + 0.3 * x[:, 1] > 0).astype(int)
    lines = ["a,b,label"]
    for i in range(n):
        lines.append(f"{x[i,0]!r},{x[i,1]!r},{'pos' if y[i] else 'neg'}")
    train = tmp_path / "train.csv"
    train.write_text("\n".join(lines[:n // 2 + 1]) + "\n")
    test_lines = ["a,b"] + [",".join(line.split(",")[:2]) for line in lines[n // 2 + 1:]]
    test = tmp_path / "test.csv"
    test.write_text("\n".join(test_lines) + "\n")
    return train, test


class TestConfigFile:
    def test_yaml_round_trip(self, tmp_path):
        cfg = RunConfig(train=TrainConfig(seed=9, rows=(10, 20), total_datasets=64),
                        model=ModelConfig(d_model=32, n_heads=2),
                        space=GeneratorHyperSpace(feature_count=(2, 5)),
                        agent=AgentConfig(fraction=0.5))
        path = tmp_path / "cfg.yaml"
        dump_run_config(cfg, path)
        back = load_run_config(path)
        assert back == cfg

    def test_agent_free_round_trip_omits_agent(self, tmp_path):
        cfg = RunConfig(train=TrainConfig(seed=9, total_datasets=64),
                        model=ModelConfig(d_model=32, n_heads=2),
                        space=GeneratorHyperSpace(feature_count=(2, 5)))
        path = tmp_path / "cfg.yaml"
        dump_run_config(cfg, path)
        assert list(yaml.safe_load(path.read_text())) == ["train", "model", "space"]
        assert load_run_config(path) == cfg

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("train:\n  bogus_key: 1\n")
        with pytest.raises(ValueError):
            load_run_config(path)

    def test_missing_agent_block_means_none(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("train:\n  total_datasets: 16\n  datasets_per_step: 4\n")
        assert load_run_config(path).agent is None


class TestPretrainCommand:
    def test_writes_manifest_log_checkpoint(self, run_dir):
        _, _, out = run_dir
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "completed"
        assert manifest["seed"] == 3
        assert sorted(manifest["config"]) == ["agent", "model", "space", "train"]
        assert manifest["config"]["agent"]["reset_period"] == 3
        assert manifest["engine_version"]
        assert (out / "checkpoint.npz").exists()
        log_lines = (out / "train_log.ndjson").read_text().splitlines()
        assert len([l for l in log_lines if "nll" in l]) == 2

    def test_rerun_into_same_outdir_starts_a_fresh_log(self, run_dir):
        _, cfg_path, out = run_dir
        assert main(["pretrain", "--config", str(cfg_path), "--outdir", str(out)]) == 0
        records = [json.loads(l) for l in
                   (out / "train_log.ndjson").read_text().splitlines()]
        assert [r["step"] for r in records if "nll" in r] == [0, 1]

    def test_budget_arithmetic_one_step(self, tmp_path):
        cfg_path = tmp_path / "one.yaml"
        cfg_path.write_text(TINY_YAML.replace("total_datasets: 8",
                                              "total_datasets: 4"))
        out = tmp_path / "one-out"
        assert main(["pretrain", "--config", str(cfg_path),
                     "--outdir", str(out)]) == 0
        records = [json.loads(l) for l in
                   (out / "train_log.ndjson").read_text().splitlines()]
        assert len([r for r in records if "nll" in r]) == 1

    def test_checkpoint_bit_stable_under_fixed_seed(self, tmp_path):
        cfg_path = tmp_path / "run.yaml"
        cfg_path.write_text(TINY_YAML)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["pretrain", "--config", str(cfg_path),
                         "--outdir", str(out)]) == 0
            blobs.append((out / "checkpoint.npz").read_bytes())
        assert blobs[0] == blobs[1]


class TestPredictCommand:
    def test_probability_rows_sum_to_one(self, run_dir, tmp_path):
        _, _, out = run_dir
        train, test = make_train_test_csv(tmp_path)
        pred_path = tmp_path / "pred.csv"
        rc = main(["predict", "--checkpoint", str(out / "checkpoint.npz"),
                   "--train", str(train), "--test", str(test),
                   "--target", "label", "--output", str(pred_path)])
        assert rc == 0
        lines = pred_path.read_text().splitlines()
        assert lines[0] == "row,p_neg,p_pos" or lines[0] == "row,p_pos,p_neg"
        for line in lines[1:]:
            parts = line.split(",")
            assert float(parts[1]) + float(parts[2]) == pytest.approx(1.0, abs=1e-6)
        assert len(lines) - 1 == 20

    def test_prediction_file_bit_stable(self, run_dir, tmp_path):
        _, _, out = run_dir
        train, test = make_train_test_csv(tmp_path)
        texts = []
        for name in ("p1.csv", "p2.csv"):
            path = tmp_path / name
            assert main(["predict", "--checkpoint", str(out / "checkpoint.npz"),
                         "--train", str(train), "--test", str(test),
                         "--target", "label", "--ensemble", "3",
                         "--output", str(path)]) == 0
            texts.append(path.read_text())
        assert texts[0] == texts[1]

    def test_missing_checkpoint_errors_with_record(self, tmp_path, capsys):
        rc = main(["predict", "--checkpoint", str(tmp_path / "nope.npz"),
                   "--train", "x", "--test", "y", "--target", "z"])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()[-1]
        record = json.loads(err)
        assert "error" in record and "message" in record


class TestEvaluateCommand:
    def test_suite_report(self, run_dir, tmp_path, capsys):
        _, _, out = run_dir
        suite = tmp_path / "suite"
        suite.mkdir()
        space = GeneratorHyperSpace(feature_count=(2, 3), hidden_width=(6, 8),
                                    layer_count=(2, 2),
                                    categorical_fraction=(0.0, 0.0))
        for i in range(2):
            ds = generate_dataset(sample_generator(space, 50 + i), 40, seed=i)
            export_csv(ds, suite / f"ds{i}.csv")
        report_path = tmp_path / "report.ndjson"
        rc = main(["evaluate", "--checkpoint", str(out / "checkpoint.npz"),
                   "--suite", str(suite), "--splits", "3",
                   "--output", str(report_path)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "std of mean" in stdout and "mean of std" in stdout
        lines = report_path.read_text().splitlines()
        per_ds = [json.loads(l) for l in lines[:-1]]
        assert {r["dataset"] for r in per_ds} == {"ds0", "ds1"}
        assert all(len(r["scores"]) == 3 for r in per_ds)

    def test_refused_split_counted_not_scored(self, run_dir, tmp_path, capsys,
                                              monkeypatch):
        _, _, out = run_dir
        suite = tmp_path / "suite"
        suite.mkdir()
        space = GeneratorHyperSpace(feature_count=(2, 2), hidden_width=(6, 8),
                                    layer_count=(2, 2),
                                    categorical_fraction=(0.0, 0.0),
                                    classification_prob=0.0)
        ds = generate_dataset(sample_generator(space, 60), 40, seed=0)
        export_csv(ds, suite / "reg.csv")
        score = cli._split_score
        calls = []

        def refuse_second(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise ValueError("refused")
            return score(*args, **kwargs)

        monkeypatch.setattr(cli, "_split_score", refuse_second)
        report_path = tmp_path / "report.ndjson"
        rc = main(["evaluate", "--checkpoint", str(out / "checkpoint.npz"),
                   "--suite", str(suite), "--splits", "3",
                   "--output", str(report_path)])
        assert rc == 0
        assert "failed splits 1" in capsys.readouterr().out
        lines = report_path.read_text().splitlines()
        scores = json.loads(lines[0])["scores"]
        summary = json.loads(lines[-1])["summary"]
        assert scores[1] is None and np.isfinite([scores[0], scores[2]]).all()
        assert summary["failed_splits"] == 1
        # mean squared errors of the scored splits only; no 0.5 stands in
        assert summary["mean"] == pytest.approx((scores[0] + scores[2]) / 2)

    def test_quoted_header_default_target(self, run_dir, tmp_path):
        _, _, out = run_dir
        suite = tmp_path / "suite"
        suite.mkdir()
        space = GeneratorHyperSpace(feature_count=(2, 2), hidden_width=(6, 8),
                                    layer_count=(2, 2),
                                    categorical_fraction=(0.0, 0.0),
                                    classification_prob=0.0)
        ds = generate_dataset(sample_generator(space, 61), 30, seed=0)
        export_csv(ds, suite / "prices.csv", target_name="price, usd")
        assert (suite / "prices.csv").read_text().splitlines()[0].endswith('"price, usd"')
        report_path = tmp_path / "report.ndjson"
        rc = main(["evaluate", "--checkpoint", str(out / "checkpoint.npz"),
                   "--suite", str(suite), "--splits", "2",
                   "--output", str(report_path)])
        assert rc == 0
        record = json.loads(report_path.read_text().splitlines()[0])
        assert record["task"] == "regression"
        assert np.isfinite(record["scores"]).all()

    @pytest.mark.xfail(strict=True, reason=(
        "SeedSequence zero-pads its entropy, so split 0 of file k, "
        "derive_rng(seed, NS_EVAL, k, 0), is the stream predict draws as "
        "derive_rng(seed, NS_EVAL, k) for k = 1, 2, 3"))
    def test_split_streams_disjoint_from_predict_streams(self, run_dir, tmp_path,
                                                         monkeypatch):
        _, _, out = run_dir
        suite = tmp_path / "suite"
        suite.mkdir()
        space = GeneratorHyperSpace(feature_count=(2, 2), hidden_width=(6, 8),
                                    layer_count=(2, 2),
                                    categorical_fraction=(0.0, 0.0),
                                    classification_prob=0.0)
        for i in range(4):
            ds = generate_dataset(sample_generator(space, 70 + i), 30, seed=i)
            export_csv(ds, suite / f"ds{i}.csv")
        sites = defaultdict(set)    # generator state -> the call sites that drew it

        def spy(*parts):
            rng = derive_rng(*parts)
            caller = sys._getframe(1)
            sites[repr(rng.bit_generator.state)].add(
                (caller.f_code.co_filename, caller.f_lineno))
            return rng

        monkeypatch.setattr(cli, "derive_rng", spy)
        monkeypatch.setattr(infer, "derive_rng", spy)
        rc = main(["evaluate", "--checkpoint", str(out / "checkpoint.npz"),
                   "--suite", str(suite), "--splits", "1"])
        assert rc == 0 and sites
        shared = [sorted(s) for s in sites.values() if len(s) > 1]
        assert not shared, f"streams drawn at more than one call site: {shared}"

    def test_empty_suite_fails(self, run_dir, tmp_path):
        _, _, out = run_dir
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(["evaluate", "--checkpoint", str(out / "checkpoint.npz"),
                   "--suite", str(empty), "--splits", "2"])
        assert rc == 1


def evaluation_suite(suite, rows=40):
    """Two generated tables of `rows` rows and, between and after them, two
    five-row classification tables whose single test row refuses every split."""
    suite.mkdir()
    space = GeneratorHyperSpace(feature_count=(2, 3), hidden_width=(6, 8),
                                layer_count=(2, 2), categorical_fraction=(0.0, 0.0))
    labels = np.array([0, 1, 0, 1, 0])
    tiny = Dataset(X=Tensor(np.arange(10.0).reshape(5, 2)),
                   y_values=Tensor(labels.astype(float)), y_labels=labels,
                   cat_mask=np.zeros(2, dtype=bool), task=CLASSIFICATION, n_classes=2)
    for i, name in enumerate(["a", "c"]):
        export_csv(generate_dataset(sample_generator(space, 80 + i), rows, seed=i),
                   suite / f"{name}.csv")
    for name in ("b_tiny", "d_tiny"):
        export_csv(tiny, suite / f"{name}.csv")
    return suite


class TestThreadedEvaluate:
    """evaluate scores its (dataset, split) pairs on infer._idle_cpu_threads
    threads; the report, the table and the warnings do not depend on the
    count, and no thread outlives the command."""

    @staticmethod
    def evaluate(monkeypatch, capsys, caplog, workers, checkpoint, suite, report,
                 splits=3):
        monkeypatch.setattr(infer, "_idle_cpu_threads", lambda n_tasks: workers)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="priorfit.cli"):
            rc = main(["evaluate", "--checkpoint", str(checkpoint), "--suite", str(suite),
                       "--splits", str(splits), "--output", str(report)])
        assert rc == 0
        table = capsys.readouterr().out
        assert re.search(r"\(\d+\.\ds, \d+\.\d\ds per dataset\)\n$", table)
        skipped = [r.getMessage() for r in caplog.records if "skipped" in r.getMessage()]
        return report.read_bytes(), re.sub(r"\([^()]*per dataset\)", "", table), skipped

    def test_report_table_and_warnings_independent_of_thread_count(
            self, run_dir, tmp_path, capsys, caplog, monkeypatch):
        _, _, out = run_dir
        suite = evaluation_suite(tmp_path / "suite")
        score, threads = cli._split_score, set()

        def spied(*args, **kwargs):
            threads.add(threading.current_thread() is threading.main_thread())
            return score(*args, **kwargs)

        monkeypatch.setattr(cli, "_split_score", spied)
        runs = {}
        for workers in (1, 2):
            threads.clear()
            runs[workers] = self.evaluate(monkeypatch, capsys, caplog, workers,
                                          out / "checkpoint.npz", suite,
                                          tmp_path / f"report{workers}.ndjson")
            assert threads == {workers == 1}  # on the main thread only when serial
        assert runs[1] == runs[2]
        report, table, skipped = runs[2]
        assert "failed splits 6" in table
        assert json.loads(report.splitlines()[-1])["summary"]["failed_splits"] == 6
        assert [m.split(":")[0] for m in skipped] == [
            f"{name}.csv split {s} skipped" for name in ("b_tiny", "d_tiny")
            for s in range(3)]

    def test_report_is_strict_json_without_warnings(self, run_dir, tmp_path, capsys,
                                                   caplog, monkeypatch):
        _, _, out = run_dir
        suite = evaluation_suite(tmp_path / "suite")

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report, table, _ = self.evaluate(monkeypatch, capsys, caplog, 2,
                                             out / "checkpoint.npz", suite,
                                             tmp_path / "report.ndjson")
        records = [json.loads(line, parse_constant=refuse)
                   for line in report.decode().splitlines()]
        by_name = {r["dataset"]: r for r in records[:-1]}
        for name in ("b_tiny", "d_tiny"):
            assert by_name[name]["scores"] == [None] * 3
            assert by_name[name]["mean"] is None and by_name[name]["std"] is None
        for name in ("a", "c"):
            assert np.isfinite([*by_name[name]["scores"], by_name[name]["mean"],
                                by_name[name]["std"]]).all()
        assert re.search(r"\nb_tiny +classification +nan +nan\n", table)

    def test_decode_threads_nested_in_evaluate_threads(
            self, run_dir, tmp_path, capsys, caplog, monkeypatch):
        _, _, out = run_dir
        rows = 2600  # 520 test rows per split: two decode chunks
        assert rows - round(0.8 * rows) > infer.QUERY_CHUNK
        suite = evaluation_suite(tmp_path / "suite", rows=rows)
        runs = [self.evaluate(monkeypatch, capsys, caplog, workers, out / "checkpoint.npz",
                              suite, tmp_path / f"report{workers}.ndjson", splits=2)
                for workers in (1, 2)]
        assert runs[0] == runs[1]

    def test_job_error_exits_1_and_joins_every_thread(self, run_dir, tmp_path, capsys,
                                                      monkeypatch):
        _, _, out = run_dir
        suite = evaluation_suite(tmp_path / "suite")
        monkeypatch.setattr(infer, "_idle_cpu_threads", lambda n_tasks: 2)
        calls, score = itertools.count(1), cli._split_score

        def third_fails(*args, **kwargs):
            if next(calls) == 3:
                raise RuntimeError("split failed")
            return score(*args, **kwargs)

        monkeypatch.setattr(cli, "_split_score", third_fails)
        before = threading.active_count()
        rc = main(["evaluate", "--checkpoint", str(out / "checkpoint.npz"),
                   "--suite", str(suite), "--splits", "3"])
        assert rc == 1
        assert threading.active_count() == before
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert json.loads(err) == {"error": "RuntimeError", "message": "split failed"}


class TestSplitScore:
    def test_single_class_test_rows_refused_before_predicting(self, monkeypatch):
        # five rows leave one test row per 80-20 split: never two classes
        labels = np.array([0, 1, 0, 1, 0])
        ds = Dataset(X=Tensor(np.arange(10.0).reshape(5, 2)),
                     y_values=Tensor(labels.astype(float)), y_labels=labels,
                     cat_mask=np.zeros(2, dtype=bool), task=CLASSIFICATION,
                     n_classes=2)
        calls = []
        monkeypatch.setattr(cli, "predict", lambda *a, **kw: calls.append(a))
        with pytest.raises(ValueError, match="two classes"):
            cli._split_score(None, ds, np.random.default_rng(0), seed=0)
        assert calls == []


class TestCountFlags:
    """A count flag below its minimum is refused by name before the config or
    checkpoint loads; neither file exists here."""

    @pytest.mark.parametrize("argv, message", [
        (["evaluate", "--suite", "suite", "--splits", "0"],
         "--splits must be at least 1, got 0"),
        (["analyze-prior", "--config", "run.yaml", "--datasets", "0"],
         "--datasets must be at least 1, got 0"),
        (["analyze-prior", "--config", "run.yaml", "--datasets", "2", "--rows", "3"],
         "--rows must be at least 4, got 3"),
    ])
    def test_refused_by_name(self, tmp_path, capsys, argv, message):
        rc = main(argv + ["--checkpoint", str(tmp_path / "nope.npz")])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert json.loads(err) == {"error": "ValueError", "message": message}


class TestAnalyzePriorCommand:
    def test_writes_report_and_grids(self, run_dir, tmp_path):
        _, cfg_path, out = run_dir
        analysis = tmp_path / "analysis"
        rc = main(["analyze-prior", "--config", str(cfg_path),
                   "--datasets", "8", "--rows", "24",
                   "--checkpoint", str(out / "checkpoint.npz"),
                   "--output", str(analysis)])
        assert rc == 0
        summary = json.loads((analysis / "diversity.json").read_text())
        assert summary["kl_ordinary_vs_ordinary"] >= 0
        assert summary["kl_ordinary_vs_adversarial"] >= 0
        grids = np.load(analysis / "density_grids.npz")
        assert grids["ordinary_a"].shape == (64, 64)
        assert grids["adversarial"].shape == (64, 64)
