"""The four benchmark workloads.

Each workload builds its inputs from the run seed with the project's own
generators (sample_generator, generate_dataset, export_csv), then runs one
operation per loop iteration: a train step, a predict request, an evaluate
pass, or a CLI predict call. Generator mechanisms are drawn from fixed seeds
so that the seed varies the rows drawn, not the shape of the work; the desk
checkpoint the predict workloads use comes from a short fixed-seed pre-train
inside set-up.

Every entry point is looked up on its module at call time, so the tracer's
wrappers (when installed) are the ones called.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
from pathlib import Path
from typing import Optional

import numpy as np

from priorfit import cli, data_io, infer, prior, train
from priorfit.config import load_run_config
from priorfit.metrics import mse, roc_auc_ovo
from priorfit.model import Model
from priorfit.prior import CLASSIFICATION, REGRESSION, Dataset
from priorfit.seeding import derive_seed
from priorfit.tensor import Tensor

CONFIG = Path(__file__).resolve().parent / "desk.yaml"
MECHANISM_SEED = 4573    # generator mechanisms; the run seed draws the rows
SETUP_PRETRAIN_SEED = 1234
PROB_TOLERANCE = 1e-6

FULL = {
    "setup_repeats": 3,
    "setup_steps": 10,
    "nll_window": (60, 100),
    "context_rows": 1000,
    "request_rows": 100,
    "request_pool": 200,
    # (rows, features, task) per suite file
    "suite": [(150 * (k + 1), 3 + k, CLASSIFICATION if k % 2 == 0 else REGRESSION)
              for k in range(8)],
    "splits": 5,
    "bulk_train": 1000,
    "bulk_test": 10000,
    "bulk_features": 4,
}

TINY = {
    "setup_repeats": 1,
    "setup_steps": 2,
    "nll_window": (1, 3),
    "context_rows": 120,
    "request_rows": 20,
    "request_pool": 4,
    "suite": [(80, 3, CLASSIFICATION), (90, 5, REGRESSION)],
    "splits": 2,
    "bulk_train": 100,
    "bulk_test": 300,
    "bulk_features": 4,
}


class StopRun(Exception):
    """Raised at a train-step boundary when the measuring window is over."""


def desk_config(seed: Optional[int] = None):
    cfg = load_run_config(CONFIG)
    if seed is not None:
        cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, seed=seed))
    return cfg


def _subset(ds: Dataset, rows) -> Dataset:
    """Rows of a generated dataset (no missing cells), as a new Dataset."""
    return Dataset(X=Tensor(ds.X.data[rows]), y_values=Tensor(ds.y_values.data[rows]),
                   y_labels=None if ds.y_labels is None else ds.y_labels[rows],
                   cat_mask=ds.cat_mask, task=ds.task, n_classes=ds.n_classes)


def draw_dataset(space, mechanism: tuple, draw_seed: int, n: int) -> Dataset:
    """n rows from the first usable generator of a fixed mechanism stream;
    only the rows depend on draw_seed."""
    for attempt in range(100):
        g = prior.sample_generator(space, derive_seed(MECHANISM_SEED, *mechanism, attempt))
        try:
            return prior.generate_dataset(g, n, derive_seed(draw_seed, attempt))
        except RuntimeError:
            continue
    raise RuntimeError(f"no usable generator for mechanism {mechanism}")


def short_pretrain(work: Path, steps: int) -> Path:
    """Fixed-seed desk pre-train for the checkpoint the predict paths load."""
    cfg = desk_config(SETUP_PRETRAIN_SEED)
    checkpoint = work / "desk.npz"
    train.pretrain(cfg.train, cfg.model, cfg.space, cfg.agent,
                   checkpoint_path=checkpoint, stop_after_steps=steps)
    return checkpoint


class _NoSteps:
    """A loop that is already over: pretrain stops before its first step."""

    attempted = 0

    def more(self) -> bool:
        return False


def _exit_ok(code: int) -> None:
    if code != 0:
        raise RuntimeError(f"priorfit CLI exited with code {code}")


class Workload:
    name = ""
    op_name = ""        # the op's user-facing name, for <op_name>_ms_p50/p90
    rate_name = ""      # the user-facing name of items_per_s
    unit_of_work = ""
    min_ops = 1

    def __init__(self, sizes: dict):
        self.sizes = sizes

    def setup(self, work: Path, seed: int):
        raise NotImplementedError

    def run(self, state, loop) -> None:
        """Drive ops through loop.call until loop.more() is False. An op that
        raises returns None from loop.call and is already counted as failed."""
        while loop.more():
            out = loop.call(self.op, state, loop.attempted)
            if out is not None:
                loop.record(out, self.check(state, out))

    def op(self, state, i: int):
        raise NotImplementedError

    def check(self, state, out) -> bool:
        raise NotImplementedError

    def items_per_op(self, state) -> float:
        raise NotImplementedError

    def quality(self, state, outputs: list) -> tuple[float, dict]:
        """The generic lower-is-better error, and the quality figures under
        their user-facing names as (value, unit, better)."""
        raise NotImplementedError

    def same_output(self, a, b) -> bool:
        raise NotImplementedError


class PretrainDesk(Workload):
    name = "pretrain_desk"
    op_name = "train_step"
    rate_name = "train_episodes_per_s"
    unit_of_work = "episodes"

    @property
    def min_ops(self):
        return self.sizes["nll_window"][1]

    def setup(self, work: Path, seed: int):
        """Load the config and run pretrain up to its first step, which
        covers the model, agent pool and log set-up a real run pays."""
        state = {"cfg": desk_config(seed), "work": work, "runs": 0}
        self.run(state, _NoSteps())
        return state

    def run(self, state, loop) -> None:
        cfg = state["cfg"]
        out = state["work"] / f"run{state['runs']}"
        state["runs"] += 1
        out.mkdir(parents=True, exist_ok=True)
        inner = train.train_step

        def step(*args, **kwargs):
            if not loop.more():
                raise StopRun
            rec = loop.call(inner, *args, **kwargs)
            if rec is None:  # the step raised; the run cannot continue
                raise StopRun
            loop.record(rec, self.check(state, rec))
            return rec

        train.train_step = step
        try:
            train.pretrain(cfg.train, cfg.model, cfg.space, cfg.agent,
                           checkpoint_path=out / "checkpoint.npz",
                           log_path=out / "train_log.ndjson")
        except StopRun:
            pass
        finally:
            train.train_step = inner

    def check(self, state, rec) -> bool:
        return math.isfinite(rec["nll"]) and not rec["skipped"]

    def items_per_op(self, state) -> float:
        return state["cfg"].train.effective_batch

    def quality(self, state, outputs):
        lo, hi = self.sizes["nll_window"]
        nll = float(np.mean([r["nll"] for r in outputs[lo:hi]]))
        return nll, {"train_final_nll": (nll, "nat", "lower")}

    def same_output(self, a, b) -> bool:
        return a["nll"] == b["nll"]


class PredictSharedContext(Workload):
    name = "predict_shared_context"
    op_name = "predict"
    rate_name = "predict_rows_per_s"
    unit_of_work = "test rows"

    def setup(self, work: Path, seed: int):
        s = self.sizes
        model, _, _ = Model.load(short_pretrain(work, s["setup_steps"]))
        space = desk_config().space
        n_ctx, n_req = s["context_rows"], s["request_rows"]
        ds = draw_dataset(space, (1,), derive_seed(seed, 1), n_ctx + n_req * s["request_pool"])
        requests = [np.arange(n_ctx + k * n_req, n_ctx + (k + 1) * n_req)
                    for k in range(s["request_pool"])]
        return {"model": model, "context": _subset(ds, np.arange(n_ctx)),
                "x": ds.X.data, "labels": ds.y_labels, "requests": requests,
                "classes": np.unique(ds.y_labels[:n_ctx]),
                "checksum": model.checksum()}

    def op(self, state, i):
        rows = state["requests"][i % len(state["requests"])]
        return i, infer.predict(state["model"], state["context"], state["x"][rows])

    def check(self, state, out) -> bool:
        _, pred = out
        p = pred.probs
        return bool(np.isfinite(p).all() and (p >= 0).all() and (p <= 1).all()
                    and np.allclose(p.sum(axis=1), 1.0, rtol=0, atol=PROB_TOLERANCE)
                    and np.array_equal(pred.classes, state["classes"])
                    and state["model"].checksum() == state["checksum"])

    def items_per_op(self, state) -> float:
        return self.sizes["request_rows"]

    def quality(self, state, outputs):
        probs, labels = [], []
        for i, pred in outputs:
            probs.append(pred.probs)
            labels.append(state["labels"][state["requests"][i % len(state["requests"])]])
        probs, labels = np.concatenate(probs), np.concatenate(labels)
        col = {c: j for j, c in enumerate(state["classes"])}
        p_true = np.array([probs[r, col[c]] if c in col else 0.0
                           for r, c in enumerate(labels)])
        log_loss = float(-np.mean(np.log(np.maximum(p_true, 1e-15))))
        auc = roc_auc_ovo(probs, labels, classes=state["classes"])
        return log_loss, {"predict_auc": (auc, "1", "higher"),
                          "predict_log_loss": (log_loss, "nat", "lower")}

    def same_output(self, a, b) -> bool:
        return a[0] == b[0] and np.array_equal(a[1].probs, b[1].probs)


class EvaluateSuite(Workload):
    name = "evaluate_suite"
    op_name = "eval_pass"
    rate_name = "eval_splits_per_s"
    unit_of_work = "splits"

    def setup(self, work: Path, seed: int):
        s = self.sizes
        checkpoint = short_pretrain(work, s["setup_steps"])
        base = desk_config().space
        suite = work / "suite"
        suite.mkdir()
        tasks = {}
        for k, (rows, features, task) in enumerate(s["suite"]):
            space = dataclasses.replace(
                base, feature_count=(features, features), hidden_width=(12, 24),
                class_count=(2, 4), categorical_fraction=(0.2, 0.5),
                classification_prob=1.0 if task == CLASSIFICATION else 0.0)
            ds = draw_dataset(space, (2, k), derive_seed(seed, 2, k), rows)
            data_io.export_csv(ds, suite / f"d{k}.csv")
            tasks[f"d{k}"] = task
        return {"argv": ["evaluate", "--checkpoint", str(checkpoint), "--suite",
                         str(suite), "--splits", str(s["splits"]), "--seed", str(seed),
                         "--output", str(work / "evaluate.ndjson")],
                "output": work / "evaluate.ndjson", "tasks": tasks}

    def op(self, state, i):
        with contextlib.redirect_stdout(io.StringIO()):
            _exit_ok(cli.main(state["argv"]))
        lines = state["output"].read_text().splitlines()
        return [json.loads(line) for line in lines if '"dataset"' in line]

    def check(self, state, records) -> bool:
        splits = self.sizes["splits"]
        return (records == state.setdefault("first_output", records)
                and sorted(r["dataset"] for r in records) == sorted(state["tasks"])
                and all(r["task"] == state["tasks"][r["dataset"]]
                        and len(r["scores"]) == splits
                        and all(math.isfinite(v) for v in r["scores"])
                        for r in records))

    def items_per_op(self, state) -> float:
        return len(state["tasks"]) * self.sizes["splits"]

    def quality(self, state, outputs):
        records = outputs[-1]
        auc = [np.mean(r["scores"]) for r in records if r["task"] == CLASSIFICATION]
        err = [np.mean(r["scores"]) for r in records if r["task"] == REGRESSION]
        # per-dataset error: 1 - AUC for classification, MSE for regression
        per_dataset = [1.0 - a for a in auc] + err
        return float(np.mean(per_dataset)), {
            "eval_mean_auc": (float(np.mean(auc)), "1", "higher"),
            "eval_mean_mse": (float(np.mean(err)), "1", "lower")}

    def same_output(self, a, b) -> bool:
        return a == b


class PredictBulk(Workload):
    name = "predict_bulk"
    op_name = "bulk_call"
    rate_name = "bulk_test_rows_per_s"
    unit_of_work = "test rows"

    def setup(self, work: Path, seed: int):
        s = self.sizes
        checkpoint = short_pretrain(work, s["setup_steps"])
        d = s["bulk_features"]
        space = dataclasses.replace(
            desk_config().space, feature_count=(d, d), categorical_fraction=(0.2, 0.5),
            classification_prob=0.0)
        n_train, n_test = s["bulk_train"], s["bulk_test"]
        ds = draw_dataset(space, (3,), derive_seed(seed, 3), n_train + n_test)
        test = _subset(ds, np.arange(n_train, n_train + n_test))
        data_io.export_csv(_subset(ds, np.arange(n_train)), work / "train.csv")
        data_io.export_csv(test, work / "test.csv")
        output = work / "predictions.csv"
        return {"argv": ["predict", "--checkpoint", str(checkpoint),
                         "--train", str(work / "train.csv"), "--test", str(work / "test.csv"),
                         "--target", "target", "--output", str(output)],
                "output": output, "truth": test.y_values.data}

    def op(self, state, i):
        _exit_ok(cli.main(state["argv"]))
        return state["output"].read_text()

    def check(self, state, text) -> bool:
        lines = text.splitlines()
        if (text != state.setdefault("first_output", text) or lines[0] != "row,estimate"
                or len(lines) != state["truth"].size + 1):
            return False
        rows = [line.split(",") for line in lines[1:]]
        estimates = np.array([float(v) for _, v in rows])
        return ([int(r) for r, _ in rows] == list(range(len(rows)))
                and bool(np.isfinite(estimates).all()))

    def items_per_op(self, state) -> float:
        return state["truth"].size

    def quality(self, state, outputs):
        estimates = np.array([float(line.split(",")[1])
                              for line in outputs[-1].splitlines()[1:]])
        value = mse(estimates, state["truth"])
        return value, {"bulk_mse": (value, "1", "lower")}

    def same_output(self, a, b) -> bool:
        return a == b


WORKLOADS = {w.name: w for w in (PretrainDesk, PredictSharedContext, EvaluateSuite,
                                 PredictBulk)}


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path
