"""Command-line surface.

Subcommands: pretrain (prior fitting from a YAML run config), predict
(zero-shot prediction from CSVs), evaluate (seeded 80-20 splits over a suite
directory), analyze-prior (diversity diagnostics between ordinary and
adversarial generator collections). Failures exit non-zero with one
machine-parsable JSON line on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from .agents import AgentConfig
from .config import RunManifest, load_run_config
from .data_io import ingest_csv, ingest_features_with_schema, TARGET
from .diversity import ordinary_vs_adversarial
from .infer import predict
from .metrics import mse, roc_auc_ovo, score_summary
from .model import Model
from .prior import CLASSIFICATION
from .seeding import NS_EVAL, NS_MODEL_INIT, derive_rng, derive_seed
from .train import pretrain

log = logging.getLogger(__name__)


def _cmd_pretrain(args) -> int:
    cfg = load_run_config(args.config)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    checkpoint = outdir / "checkpoint.npz"
    manifest_path = outdir / "manifest.json"
    manifest = RunManifest.start(cfg, checkpoint)
    manifest.write(manifest_path)
    pretrain(cfg.train, cfg.model, cfg.space, cfg.agent,
             checkpoint_path=checkpoint,
             log_path=outdir / "train_log.ndjson",
             resume_from=Path(args.resume) if args.resume else None)
    manifest.complete(manifest_path)
    print(f"checkpoint written to {checkpoint}")
    return 0


def _cmd_predict(args) -> int:
    model, _, _ = Model.load(args.checkpoint)
    train_ds, schemas = ingest_csv(args.train, args.target)
    test_x, test_missing = ingest_features_with_schema(args.test, schemas)
    pred = predict(model, train_ds, test_x, test_missing, args.ensemble, args.seed)
    out = Path(args.output) if args.output else None
    lines = []
    if pred.task == CLASSIFICATION:
        target_schema = next(s for s in schemas if s.kind == TARGET)
        names = {v: k for k, v in target_schema.categories.items()}
        header = "row," + ",".join(f"p_{names[int(c)]}" for c in pred.classes)
        lines.append(header)
        for i, row in enumerate(pred.probs):
            lines.append(f"{i}," + ",".join(repr(float(p)) for p in row))
    else:
        lines.append("row,estimate")
        for i, m in enumerate(pred.mu):
            lines.append(f"{i},{float(m)!r}")
    text = "\n".join(lines) + "\n"
    if out:
        out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _split_score(model, ds, rng, seed) -> float:
    """One seeded 80-20 split; OVO ROC-AUC for classification, MSE otherwise.

    A classification split is redrawn until its test rows hold two classes;
    after 20 draws without one the split is refused before predicting."""
    n = ds.n
    l = max(1, int(round(0.8 * n)))
    for _ in range(20):
        order = rng.permutation(n)
        if ds.task != CLASSIFICATION or np.unique(ds.y_labels[order[l:]]).size >= 2:
            break
    else:
        raise ValueError("no split with two classes among the test rows "
                         "after 20 draws")
    train, test = ds.take(order[:l]), ds.take(order[l:])
    pred = predict(model, train, test.X.data, test.missing_mask, seed=seed)
    if ds.task == CLASSIFICATION:
        return roc_auc_ovo(pred.probs, test.y_labels, classes=pred.classes)
    return mse(pred.mu, test.y_values.data)


def _cmd_evaluate(args) -> int:
    model, _, _ = Model.load(args.checkpoint)
    suite = sorted(Path(args.suite).glob("*.csv"))
    if not suite:
        raise ValueError(f"no CSV files under {args.suite}")
    records = []
    matrix = []
    t0 = time.time()
    for di, path in enumerate(suite):
        ds, _ = ingest_csv(path, args.target)
        scores = []
        for s in range(args.splits):
            rng = derive_rng(args.seed, NS_EVAL, di, s)
            try:
                scores.append(_split_score(model, ds, rng, args.seed))
            except ValueError as err:
                log.warning("%s split %d skipped: %s", path.name, s, err)
                scores.append(float("nan"))
        matrix.append(scores)
        records.append({"dataset": path.stem, "task": ds.task,
                        "scores": scores,
                        "mean": float(np.nanmean(scores)),
                        "std": float(np.nanstd(scores))})
    elapsed = time.time() - t0
    summary = score_summary(np.array(matrix))
    if args.output:
        Path(args.output).write_text(
            "\n".join(json.dumps(r, sort_keys=True) for r in records)
            + "\n" + json.dumps({"summary": summary}, sort_keys=True) + "\n")
    width = max(len(rec["dataset"]) for rec in records)
    print(f"{'dataset':<{width}}  task            mean    std")
    for rec in records:
        print(f"{rec['dataset']:<{width}}  {rec['task']:<14}"
              f"{rec['mean']:>8.4f}{rec['std']:>8.4f}")
    print(f"overall mean {summary['mean']:.4f}  "
          f"std of mean {summary['std_of_mean']:.4f}  "
          f"mean of std {summary['mean_of_std']:.4f}  "
          f"failed splits {summary['failed_splits']}  "
          f"({elapsed:.1f}s)")
    return 0


def _cmd_analyze_prior(args) -> int:
    cfg = load_run_config(args.config)
    if args.checkpoint:
        model, _, _ = Model.load(args.checkpoint)
    else:
        model = Model(cfg.model, seed=derive_seed(cfg.train.seed, NS_MODEL_INIT))
    summary, grids = ordinary_vs_adversarial(
        model, cfg.space, cfg.agent or AgentConfig(), cfg.train.seed,
        args.datasets, args.rows)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "diversity.json").write_text(json.dumps(summary, indent=2,
                                                      sort_keys=True) + "\n")
    np.savez(outdir / "density_grids.npz", **grids)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="priorfit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="prior-fit a model from a run config")
    p.add_argument("--config", required=True)
    p.add_argument("--outdir", default="priorfit-run")
    p.add_argument("--resume", default=None)
    p.set_defaults(fn=_cmd_pretrain)

    p = sub.add_parser("predict", help="zero-shot prediction from CSVs")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--ensemble", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser("evaluate", help="seeded 80-20 splits over a suite directory")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--suite", required=True)
    p.add_argument("--splits", type=int, default=5)
    p.add_argument("--target", default=None,
                   help="target column (default: last header column per file)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("analyze-prior", help="diversity diagnostics")
    p.add_argument("--config", required=True)
    p.add_argument("--datasets", type=int, required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--rows", type=int, default=50)
    p.add_argument("--output", default="prior-analysis")
    p.set_defaults(fn=_cmd_analyze_prior)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING)
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as err:  # one-line machine-parsable failure record
        sys.stderr.write(json.dumps(
            {"error": type(err).__name__, "message": str(err)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
