"""Print the sha256 of fixed-seed pre-training and prediction artifacts for
one source tree.

A refactor that must not move numerics is checked by running this once
against the parent checkout and once against the change, then diffing the
two outputs:

    python3 scripts/reference_hashes.py path/to/parent/src > parent.txt
    python3 scripts/reference_hashes.py src > change.txt
    diff parent.txt change.txt

The training runs: the acceptance suite's criterion-12 CLI config;
configs/desk.yaml of the same checkout at 12 steps (checkpoint and NDJSON
training log); and 12 steps of 8 mixed-task episodes with agents at fraction
0.25 and without agents. Each checkpoint's line is followed by a `_params`
line, the `Model.checksum()` of the parameters it loads to: a change to the
checkpoint header alone moves the file's sha256 but not that line.

The prediction runs use the criterion-12 checkpoint: CLI `predict` of a
classification and a regression table with 3 and with 105 features (blank
cells and categorical columns in both files), at `--ensemble` 1 and 3, with
`infer.BATCH_CAP` at its default and at 50; the 105-feature lines are the
ones that subsample down to `infer.FEATURE_BUDGET` columns. Then the
`evaluate` NDJSON of a 4-file suite and the `analyze-prior` outputs. Next
come CLI `predict` of a classification and a regression table with 3
features on the float32 desk checkpoint, the one path that predicts in
float32, and with a LARGE_CONTEXT_ROWS-row context, whose attention scores
outgrow the L2 cache. Then CLI `predict` on the criterion-12 checkpoint of a
hand-written classification and regression table (`write_edge_tables`) whose
cells exercise the CSV ingest rules. Then CLI `predict` on the float32 desk
checkpoint of MULTI_CHUNK_TEST_ROWS test rows, more than one
`infer.QUERY_CHUNK`, the only lines that decode more than one chunk, and
of a MANY_CLASSES-class table, the only line whose mixture head scatters
over more than the prior's 2-4 classes.
Last, `infer.predict` called directly on the float32 desk checkpoint
with a generated API_CONTEXT_ROWS-row context (`Dataset.take`) and
API_TEST_ROWS bare test rows, neither split with a missing mask, the only
lines that do not pass through CSV ingest.

The last six lines cover resume, agent resets and the dense head. The mixed
agent run is repeated with a reset every RESET_PERIOD steps (checkpoint and
NDJSON log), then once more cut after RESUME_AFTER_STEPS steps and resumed
from its own checkpoint into the same files; both pairs of lines match the
uninterrupted run's. Then the criterion-12 CLI config with `head: dense`
(checkpoint) and a CLI `predict` of a 3-feature classification table with
it. These checkpoints have no `_params` line.

Only long-standing names are used (`cli.main`, `export_csv`, `pretrain`,
`generate_dataset`, `infer.BATCH_CAP`, `infer.predict`, `Model.load`,
`Model.checksum`, `Dataset.take`), so one command covers both trees of a
refactor.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import sys
import tempfile
from pathlib import Path

CLI_CONFIG = (
    "train: {model_lr: 0.001, datasets_per_step: 4, total_datasets: 8, "
    "rows: [16, 20], seed: 5, eval_every: 2}\n"
    "model: {d_model: 16, n_blocks: 1, n_heads: 2, d_ff: 24, feature_width: 3}\n"
    "space: {feature_count: [2, 3], hidden_width: [6, 8], "
    "layer_count: [2, 2], categorical_fraction: [0.0, 0.0]}\n")

DESK_STEPS = 12
MIXED_STEPS = 12
MIXED_BATCH = 8
RESET_PERIOD = 3
RESUME_AFTER_STEPS = 5

PREDICT_TRAIN_ROWS = 60
LARGE_CONTEXT_ROWS = 1000
PREDICT_TEST_ROWS = 20
MULTI_CHUNK_TEST_ROWS = 600
MANY_CLASSES = 10
MANY_CLASS_TRAIN_ROWS = 160
MANY_CLASS_TEST_ROWS = 40
API_CONTEXT_ROWS = 600
API_TEST_ROWS = 100
SMALL_BATCH_CAP = 50
SUITE_ROWS = 40
MISSING_SHARE = 0.1


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def quiet_cli(argv: list) -> None:
    """Run one priorfit command with its stdout discarded; refuse on failure."""
    from priorfit.cli import main as cli_main
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli_main(argv)
    if rc != 0:
        raise RuntimeError(f"priorfit {argv[0]} exited with code {rc}")


def generated_table(classification: bool, d: int, n: int, seed: int,
                    classes: tuple = None):
    """A fixed-seed generated Dataset of n rows with categorical columns;
    classes is the class-count range, the prior's default when None."""
    from priorfit.prior import (GeneratorHyperSpace, generate_dataset,
                                sample_generator)
    width = max(8, d)
    space = GeneratorHyperSpace(
        feature_count=(d, d), hidden_width=(width, width), layer_count=(3, 3),
        categorical_fraction=(0.3, 0.3),
        classification_prob=1.0 if classification else 0.0,
        **({} if classes is None else {"class_count": classes}))
    return generate_dataset(sample_generator(space, seed), n, seed)


def export_table(path: Path, classification: bool, d: int, n: int,
                 seed: int, classes: tuple = None) -> None:
    """Write a fixed-seed generated table with categorical columns and about
    MISSING_SHARE blank feature cells."""
    import numpy as np
    from priorfit.data_io import export_csv
    ds = generated_table(classification, d, n, seed, classes)
    ds.missing_mask = np.random.default_rng(seed).random((n, d)) < MISSING_SHARE
    export_csv(ds, path)


def split_table(work: Path, classification: bool, d: int,
                n: int = PREDICT_TRAIN_ROWS, n_test: int = PREDICT_TEST_ROWS,
                classes: tuple = None) -> None:
    """Write train.csv (n rows) and test.csv (n_test rows) of a fixed-seed
    table with d features."""
    export_table(work / "table.csv", classification, d, n + n_test, seed=d,
                 classes=classes)
    header, *rows = (work / "table.csv").read_text().splitlines(True)
    (work / "train.csv").write_text(header + "".join(rows[:n]))
    (work / "test.csv").write_text(header + "".join(rows[n:]))


MISSING_SPELLINGS = (" NA ", "n/a", "?", "None")
CATEGORY_SPELLINGS = (" x", "x", "X", "y", '"comma, inside"', '"two\nlines"')


def write_edge_tables(work: Path, classification: bool) -> None:
    """Write train.csv (60 rows) and test.csv (12 rows) whose cells exercise
    the ingest rules: a numeric column of 22 distinct raw tokens ("1".."11"
    and " 1".." 11") that strips to 11, "1_000", the missing spellings in
    MISSING_SPELLINGS, categories that differ by a leading space or by case,
    a quoted comma and a quoted line break. The test file adds a short row,
    an unseen category and an unparseable numeric cell."""
    train = ["num,cat,real,target"]
    for i in range(60):
        num = f"{' ' * ((i // 11) % 2)}{i % 11 + 1}"
        if i == 7:
            num = "1_000"
        elif i % 15 == 14:
            num = MISSING_SPELLINGS[i // 15]
        cat = "" if i % 13 == 12 else CATEGORY_SPELLINGS[i % len(CATEGORY_SPELLINGS)]
        real = "" if i % 17 == 16 else f"{(i * 37 % 101) / 7:.4f}"
        target = ("no", "yes", "maybe")[(i * 7 + i // 5) % 3] if classification \
            else f"{(i * 29 % 61) * 0.25 - 3:.3f}"
        train.append(f"{num},{cat},{real},{target}")
    test = ["num,cat,real",
            "3,x,1.5", " 4,X,2.25", "5", "oops,y,3.0", "1_000,zebra,0.5",
            '?,"comma, inside",', "None, x,n/a", '11,"two\nlines",12.0',
            " 9,,7.125", "2,y,oops", "7,X", "10,x,4.75"]
    (work / "train.csv").write_text("\n".join(train) + "\n")
    (work / "test.csv").write_text("\n".join(test) + "\n")


def predict_argv(work: Path, checkpoint: Path) -> list:
    return ["predict", "--checkpoint", str(checkpoint), "--train", str(work / "train.csv"),
            "--test", str(work / "test.csv"), "--target", "target", "--seed", "3",
            "--output", str(work / "predictions.csv")]


def prediction_hashes(work: Path, checkpoint: Path) -> None:
    from priorfit import infer

    default_cap = infer.BATCH_CAP
    for classification in (True, False):
        task = "class" if classification else "regr"
        for d in (3, 105):
            split_table(work, classification, d)
            for cap in (default_cap, SMALL_BATCH_CAP):
                for ensemble in (1, 3):
                    infer.BATCH_CAP = cap
                    try:
                        quiet_cli(predict_argv(work, checkpoint)
                                  + ["--ensemble", str(ensemble)])
                    finally:
                        infer.BATCH_CAP = default_cap
                    cap_name = "default" if cap == default_cap else str(cap)
                    label = f"predict_{task}_d{d}_e{ensemble}_cap_{cap_name}"
                    print(f"{label:<34} {sha256(work / 'predictions.csv')}")

    suite = work / "suite"
    suite.mkdir()
    for k, (classification, d) in enumerate(((True, 3), (False, 4),
                                             (True, 6), (False, 5))):
        export_table(suite / f"d{k}.csv", classification, d, SUITE_ROWS,
                     seed=100 + k)
    quiet_cli(["evaluate", "--checkpoint", str(checkpoint), "--suite",
               str(suite), "--splits", "2", "--output",
               str(work / "evaluate.ndjson")])
    print(f"{'evaluate_ndjson':<34} {sha256(work / 'evaluate.ndjson')}")


def api_prediction_hash(checkpoint: Path, classification: bool) -> str:
    """sha256 of `infer.predict` output bytes (probs then classes, or mu then
    sigma) on a generated table with no missing mask in either split."""
    import numpy as np
    from priorfit.infer import predict
    from priorfit.model import Model
    model, _, _ = Model.load(checkpoint)
    ds = generated_table(classification, 3, API_CONTEXT_ROWS + API_TEST_ROWS, seed=3)
    train = ds.take(np.arange(API_CONTEXT_ROWS))
    pred = predict(model, train, ds.X.data[API_CONTEXT_ROWS:], ensemble=3, seed=2)
    digest = hashlib.sha256()
    for a in ((pred.probs, pred.classes) if classification else (pred.mu, pred.sigma)):
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def params_line(name: str, checkpoint: Path) -> str:
    """The `<name>_params` line: `Model.checksum()` of the parameters the
    checkpoint loads to."""
    from priorfit.model import Model
    return f"{name + '_params':<34} {Model.load(checkpoint)[0].checksum()}"


def resume_hashes(work: Path, train, model, space) -> None:
    """The mixed agent run with scheduled resets, uninterrupted and then cut
    and resumed: the checkpoint and NDJSON log of each."""
    from priorfit.agents import AgentConfig
    from priorfit.train import pretrain
    agent = AgentConfig(fraction=0.25, reset_period=RESET_PERIOD)
    pretrain(train, model, space, agent, checkpoint_path=work / "resets.npz",
             log_path=work / "resets.ndjson")
    cut = dict(checkpoint_path=work / "resumed.npz", log_path=work / "resumed.ndjson")
    pretrain(train, model, space, agent, stop_after_steps=RESUME_AFTER_STEPS, **cut)
    pretrain(train, model, space, agent, resume_from=cut["checkpoint_path"], **cut)
    for arm in ("resets", "resumed"):
        print(f"{arm + '_checkpoint':<34} {sha256(work / f'{arm}.npz')}")
        print(f"{arm + '_log':<34} {sha256(work / f'{arm}.ndjson')}")


def dense_head_hashes(work: Path) -> None:
    """The criterion-12 CLI config with the dense head: its checkpoint and
    one classification `predict`."""
    import yaml
    cfg = yaml.safe_load(CLI_CONFIG)
    cfg["model"]["head"] = "dense"
    cfg_path = work / "dense-head.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    quiet_cli(["pretrain", "--config", str(cfg_path), "--outdir", str(work / "dense-head")])
    checkpoint = work / "dense-head" / "checkpoint.npz"
    print(f"{'dense_head_cli':<34} {sha256(checkpoint)}")
    split_table(work, True, 3)
    quiet_cli(predict_argv(work, checkpoint))
    print(f"{'predict_dense_head_class_d3':<34} {sha256(work / 'predictions.csv')}")


def main(src: Path) -> int:
    sys.path.insert(0, str(src.resolve()))
    from priorfit.agents import AgentConfig
    from priorfit.cli import main as cli_main
    from priorfit.config import load_run_config
    from priorfit.model import ModelConfig
    from priorfit.prior import GeneratorHyperSpace
    from priorfit.train import TrainConfig, pretrain

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)

        cfg_path = work / "cli.yaml"
        cfg_path.write_text(CLI_CONFIG)
        with contextlib.redirect_stdout(io.StringIO()):  # names the temp dir
            rc = cli_main(["pretrain", "--config", str(cfg_path),
                           "--outdir", str(work / "cli")])
        if rc != 0:
            return rc
        print(f"criterion12_cli  {sha256(work / 'cli' / 'checkpoint.npz')}")
        print(params_line("criterion12_cli", work / "cli" / "checkpoint.npz"))

        desk = load_run_config(src.resolve().parent / "configs" / "desk.yaml")
        train = dataclasses.replace(
            desk.train, total_datasets=DESK_STEPS * desk.train.datasets_per_step)
        pretrain(train, desk.model, desk.space, desk.agent,
                 checkpoint_path=work / "desk.npz", log_path=work / "desk.ndjson")
        print(f"desk_checkpoint  {sha256(work / 'desk.npz')}")
        print(params_line("desk_checkpoint", work / "desk.npz"))
        print(f"desk_log         {sha256(work / 'desk.ndjson')}")

        space = GeneratorHyperSpace(feature_count=(2, 6), class_count=(2, 5),
                                    classification_prob=0.6)
        train = TrainConfig(model_lr=1e-3, datasets_per_step=MIXED_BATCH,
                            total_datasets=MIXED_STEPS * MIXED_BATCH,
                            rows=(16, 24), seed=7, eval_every=MIXED_STEPS)
        model = ModelConfig(d_model=16, n_blocks=1, n_heads=2, d_ff=24,
                            feature_width=3)
        for arm, agent in (("agents", AgentConfig(fraction=0.25)),
                           ("agent_free", None)):
            path = work / f"dense-{arm}.npz"
            pretrain(train, model, space, agent, checkpoint_path=path)
            print(f"dense_{arm:<10} {sha256(path)}")
            print(params_line(f"dense_{arm}", path))

        checkpoint = work / "cli" / "checkpoint.npz"
        prediction_hashes(work, checkpoint)
        quiet_cli(["analyze-prior", "--config", str(cfg_path), "--datasets", "3",
                   "--rows", "30", "--checkpoint", str(checkpoint),
                   "--output", str(work / "prior")])
        for name in ("diversity.json", "density_grids.npz"):
            print(f"{'analyze_prior_' + name:<34} {sha256(work / 'prior' / name)}")

        for classification in (True, False):
            split_table(work, classification, 3)
            quiet_cli(predict_argv(work, work / "desk.npz"))
            label = f"predict_desk_{'class' if classification else 'regr'}_d3"
            print(f"{label:<34} {sha256(work / 'predictions.csv')}")

        for classification in (True, False):
            split_table(work, classification, 3, LARGE_CONTEXT_ROWS)
            quiet_cli(predict_argv(work, work / "desk.npz"))
            task = "class" if classification else "regr"
            label = f"predict_desk_{task}_d3_l{LARGE_CONTEXT_ROWS}"
            print(f"{label:<34} {sha256(work / 'predictions.csv')}")

        for classification in (True, False):
            write_edge_tables(work, classification)
            quiet_cli(predict_argv(work, checkpoint))
            label = f"predict_edge_{'class' if classification else 'regr'}"
            print(f"{label:<34} {sha256(work / 'predictions.csv')}")

        for classification in (True, False):
            split_table(work, classification, 3, n_test=MULTI_CHUNK_TEST_ROWS)
            quiet_cli(predict_argv(work, work / "desk.npz"))
            task = "class" if classification else "regr"
            label = f"predict_desk_{task}_d3_t{MULTI_CHUNK_TEST_ROWS}"
            print(f"{label:<34} {sha256(work / 'predictions.csv')}")

        split_table(work, True, 3, MANY_CLASS_TRAIN_ROWS, MANY_CLASS_TEST_ROWS,
                    classes=(MANY_CLASSES, MANY_CLASSES))
        quiet_cli(predict_argv(work, work / "desk.npz"))
        label = f"predict_desk_class_d3_c{MANY_CLASSES}"
        print(f"{label:<34} {sha256(work / 'predictions.csv')}")

        for classification in (True, False):
            label = f"predict_api_{'class' if classification else 'regr'}_d3"
            print(f"{label:<34} {api_prediction_hash(work / 'desk.npz', classification)}")

        resume_hashes(work, train, model, space)
        dense_head_hashes(work)
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("src", type=Path, help="the checkout's src directory")
    sys.exit(main(parser.parse_args().src))
