"""Print the sha256 of fixed-seed pre-training artifacts for one source tree.

A refactor that must not move numerics is checked by running this once
against the parent checkout and once against the change, then diffing the
two outputs:

    python3 scripts/reference_hashes.py path/to/parent/src > parent.txt
    python3 scripts/reference_hashes.py src > change.txt
    diff parent.txt change.txt

The runs: the acceptance suite's criterion-12 CLI config; configs/desk.yaml
of the same checkout at 12 steps (checkpoint and NDJSON training log); and
12 steps of 8 mixed-task episodes in dense and in patch embedding, each with
agents at fraction 0.25 and without agents.
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


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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

        desk = load_run_config(src.resolve().parent / "configs" / "desk.yaml")
        train = dataclasses.replace(
            desk.train, total_datasets=DESK_STEPS * desk.train.datasets_per_step)
        pretrain(train, desk.model, desk.space, desk.agent,
                 checkpoint_path=work / "desk.npz", log_path=work / "desk.ndjson")
        print(f"desk_checkpoint  {sha256(work / 'desk.npz')}")
        print(f"desk_log         {sha256(work / 'desk.ndjson')}")

        space = GeneratorHyperSpace(feature_count=(2, 6), class_count=(2, 5),
                                    classification_prob=0.6)
        train = TrainConfig(model_lr=1e-3, datasets_per_step=MIXED_BATCH,
                            total_datasets=MIXED_STEPS * MIXED_BATCH,
                            rows=(16, 24), seed=7, eval_every=MIXED_STEPS)
        for mode, width in (("dense", 3), ("patch", 2)):
            model = ModelConfig(d_model=16, n_blocks=1, n_heads=2, d_ff=24,
                                feature_width=width, embed_mode=mode)
            for arm, agent in (("agents", AgentConfig(fraction=0.25)),
                               ("agent_free", None)):
                path = work / f"{mode}-{arm}.npz"
                pretrain(train, model, space, agent, checkpoint_path=path)
                print(f"{mode}_{arm:<10} {sha256(path)}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("src", type=Path, help="the checkout's src directory")
    sys.exit(main(parser.parse_args().src))
