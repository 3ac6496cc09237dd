"""Run configuration (YAML) and the run manifest."""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import yaml

from . import __version__
from .agents import AgentConfig
from .model import ModelConfig
from .prior import GeneratorHyperSpace
from .train import TrainConfig


@dataclass(frozen=True)
class RunConfig:
    train: TrainConfig
    model: ModelConfig
    space: GeneratorHyperSpace
    agent: Optional[AgentConfig] = None


def _build(cls, raw: dict):
    """Instantiate a config dataclass from a YAML mapping, coercing list
    values back to tuples where the field default is a tuple."""
    if raw is None:
        raw = {}
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in raw:
            continue
        value = raw[f.name]
        default = f.default
        if isinstance(default, tuple) and isinstance(value, (list, tuple)):
            value = tuple(value)
        kwargs[f.name] = value
    unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"{cls.__name__}: unknown keys {sorted(unknown)}")
    return cls(**kwargs)


def load_run_config(path) -> RunConfig:
    with open(path) as fh:
        raw = yaml.safe_load(fh) or {}
    agent_raw = raw.get("agent")
    return RunConfig(
        train=_build(TrainConfig, raw.get("train", {})),
        model=_build(ModelConfig, raw.get("model", {})),
        space=_build(GeneratorHyperSpace, raw.get("space", {})),
        agent=_build(AgentConfig, agent_raw) if agent_raw is not None else None,
    )


def dump_run_config(cfg: RunConfig, path) -> None:
    raw = dataclasses.asdict(cfg)
    if cfg.agent is None:
        del raw["agent"]
    with open(path, "w") as fh:
        yaml.safe_dump(raw, fh, sort_keys=False)


@dataclass
class RunManifest:
    config: dict
    seed: int
    engine_version: str
    checkpoint_path: str
    created_at: float
    completed_at: Optional[float] = None
    status: str = "running"

    @classmethod
    def start(cls, cfg: RunConfig, checkpoint_path) -> "RunManifest":
        return cls(config=dataclasses.asdict(cfg), seed=cfg.train.seed,
                   engine_version=__version__, checkpoint_path=str(checkpoint_path),
                   created_at=time.time())

    def write(self, path) -> None:
        Path(path).write_text(json.dumps(dataclasses.asdict(self),
                                         indent=2, sort_keys=True) + "\n")

    def complete(self, path) -> None:
        self.completed_at = time.time()
        self.status = "completed"
        self.write(path)
