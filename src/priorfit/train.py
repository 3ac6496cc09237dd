"""Prior-fitting loop.

Each optimizer step draws one batch geometry (row count and split position),
generates one dataset per generator slot and accumulation micro-step, runs
the batched forward, and backpropagates the mean per-episode NLL once. The
step takes the model and a plain list of agents, one per adversarial slot
(the first slots); an empty list is the agent-free run. Model parameters
take an Adam descent step; the agents take a sign-flipped SGD step on the
very same gradients, then the reset schedule is serviced.

All randomness is re-derived from (run_seed, namespace, step, ...) so a run
is bit-reproducible and resuming from a checkpoint continues the exact
stream an uninterrupted run would have produced.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .agents import AgentConfig, AgentState, ascend_or_reset, make_agents
from .model import Model, ModelConfig, fit_width
from .prior import (CLASSIFICATION, REGRESSION, Dataset, GeneratorHyperSpace,
                    generate_dataset, sample_generator)
from .seeding import (NS_BATCH_META, NS_EPISODE, NS_GATES, NS_MODEL_INIT,
                      NS_ORDINARY_GEN, derive_rng, derive_seed)

log = logging.getLogger(__name__)

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
NLL_EPSILON = 1e-9  # probability floor for test labels absent from the context


@dataclass(frozen=True)
class TrainConfig:
    """Full-scale defaults; desk-scale runs override batch and budget."""

    model_lr: float = 1e-4
    datasets_per_step: int = 64      # generator slots, one episode each per micro-step
    accumulation_steps: int = 1
    total_datasets: int = 6_400_000
    rows: tuple[int, int] = (60, 160)
    seed: int = 0
    eval_every: int = 200
    dtype: str = "float64"

    def __post_init__(self):
        if not self.model_lr >= 0.0:
            raise ValueError(f"model_lr must be non-negative, got {self.model_lr}")
        if self.datasets_per_step < 1 or self.accumulation_steps < 1:
            raise ValueError("effective batch size must be at least 1")
        if self.total_datasets < self.effective_batch:
            raise ValueError("dataset budget smaller than one effective batch")
        if self.rows[0] < 4 or self.rows[0] > self.rows[1]:
            raise ValueError("row-count range must be non-empty with at least 4 rows")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"unsupported dtype '{self.dtype}'")
        if self.eval_every < 1:
            raise ValueError("eval_every must be at least 1")

    @property
    def effective_batch(self) -> int:
        return self.datasets_per_step * self.accumulation_steps


class TrainLog:
    """Per-step records, optionally streamed to newline-delimited JSON.

    The file holds one run: a run from step 0 starts it empty, and a run
    resumed at step `start` keeps only its records of earlier steps, so
    records written past the checkpoint before an interruption are not
    duplicated. `records` holds this process's records only.
    """

    def __init__(self, path: Optional[Path] = None, start: int = 0):
        self.records: list[dict] = []
        self.path = Path(path) if path else None
        self._fh = None
        if self.path is None:
            return
        kept = []
        if start and self.path.exists():
            kept = [line for line in self.path.read_text().splitlines(keepends=True)
                    if line.strip() and json.loads(line)["step"] < start]
        self._fh = open(self.path, "w")
        self._fh.writelines(kept)
        self._fh.flush()

    def append(self, rec: dict) -> None:
        self.records.append(rec)
        if self._fh is not None:
            self._fh.write(json.dumps(rec, sort_keys=True) + "\n")
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# ---------------------------------------------------------------------------
# losses


def nll_classification(probs: Tensor, test_idx: np.ndarray,
                       valid: np.ndarray) -> Tensor:
    """Per-episode mean negative log-likelihood, (B,).

    Test rows whose label never appeared in the training context cannot be
    emitted by the mixture head; they contribute -log(epsilon).
    """
    B, q = probs.shape[:2]
    p_true = probs[np.arange(B)[:, None], np.arange(q), test_idx]
    mask = valid.astype(np.float64)
    p_eff = T.add(T.mul(p_true, Tensor(mask)), Tensor((1.0 - mask) * NLL_EPSILON))
    return T.neg(T.mean(T.log(p_eff), axis=-1))


def nll_regression(mu: Tensor, sigma: Tensor, y_test: Tensor) -> Tensor:
    """Per-episode mean Gaussian NLL, (B,)."""
    z = T.div(T.sub(y_test, mu), sigma)
    point = T.add(T.add(T.log(sigma), _HALF_LOG_2PI), T.mul(0.5, T.mul(z, z)))
    return T.mean(point, axis=-1)


def sample_split(n: int, rng: np.random.Generator) -> int:
    """Split position leaving at least 2 training and 2 test rows, uniform on
    [max(2, ceil(0.1 n)), n - 2]."""
    if n < 4:
        raise ValueError("episodes need at least 4 rows")
    lo = max(2, math.ceil(0.1 * n))
    return int(rng.integers(lo, n - 1))


# ---------------------------------------------------------------------------
# batched forward


def _episode_states(model: Model, datasets: list[Dataset], l: int
                    ) -> tuple[Tensor, Tensor]:
    """Final-LN states (B, n, d_model) of the stacked episodes and their
    stacked label values (B, n). Feature blocks are zero-padded to the widest
    dataset; Model.embed_features then fits the stack to the model."""
    widest = max(ds.d for ds in datasets)
    x = T.stack([fit_width(ds.X, widest) for ds in datasets])
    y = T.stack([ds.y_values for ds in datasets])
    return model.transformer(model.embed_episode(x, y, l), l), y


def _forward_episode_losses(model: Model, datasets: list[Dataset], l: int,
                            gate_rng: Optional[np.random.Generator]) -> Tensor:
    """Sum of per-episode mean NLLs for same-size datasets, each split into
    l context rows and n - l scored rows."""
    for ds in datasets:
        if not 1 <= l < ds.n:
            raise ValueError(f"split {l} out of range for n={ds.n}")
    cls = [ds for ds in datasets if ds.task == CLASSIFICATION]
    reg = [ds for ds in datasets if ds.task == REGRESSION]
    pieces = []
    if cls:
        states, _ = _episode_states(model, cls, l)
        n_test = cls[0].n - l
        train01 = np.zeros((len(cls), l), dtype=np.intp)
        test_idx = np.zeros((len(cls), n_test), dtype=np.intp)
        valid = np.zeros((len(cls), n_test), dtype=bool)
        n_classes = 0
        for b, ds in enumerate(cls):
            # each context's own sorted alphabet; test labels outside it are
            # marked invalid and scored at the probability floor
            classes, train01[b] = np.unique(ds.y_labels[:l], return_inverse=True)
            test = ds.y_labels[l:]
            at = np.minimum(np.searchsorted(classes, test), classes.size - 1)
            valid[b] = classes[at] == test
            test_idx[b] = np.where(valid[b], at, 0)
            n_classes = max(n_classes, classes.size)
        keys = (model.mixture_keys(states[:, :l])
                if model.reads_context_states(CLASSIFICATION) else None)
        probs = model.class_head(states[:, l:], keys, train01, n_classes, gate_rng)
        pieces.append(T.sum_(nll_classification(probs, test_idx, valid)))
    if reg:
        states, y = _episode_states(model, reg, l)
        mu, sigma = model.gaussian_head(states[:, l:])
        pieces.append(T.sum_(nll_regression(mu, sigma, y[:, l:])))
    total = pieces[0]
    for extra in pieces[1:]:
        total = T.add(total, extra)
    return total


# ---------------------------------------------------------------------------
# optimizer


class AdamState:
    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, Tensor], lr: float) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for name, p in params.items():
            if p.grad is None:
                # heads not exercised by this batch's task mix stay put
                continue
            m = self.m.get(name)
            if m is None:
                m = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            v = self.v[name]
            m = b1 * m + (1.0 - b1) * p.grad
            v = b2 * v + (1.0 - b2) * p.grad * p.grad
            self.m[name], self.v[name] = m, v
            p.data = p.data - lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


# ---------------------------------------------------------------------------
# the step and the loop


def _all_params(model: Model, agents: list[AgentState]) -> list[Tensor]:
    params = model.parameters()
    for agent in agents:
        params.extend(agent.parameters())
    return params


def _slot_episode(agents: list[AgentState], space: GeneratorHyperSpace,
                  cfg: TrainConfig, step: int, idx: int, slot: int,
                  n: int) -> Dataset:
    """Generate one dataset for a slot; degenerate mechanisms (single-class
    response after all input resamples) get a deterministic redraw, with
    adversarial slots reset first."""
    adversarial = slot < len(agents)
    for retry in range(4):
        ep_seed = derive_seed(cfg.seed, NS_EPISODE, step, idx, retry)
        try:
            if adversarial:
                return generate_dataset(agents[slot].generator, n, ep_seed, soft=True)
            gen_seed = derive_seed(cfg.seed, NS_ORDINARY_GEN, step, idx, retry)
            return generate_dataset(sample_generator(space, gen_seed), n, ep_seed)
        except RuntimeError:
            if adversarial:
                agents[slot].reset(reason="degenerate")
    raise RuntimeError(f"slot {slot}: no usable episode after redraws at step {step}")


def train_step(model: Model, agents: list[AgentState], cfg: TrainConfig,
               space: GeneratorHyperSpace, step: int, adam: AdamState) -> dict:
    """One optimizer step over datasets_per_step x accumulation episodes."""
    m, k = cfg.datasets_per_step, cfg.accumulation_steps
    meta_rng = derive_rng(cfg.seed, NS_BATCH_META, step)
    n = int(meta_rng.integers(cfg.rows[0], cfg.rows[1] + 1))
    l = sample_split(n, meta_rng)
    gate_rng = derive_rng(cfg.seed, NS_GATES, step)

    T.zero_grads(_all_params(model, agents))
    step_nll = 0.0
    skipped = False
    try:
        for micro in range(k):
            with T.Tape() as tape:
                # flat episode index, so accumulation micro-steps consume
                # the same streams one large batch would
                datasets = [_slot_episode(agents, space, cfg, step, micro * m + slot,
                                          slot, n)
                            for slot in range(m)]
                loss_sum = _forward_episode_losses(model, datasets, l, gate_rng)
                loss = T.mul(loss_sum, 1.0 / (m * k))
                step_nll += float(loss.data)
                tape.backward(loss)
    except T.GradientNaN as err:
        skipped = True
        # str: a record kept by a handler must not keep the sweep's frames
        log.warning("step %d skipped: %s", step, str(err))
        for agent in agents:
            agent.reset(reason="nan-gradients")
    else:
        adam.step(model.params, cfg.model_lr)
        for agent in agents:
            ascend_or_reset(agent)
    T.zero_grads(_all_params(model, agents))

    resets = sum(1 for a in agents if a.maybe_reset())
    return {"step": step, "nll": step_nll, "n": n, "l": l,
            "resets": resets, "skipped": skipped}


def _checkpoint_payload(cfg: TrainConfig, agents: list[AgentState],
                        adam: AdamState, next_step: int):
    extra = {
        "next_step": next_step,
        "train_config": asdict(cfg),
        "adam": {"t": adam.t, "beta1": adam.beta1, "beta2": adam.beta2,
                 "eps": adam.eps},
        "agents": [{"reset_count": a.reset_count,
                    "steps_since_reset": a.steps_since_reset}
                   for a in agents],
    }
    arrays = {}
    for name, m_arr in adam.m.items():
        arrays[f"adam/m/{name}"] = m_arr
        arrays[f"adam/v/{name}"] = adam.v[name]
    for i, agent in enumerate(agents):
        for j, w in enumerate(agent.generator.weights):
            arrays[f"agent/{i}/w/{j}"] = w.data
        for j, b in enumerate(agent.generator.biases):
            arrays[f"agent/{i}/b/{j}"] = b.data
    return extra, arrays


def _refuse_config_drift(kind: str, stored, ours) -> None:
    """Refuse to resume under a config that differs from the checkpoint's,
    naming the differing fields."""
    differ = [f.name for f in fields(ours)
              if getattr(stored, f.name) != getattr(ours, f.name)]
    if differ:
        raise ValueError(f"checkpoint was written with a different {kind} config: "
                         + ", ".join(differ))


def _restore_training_state(extra: dict, aux: dict, cfg: TrainConfig,
                            agents: list[AgentState]) -> tuple[AdamState, int]:
    from .config import _build
    if "train_config" not in extra:
        raise ValueError("checkpoint holds no training state to resume from")
    _refuse_config_drift("train", _build(TrainConfig, extra["train_config"]), cfg)
    adam = AdamState(extra["adam"]["beta1"], extra["adam"]["beta2"],
                     extra["adam"]["eps"])
    adam.t = extra["adam"]["t"]
    for key, arr in aux.items():
        if key.startswith("adam/m/"):
            adam.m[key[len("adam/m/"):]] = arr.copy()
        elif key.startswith("adam/v/"):
            adam.v[key[len("adam/v/"):]] = arr.copy()
    metas = extra["agents"]
    if len(metas) != len(agents):
        raise ValueError(f"checkpoint holds {len(metas)} agents, the run has {len(agents)}")
    for i, (agent, meta) in enumerate(zip(agents, metas)):
        agent.reset_count = meta["reset_count"]
        agent.steps_since_reset = meta["steps_since_reset"]
        agent.generator = agent._sample()
        for j, w in enumerate(agent.generator.weights):
            w.data = aux[f"agent/{i}/w/{j}"].copy()
        for j, b in enumerate(agent.generator.biases):
            b.data = aux[f"agent/{i}/b/{j}"].copy()
    return adam, extra["next_step"]


def pretrain(cfg: TrainConfig, model_cfg: ModelConfig, space: GeneratorHyperSpace,
             agent_cfg: Optional[AgentConfig] = None,
             eval_hook: Optional[Callable[[Model, int], dict]] = None,
             checkpoint_path: Optional[Path] = None,
             log_path: Optional[Path] = None,
             resume_from: Optional[Path] = None,
             stop_after_steps: Optional[int] = None) -> tuple[Model, TrainLog]:
    """Run prior fitting until the dataset budget is exhausted.

    The returned model is the final-step model; checkpoints (when a path is
    given) are written at the evaluation cadence and at the end. Resuming
    from a checkpoint reproduces the NLL stream of an uninterrupted run.
    stop_after_steps interrupts the run early (checkpoint still written) so
    the same configured run can be continued later with resume_from.
    """
    with T.dtype_scope(cfg.dtype):
        steps = math.ceil(cfg.total_datasets / cfg.effective_batch)
        agents = make_agents(cfg.datasets_per_step, space, cfg.seed, agent_cfg)
        if resume_from is not None:
            model, extra, aux = Model.load(resume_from, training_state=True)
            _refuse_config_drift("model", model.cfg, model_cfg)
            adam, start = _restore_training_state(extra, aux, cfg, agents)
        else:
            model = Model(model_cfg, seed=derive_seed(cfg.seed, NS_MODEL_INIT))
            adam = AdamState()
            start = 0

        def write_checkpoint(next_step: int) -> None:
            if checkpoint_path is None:
                return
            extra, arrays = _checkpoint_payload(cfg, agents, adam, next_step)
            model.save(checkpoint_path, extra=extra, arrays=arrays)

        stop_at = steps if stop_after_steps is None else min(steps, start + stop_after_steps)
        with contextlib.closing(TrainLog(log_path, start)) as train_log:
            for step in range(start, stop_at):
                rec = train_step(model, agents, cfg, space, step, adam)
                train_log.append(rec)
                due = (step + 1) % cfg.eval_every == 0 or step == stop_at - 1
                if due:
                    if eval_hook is not None:
                        metrics = eval_hook(model, step)
                        train_log.append({"step": step, "eval": metrics})
                    write_checkpoint(step + 1)
        return model, train_log
