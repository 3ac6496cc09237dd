"""The meta-learner: feature and label embedding, test-masked transformer
blocks, and the prediction heads.

Every token attends only to training tokens, so test rows see the training
context but never each other. Classification goes through the scatter-sum
mixture head by default, which has no parameter tied to a class count: each
test row queries the training rows for softmax weights, sparsifies them with
near-binary Concrete gates, scatter-sums the surviving weight by training
label, and renormalizes. A conventional dense head (capped at a fixed class
budget) is kept for ablation; regression uses a Gaussian (mu, sigma) head.
"""

from __future__ import annotations

import json
import logging
import zlib
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .tensor import Tensor

log = logging.getLogger(__name__)

SIGMA_FLOOR = 1e-4
_GATE_MASS_FLOOR = 1e-9
CHECKPOINT_VERSION = 1


def _scale_rows(a: Tensor, s, inverse: bool = False) -> Tensor:
    """Row-wise scale of a (..., C) tensor by s of shape (...): the last axis
    is moved to the front so the engine's leading-dim broadcast applies."""
    moved = T.permute(a, (a.ndim - 1,) + tuple(range(a.ndim - 1)))
    scaled = T.div(moved, s) if inverse else T.mul(moved, s)
    return T.permute(scaled, tuple(range(1, a.ndim)) + (0,))


def fit_width(x: Tensor, width: int) -> Tensor:
    """x with its last (feature) axis zero-padded or truncated to width."""
    d = x.shape[-1]
    if d > width:
        return x[..., :width]
    if d < width:
        return T.concat([x, Tensor(np.zeros(x.shape[:-1] + (width - d,)))], axis=-1)
    return x


@dataclass(frozen=True)
class ModelConfig:
    """Full-scale defaults; desk-scale runs shrink every dimension."""

    d_model: int = 512
    n_blocks: int = 12
    n_heads: int = 4
    d_ff: int = 1024
    feature_width: int = 100
    embed_mode: str = "dense"      # dense | patch
    head: str = "mixture"          # mixture | dense (classification head choice)
    gate_temperature: float = 0.1
    max_classes: int = 10          # dense-head cap only

    def __post_init__(self):
        if self.n_heads < 1:
            raise ValueError("n_heads must be at least 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.feature_width < 1:
            raise ValueError("feature_width must be at least 1")
        if self.embed_mode not in ("dense", "patch"):
            raise ValueError(f"unknown embed_mode '{self.embed_mode}'")
        if self.head not in ("mixture", "dense"):
            raise ValueError(f"unknown head '{self.head}'")
        if self.gate_temperature <= 0:
            raise ValueError("gate_temperature must be positive")


@dataclass
class Prediction:
    """Inference output: a row-stochastic matrix over the training labels, or
    per-row Gaussian parameters."""

    task: str
    probs: Optional[np.ndarray] = None     # (n_test, C)
    classes: Optional[np.ndarray] = None   # original label of each column
    mu: Optional[np.ndarray] = None
    sigma: Optional[np.ndarray] = None
    member_variance: Optional[float] = None  # set by ensembling


@dataclass
class EncodedContext:
    """What query rows read from a training context run through the blocks
    once: each block's head-split keys and values of its ln1 output, the
    number l of training rows, and the mixture head's key projections of
    the final-LN training states."""

    kv: dict[str, tuple[np.ndarray, np.ndarray]]
    l: int
    mixture_keys: dict[str, Tensor]


class Model:
    """Parameter registry plus the forward passes."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        self.seed = seed
        self.params: dict[str, Tensor] = {}
        self._init_params(np.random.default_rng(seed))

    # -- parameters -------------------------------------------------------

    def _add(self, name: str, arr: np.ndarray) -> None:
        self.params[name] = Tensor(arr, requires_grad=True)

    def _init_block(self, rng, prefix: str) -> None:
        dm, dff = self.cfg.d_model, self.cfg.d_ff
        self._add(f"{prefix}/ln1/gain", np.ones(dm))
        self._add(f"{prefix}/ln1/bias", np.zeros(dm))
        for proj in ("wq", "wk", "wv", "wo"):
            self._add(f"{prefix}/attn/{proj}", rng.standard_normal((dm, dm)) / np.sqrt(dm))
        self._add(f"{prefix}/ln2/gain", np.ones(dm))
        self._add(f"{prefix}/ln2/bias", np.zeros(dm))
        self._add(f"{prefix}/ff/w1", rng.standard_normal((dm, dff)) / np.sqrt(dm))
        self._add(f"{prefix}/ff/b1", np.zeros(dff))
        self._add(f"{prefix}/ff/w2", rng.standard_normal((dff, dm)) / np.sqrt(dff))
        self._add(f"{prefix}/ff/b2", np.zeros(dm))

    def _init_params(self, rng) -> None:
        cfg = self.cfg
        dm = cfg.d_model
        self._add("embed/w", rng.standard_normal((cfg.feature_width, dm))
                  / np.sqrt(cfg.feature_width))
        self._add("embed/b", np.zeros(dm))
        self._add("label/w", rng.standard_normal((1, dm)))
        self._add("label/b", np.zeros(dm))
        if cfg.embed_mode == "patch":
            self._init_block(rng, "patch_block")
        for i in range(cfg.n_blocks):
            self._init_block(rng, f"blocks/{i}")
        self._add("final_ln/gain", np.ones(dm))
        self._add("final_ln/bias", np.zeros(dm))
        for name in ("weight_q", "weight_k", "gate_q", "gate_k"):
            self._add(f"mixture/{name}", rng.standard_normal((dm, dm)) / np.sqrt(dm))
        self._add("gauss/w", rng.standard_normal((dm, 2)) / np.sqrt(dm))
        self._add("gauss/b", np.zeros(2))
        self._add("dense_head/w", rng.standard_normal((dm, cfg.max_classes)) / np.sqrt(dm))
        self._add("dense_head/b", np.zeros(cfg.max_classes))

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    @property
    def dtype(self) -> np.dtype:
        """The one dtype every parameter holds; a mix is refused, naming the
        parameters of each dtype."""
        names: dict[np.dtype, list[str]] = {}
        for name, t in self.params.items():
            names.setdefault(t.data.dtype, []).append(name)
        if len(names) > 1:
            raise ValueError("model parameters mix dtypes: " + "; ".join(
                f"{dtype}: {', '.join(group)}" for dtype, group in names.items()))
        return next(iter(names))

    def checksum(self) -> int:
        crc = 0
        for name in self.params:
            t = self.params[name]
            crc = zlib.crc32(name.encode(), crc)
            crc = zlib.crc32(np.ascontiguousarray(t.data).tobytes(), crc)
        return crc

    # -- embedding --------------------------------------------------------

    def _attention(self, h: Tensor, key_count: int, prefix: str,
                   kv: Optional[dict] = None) -> Tensor:
        """Multi-head attention of every row of h over the first key_count rows
        of h, projected after the queries. kv caches the head-split keys and
        values per block: an entry present is attended to instead, a missing
        one is stored."""
        weights = (self.params[f"{prefix}/attn/{w}"] for w in ("wq", "wk", "wv", "wo"))
        out, kv_arrays = T.attention(h, *weights, self.cfg.n_heads, key_count,
                                     None if kv is None else kv.get(prefix))
        if kv is not None:
            kv.setdefault(prefix, kv_arrays)
        return out

    def _block(self, x: Tensor, key_count: int, prefix: str,
               kv: Optional[dict] = None) -> Tensor:
        """Pre-norm transformer block; attention keys are the first key_count
        rows (test masking) or the block's kv entry."""
        p = self.params
        h = T.layer_norm(x, p[f"{prefix}/ln1/gain"], p[f"{prefix}/ln1/bias"])
        x = T.add(x, self._attention(h, key_count, prefix, kv))
        h = T.layer_norm(x, p[f"{prefix}/ln2/gain"], p[f"{prefix}/ln2/bias"])
        h = T.matmul(T.gelu(T.add(T.matmul(h, p[f"{prefix}/ff/w1"]), p[f"{prefix}/ff/b1"])),
                     p[f"{prefix}/ff/w2"])
        return T.add(x, T.add(h, p[f"{prefix}/ff/b2"]))

    def input_width(self, d: int) -> int:
        """Width d features are fitted to: feature_width in dense mode, the
        whole patches that cover d in patch mode."""
        fw = self.cfg.feature_width
        return fw if self.cfg.embed_mode == "dense" else -(-d // fw) * fw

    def embed_features(self, x: Tensor) -> Tensor:
        """Map raw feature rows (B, n, d) onto (B, n, d_model)."""
        d = x.shape[-1]
        if d == 0:
            raise ValueError("cannot embed rows with zero features")
        x = fit_width(x, self.input_width(d))
        if self.cfg.embed_mode == "dense":
            return T.add(T.matmul(x, self.params["embed/w"]), self.params["embed/b"])
        return self._patch_embed(x)

    def _patch_embed(self, x: Tensor) -> Tensor:
        """Split features (a whole number of patches wide) into patches, embed
        each with the shared map, run one attention block over the patches,
        and average-pool.

        Pooling is over unordered patch embeddings; no positional encoding."""
        cfg = self.cfg
        B, n, d = x.shape
        patches = d // cfg.feature_width
        x = T.reshape(x, (B * n, patches, cfg.feature_width))
        e = T.add(T.matmul(x, self.params["embed/w"]), self.params["embed/b"])
        e = self._block(e, patches, "patch_block")
        pooled = T.mean(e, axis=1)
        return T.reshape(pooled, (B, n, cfg.d_model))

    def embed_episode(self, x: Tensor, y_values: Tensor, l: int) -> Tensor:
        """Build the token sequence: training rows carry their label embedding,
        test rows carry features only."""
        feats = self.embed_features(x)
        B = x.shape[0]
        y_train = T.reshape(y_values[:, :l], (B, l, 1))
        label_emb = T.add(T.matmul(y_train, self.params["label/w"]), self.params["label/b"])
        h_train = T.add(feats[:, :l], label_emb)
        return T.concat([h_train, feats[:, l:]], axis=1)

    # -- trunk and heads --------------------------------------------------

    def transformer(self, tokens: Tensor, l: int, kv: Optional[dict] = None
                    ) -> Tensor:
        """Contextualize tokens; every token attends to the l training tokens
        only. kv caches their keys and values per block: an empty dict is
        filled (tokens are the training tokens alone), a filled one is
        attended to (tokens are query rows)."""
        if l < 1:
            raise ValueError("masked transformer needs a non-empty training partition")
        h = tokens
        for i in range(self.cfg.n_blocks):
            h = self._block(h, l, f"blocks/{i}", kv)
        return T.layer_norm(h, self.params["final_ln/gain"], self.params["final_ln/bias"])

    def encode_context(self, x: Tensor, y_values: Tensor) -> EncodedContext:
        """Run the label-embedded training rows (B, l, d) through the blocks
        once, with full self-attention among them: the masked pass with no
        test rows."""
        l = x.shape[1]
        kv: dict = {}
        states = self.transformer(self.embed_episode(x, y_values, l), l, kv)
        return EncodedContext(kv=kv, l=l, mixture_keys=self.mixture_keys(states))

    def decode(self, x: Tensor, context: EncodedContext) -> Tensor:
        """Final-LN states of query rows x (B, m, d), embedded without labels,
        attending only to the encoded training tokens."""
        return self.transformer(self.embed_features(x), context.l, context.kv)

    def mixture_keys(self, states: Tensor) -> dict[str, Tensor]:
        """The mixture head's weight and gate key projections of the final-LN
        training states (B, l, d_model)."""
        return {name: T.matmul(states, self.params[f"mixture/{name}"])
                for name in ("weight_k", "gate_k")}

    def mixture_head(self, q_t: Tensor, keys: dict[str, Tensor],
                     train_labels: np.ndarray, n_classes: int,
                     gate_rng: Optional[np.random.Generator] = None) -> Tensor:
        """Class probabilities over the n_classes observed training labels.

        q_t holds the final-LN states of the query rows and keys the
        mixture_keys of the training rows. train_labels is (B, n_train) with
        entries in 0..n_classes-1. With a generator supplied, gates are
        sampled from the binary Concrete relaxation at the configured
        temperature; otherwise gating is the deterministic sigmoid. Rows
        whose gated mass underflows fall back to the ungated weights.
        """
        p = self.params
        scale = 1.0 / np.sqrt(self.cfg.d_model)
        w_logits = T.mul(T.matmul(T.matmul(q_t, p["mixture/weight_q"]),
                                  T.swap_last(keys["weight_k"])), scale)
        probs = T.softmax(w_logits, axis=-1)
        g_logits = T.mul(T.matmul(T.matmul(q_t, p["mixture/gate_q"]),
                                  T.swap_last(keys["gate_k"])), scale)
        if gate_rng is None:
            gates = T.sigmoid(g_logits)
        else:
            u = gate_rng.uniform(1e-7, 1.0 - 1e-7, size=g_logits.shape)
            noise = np.log(u) - np.log1p(-u)
            gates = T.sigmoid(T.mul(T.add(g_logits, Tensor(noise)),
                                    1.0 / self.cfg.gate_temperature))
        labels = np.asarray(train_labels, dtype=np.intp)
        mass = T.scatter_add(T.mul(probs, gates), labels, n_classes)
        total = T.sum_(mass, axis=-1)
        starved = total.data < _GATE_MASS_FLOOR
        if starved.any():
            log.warning("mixture head: %d test rows with fully closed gates, "
                        "falling back to ungated weights", int(starved.sum()))
            ungated = T.scatter_add(probs, labels, n_classes)
            mass = T.add(_scale_rows(mass, Tensor((~starved).astype(np.float64))),
                         _scale_rows(ungated, Tensor(starved.astype(np.float64))))
            total = T.sum_(mass, axis=-1)
        return _scale_rows(mass, total, inverse=True)

    def dense_head(self, q_t: Tensor, n_classes: int) -> Tensor:
        """Ablation head: fixed-width projection of the query states q_t,
        softmax over the first n_classes entries. Refuses class counts beyond
        its cap."""
        if n_classes > self.cfg.max_classes:
            raise ValueError(
                f"dense head capped at {self.cfg.max_classes} classes, "
                f"episode has {n_classes}")
        logits = T.add(T.matmul(q_t, self.params["dense_head/w"]),
                       self.params["dense_head/b"])
        return T.softmax(logits[:, :, :n_classes], axis=-1)

    def gaussian_head(self, q_t: Tensor) -> tuple[Tensor, Tensor]:
        """Per-row (mu, sigma) of the query states q_t."""
        out = T.add(T.matmul(q_t, self.params["gauss/w"]), self.params["gauss/b"])
        mu = out[:, :, 0]
        sigma = T.add(T.softplus(out[:, :, 1]), SIGMA_FLOOR)
        return mu, sigma

    def class_head(self, q_t: Tensor, keys: dict[str, Tensor],
                   train_labels: np.ndarray, n_classes: int,
                   gate_rng: Optional[np.random.Generator] = None) -> Tensor:
        """The configured classification head over the query states q_t."""
        if self.cfg.head == "dense":
            return self.dense_head(q_t, n_classes)
        return self.mixture_head(q_t, keys, train_labels, n_classes, gate_rng)

    # -- checkpointing ----------------------------------------------------

    def save(self, path, extra: Optional[dict] = None,
             arrays: Optional[dict[str, np.ndarray]] = None) -> None:
        """Write a versioned checkpoint: header, then parameters in registry
        order; round trip is bit-exact."""
        header = {
            "version": CHECKPOINT_VERSION,
            "config": asdict(self.cfg),
            "head": self.cfg.head,
            "seed": self.seed,
            "param_order": list(self.params),
            "extra": extra or {},
        }
        payload = {"__header__": np.frombuffer(
            json.dumps(header, sort_keys=True).encode(), dtype=np.uint8)}
        for name, t in self.params.items():
            payload["param::" + name] = t.data
        for name, arr in (arrays or {}).items():
            payload["aux::" + name] = arr
        with open(path, "wb") as fh:
            np.savez(fh, **payload)

    @classmethod
    def load(cls, path) -> tuple["Model", dict, dict[str, np.ndarray]]:
        with np.load(path) as z:
            header = json.loads(bytes(z["__header__"]).decode())
            if header["version"] != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {header['version']}")
            model = cls(ModelConfig(**header["config"]), seed=header["seed"])
            order = header["param_order"]
            missing = sorted(set(model.params) - set(order))
            unknown = sorted(set(order) - set(model.params))
            if missing or unknown:
                raise ValueError(f"checkpoint parameters do not match its config: "
                                 f"missing {missing}, unknown {unknown}")
            for name in order:
                arr = z["param::" + name]
                if model.params[name].data.shape != arr.shape:
                    raise ValueError(f"checkpoint parameter '{name}' has shape "
                                     f"{arr.shape}, expected {model.params[name].shape}")
                model.params[name].data = arr.copy()
            aux = {k[len("aux::"):]: z[k].copy() for k in z.files if k.startswith("aux::")}
        return model, header["extra"], aux
