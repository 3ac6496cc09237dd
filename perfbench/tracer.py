"""Span tracer for the traced benchmark run.

Wrappers are installed on the public functions of each priorfit module, and
on the public methods of its main classes, wherever a caller looks the name
up: the defining module, every module that imported the function by name,
and module-level dicts that hold it (the prior's activation table). Each
wrapped call records one span (name, start, end, parent, op id, error) into
an in-memory list; nothing is written until the run ends. Untraced runs
install nothing, so they execute the program unmodified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from typing import Callable, Optional, Union

import numpy as np

# layers the benchmark measures; config, seeding and diversity are off every
# timed path and stay unwrapped
MODULES = ("tensor", "prior", "model", "agents", "train", "infer",
           "data_io", "metrics", "cli")

# public methods of these classes are wrapped too
CLASS_METHODS = {
    "tensor": {"Tape": ("backward",)},
    "model": {"Model": ("embed_features", "embed_episode", "transformer",
                        "mixture_head", "dense_head", "gaussian_head",
                        "forward_classification", "forward_regression",
                        "checksum", "save", "load")},
    "agents": {"AgentState": ("reset",), "AgentPool": ("service_resets",)},
    "train": {"AdamState": ("step",)},
    "infer": {"BatchPlan": ("build",)},
}

# private functions that mark a layer boundary the metrics need
PRIVATE_BOUNDARIES = {
    "train": ("_forward_episode_losses",),
    "infer": ("_forward_prediction",),
}

# trivial accessors that would only add spans
SKIP = {"tensor": ("active_tape", "default_dtype", "set_default_dtype")}

NAME, START, END, PARENT, OP, ERROR = range(6)


class Tracer:
    """Collects spans while enabled; wrappers are no-ops otherwise."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._installed: list[tuple[object, str, object, bool]] = []

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open_span(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._name_id(name), self.clock(), 0.0, parent,
                           self.op_id, False])
        self._stack.append(idx)
        return idx

    def close_span(self, idx: int, error: bool = False) -> None:
        rec = self.spans[idx]
        rec[END] = self.clock()
        rec[ERROR] = error
        self._stack.pop()

    def begin_op(self) -> int:
        self.op_id += 1
        return self.open_span("op")

    def inside(self, name: str) -> bool:
        """True when an open span carries the given name."""
        nid = self._name_ids.get(name)
        return nid is not None and any(self.spans[i][NAME] == nid for i in self._stack)

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, name: Union[str, Callable], before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args, kwargs)
            span = tracer.open_span(name if isinstance(name, str) else name(args, kwargs))
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.close_span(span, error=True)
                raise
            tracer.close_span(span)
            if after is not None:
                after(tracer, args, kwargs, out)
            return out

        return traced

    def _set(self, owner, attr: str, value, in_dict: bool = False) -> None:
        old = owner[attr] if in_dict else getattr(owner, attr)
        self._installed.append((owner, attr, old, in_dict))
        if in_dict:
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every measured function at each place it is looked up. Names
        listed here that the program no longer has are skipped, and their
        metrics read 0."""
        modules = {m: importlib.import_module(f"priorfit.{m}") for m in MODULES}
        replacements: dict[int, object] = {}
        for short, mod in modules.items():
            skip = SKIP.get(short, ())
            names = [n for n, f in inspect.getmembers(mod, inspect.isfunction)
                     if f.__module__ == mod.__name__ and not n.startswith("_")
                     and n not in skip]
            names += list(PRIVATE_BOUNDARIES.get(short, ()))
            for fname in names:
                fn = getattr(mod, fname, None)
                if fn is not None:
                    replacements[id(fn)] = (fn, self.wrap(fn, *_hooks(short, fname)))
            for cls_name, methods in CLASS_METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    raw = vars(cls).get(meth) if cls is not None else None
                    if raw is None:
                        continue
                    label = f"{short}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self.wrap(raw.__func__,
                                                        *_hooks(short, f"{cls_name}.{meth}", label)))
                    else:
                        wrapped = self.wrap(raw, *_hooks(short, f"{cls_name}.{meth}", label))
                    self._set(cls, meth, wrapped)
        # every module namespace (and module-level dict) that holds an
        # original gets the wrapper, so imports by name are covered
        others = [importlib.import_module(f"priorfit.{m}")
                  for m in ("config", "diversity", "seeding")]
        for mod in (*modules.values(), *others):
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        hit = replacements.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._set(value, key, hit[1], in_dict=True)

    def uninstall(self) -> None:
        for owner, attr, old, in_dict in reversed(self._installed):
            if in_dict:
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._installed.clear()

    # -- output -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        spans = self.spans
        return {
            "names": np.array(self.names),
            "name": np.array([s[NAME] for s in spans], dtype=np.int32),
            "start": np.array([s[START] for s in spans]),
            "end": np.array([s[END] for s in spans]),
            "parent": np.array([s[PARENT] for s in spans], dtype=np.int64),
            "op": np.array([s[OP] for s in spans], dtype=np.int64),
            "error": np.array([s[ERROR] for s in spans], dtype=bool),
        }

    def write(self, path) -> None:
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the part of its interval that its direct
    children cover (overlapping children are merged, and clipped to the
    parent's interval)."""
    n = start.size
    duration = end - start
    children: dict[int, list[int]] = defaultdict(list)
    for i in range(n):
        if parent[i] >= 0:
            children[int(parent[i])].append(i)
    out = duration.astype(np.float64).copy()
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        intervals = sorted((max(start[k], lo), min(end[k], hi)) for k in kids)
        covered = 0.0
        cur_s, cur_e = None, None
        for s, e in intervals:
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] = duration[p] - covered
    return out


# ---------------------------------------------------------------------------
# counters recorded at the wrapped boundaries


def _matmul_flops(tracer, args, kwargs, out):
    k = np.shape(getattr(args[0], "data", args[0]))[-1]
    tracer.counters["tensor.matmul.flop"] += 2.0 * out.size * k


def _tape_nodes(tracer, args, kwargs):
    tracer.counters["tensor.tape_nodes"] += len(args[0])
    tracer.counters["tensor.backward_calls"] += 1


def _generate_name(args, kwargs):
    soft = kwargs.get("soft", args[3] if len(args) > 3 else False)
    return "prior.generate_adversarial" if soft else "prior.generate_ordinary"


def _generate_done(tracer, args, kwargs, out):
    tracer.counters["prior.generate_ok"] += 1


def _ascend_done(tracer, args, kwargs, out):
    tracer.counters["agents.ascend_ok"] += 1 if out else 0


def _agent_reset(tracer, args, kwargs):
    reason = kwargs.get("reason", args[1] if len(args) > 1 else "schedule")
    tracer.counters[f"agents.resets.{reason}"] += 1


def _train_step_done(tracer, args, kwargs, out):
    tracer.counters["train.skipped_steps"] += 1 if out.get("skipped") else 0


def _forward_prediction(tracer, args, kwargs):
    tracer.counters["infer.context_rows"] += args[1].n


def _transformer(tracer, args, kwargs):
    if not tracer.inside("infer._forward_prediction"):
        return
    model, tokens, l = args[0], args[1], args[2]
    item = tokens.data.itemsize
    batch, n = tokens.shape[0], tokens.shape[1]
    scores = max(batch * model.cfg.n_heads * n * l, batch * (n - l) * l) * item
    tracer.maxima["infer.attention_scores_mb"] = max(
        tracer.maxima["infer.attention_scores_mb"], scores / 1e6)
    tracer.maxima["infer.itemsize"] = max(tracer.maxima["infer.itemsize"], item)


def _ingested(tracer, args, kwargs, out):
    first = out[0]
    rows = first.n if hasattr(first, "n") else first.shape[0]
    tracer.counters["data_io.rows_ingested"] += rows


_HOOKS = {
    ("tensor", "matmul"): (None, _matmul_flops),
    ("tensor", "Tape.backward"): (_tape_nodes, None),
    ("prior", "generate_dataset"): (None, _generate_done),
    ("agents", "ascend_or_reset"): (None, _ascend_done),
    ("agents", "AgentState.reset"): (_agent_reset, None),
    ("train", "train_step"): (None, _train_step_done),
    ("infer", "_forward_prediction"): (_forward_prediction, None),
    ("model", "Model.transformer"): (_transformer, None),
    ("data_io", "ingest_csv"): (None, _ingested),
    ("data_io", "ingest_features_with_schema"): (None, _ingested),
}


def _hooks(short: str, fname: str, label: Optional[str] = None):
    before, after = _HOOKS.get((short, fname), (None, None))
    if (short, fname) == ("prior", "generate_dataset"):
        name = _generate_name
    else:
        name = label or f"{short}.{fname}"
    return name, before, after


# ---------------------------------------------------------------------------
# per-layer metrics

TENSOR_OPS = ("matmul", "softmax", "layer_norm", "gelu", "add", "mul", "concat",
              "stack", "slice_", "reshape", "permute", "scatter_add",
              "take_along_last")
WARNING_MODULES = ("model", "infer", "data_io", "train", "agents")
RESET_REASONS = ("schedule", "degenerate", "nan-gradients")


class _Totals:
    """Calls, self and inclusive milliseconds, and errors, per span name."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        own = self_times(a["start"], a["end"], a["parent"])
        whole = a["end"] - a["start"]
        n_names = len(tracer.names)
        self.ids = {name: i for i, name in enumerate(tracer.names)}
        self.calls = np.bincount(a["name"], minlength=n_names)
        self.self_ms = np.bincount(a["name"], weights=own, minlength=n_names) * 1e3
        self.incl_ms = np.bincount(a["name"], weights=whole, minlength=n_names) * 1e3
        self.errors = np.bincount(a["name"], weights=a["error"], minlength=n_names)
        self.total_spans = a["name"].size

    def get(self, field: str, *names: str) -> float:
        arr = getattr(self, field)
        return float(sum(arr[self.ids[n]] for n in names if n in self.ids))

    def module_errors(self, module: str) -> float:
        return float(sum(self.errors[i] for n, i in self.ids.items()
                         if n.startswith(module + ".")))


def layer_metrics(tracer: Tracer, warnings: dict[str, int]) -> dict[str, float]:
    """Per-layer figures from the traced phase. Calls, milliseconds, FLOPs
    and rows are per timed op; resets, skipped steps, warnings and errors are
    totals over the traced phase; ratios are over their own attempts."""
    t = _Totals(tracer)
    ops = max(t.get("calls", "op"), 1.0)
    steps = t.get("calls", "train.train_step")
    per_step = (lambda x: x / steps) if steps else (lambda x: 0.0)
    c = tracer.counters
    backward_calls = c["tensor.backward_calls"]
    out = {
        "tensor.tape_nodes_per_step": c["tensor.tape_nodes"] / backward_calls
        if backward_calls else 0.0,
        "tensor.backward_ms_per_step": t.get("self_ms", "tensor.Tape.backward")
        / backward_calls if backward_calls else 0.0,
        "tensor.matmul.mflop": c["tensor.matmul.flop"] / 1e6 / ops,
    }
    for op in TENSOR_OPS:
        out[f"tensor.{op}.calls"] = t.get("calls", f"tensor.{op}") / ops
        out[f"tensor.{op}.ms"] = t.get("self_ms", f"tensor.{op}") / ops
    for fn in ("embed_episode", "transformer", "mixture_head", "gaussian_head"):
        out[f"model.{fn}.ms"] = t.get("self_ms", f"model.Model.{fn}") / ops
    out["model.checksum.ms"] = t.get("self_ms", "model.Model.checksum") / ops
    out["model.checksum.calls"] = t.get("calls", "model.Model.checksum") / ops
    out["model.load.ms"] = t.get("self_ms", "model.Model.load") / ops

    gen_names = ("prior.generate_ordinary", "prior.generate_adversarial")
    attempts = t.get("calls", *gen_names)
    out["prior.generate_ordinary.ms"] = t.get("self_ms", gen_names[0]) / ops
    out["prior.generate_adversarial.ms"] = t.get("self_ms", gen_names[1]) / ops
    out["prior.sample_generator.ms"] = t.get("self_ms", "prior.sample_generator") / ops
    out["prior.episode_yield"] = c["prior.generate_ok"] / attempts if attempts else 0.0

    ascents = t.get("calls", "agents.ascend_or_reset")
    out["agents.ascend.ms"] = t.get("self_ms", "agents.ascend_or_reset") / ops
    out["agents.ascend_ok_ratio"] = c["agents.ascend_ok"] / ascents if ascents else 0.0
    for reason in RESET_REASONS:
        out[f"agents.resets.{reason}"] = c[f"agents.resets.{reason}"]

    out["train.gen_ms_per_step"] = per_step(
        t.get("incl_ms", *gen_names, "prior.sample_generator"))
    out["train.fwd_ms_per_step"] = per_step(
        t.get("incl_ms", "train._forward_episode_losses"))
    out["train.bwd_ms_per_step"] = per_step(t.get("incl_ms", "tensor.Tape.backward"))
    out["train.opt_ms_per_step"] = per_step(
        t.get("incl_ms", "train.AdamState.step", "agents.ascend_or_reset"))
    out["train.step_self_ms"] = per_step(t.get("self_ms", "train.train_step"))
    out["train.skipped_steps"] = c["train.skipped_steps"]

    out["infer.normalize.ms"] = t.get("self_ms", "infer.normalize_train_test") / ops
    out["infer.forward.ms"] = t.get("self_ms", "infer._forward_prediction") / ops
    out["infer.context_rows"] = c["infer.context_rows"] / ops
    out["infer.attention_scores_mb"] = tracer.maxima["infer.attention_scores_mb"]
    out["infer.itemsize"] = tracer.maxima["infer.itemsize"]

    out["data_io.ingest_csv.ms"] = t.get("self_ms", "data_io.ingest_csv") / ops
    out["data_io.ingest_features.ms"] = t.get(
        "self_ms", "data_io.ingest_features_with_schema") / ops
    out["data_io.read_table.ms"] = t.get("self_ms", "data_io.read_table") / ops
    out["data_io.rows_ingested"] = c["data_io.rows_ingested"] / ops

    out["metrics.roc_auc_ovo.ms"] = t.get("self_ms", "metrics.roc_auc_ovo") / ops
    out["metrics.binary_auc.ms"] = t.get("self_ms", "metrics.binary_auc") / ops
    out["metrics.mse.ms"] = t.get("self_ms", "metrics.mse") / ops
    out["cli.self_ms"] = t.get("self_ms", "cli.main") / ops

    for module in WARNING_MODULES:
        out[f"{module}.warnings"] = float(warnings.get(module, 0))
    for module in MODULES:
        out[f"{module}.errors"] = t.module_errors(module)
    out["trace.spans_per_op"] = (t.total_spans - t.get("calls", "op")) / ops
    return out
