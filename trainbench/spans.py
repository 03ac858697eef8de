"""In-memory span tracer for the traced run.

It wraps laifo's layer functions at module or class attribute level from
outside the package, records one span per call (name, start, end, parent
span) and a few work counters, and restores every attribute on exit.
Nothing inside laifo changes, and the untraced run wraps nothing.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter

import numpy as np

from laifo import augment, autodiff, envs, expertgen, imitate, nets, replay

MODULES = (augment, autodiff, envs, expertgen, imitate, nets, replay)

# (owner, attribute, layer). A module function is wrapped in every laifo
# module that binds it, since `from .x import f` copies the reference.
SPANS = (
    (imitate, "update_discriminator", "imitate.disc_update"),
    (imitate, "gradient_penalty", "imitate.gp"),
    (imitate, "update_critic", "imitate.critic_update"),
    (imitate, "update_actor", "imitate.actor_update"),
    (imitate, "evaluate", "imitate.eval"),
    (autodiff, "backward", "autodiff.backward"),
    (autodiff, "input_gradient", "autodiff.input_gradient"),
    (autodiff, "_im2col_values", "autodiff.im2col"),
    (autodiff, "_col2im_values", "autodiff.col2im"),
    (nets.VectorEncoder, "forward", "nets.enc_forward"),
    (nets.PixelEncoder, "forward", "nets.enc_forward"),
    (nets.VectorEncoder, "values", "nets.enc_values"),
    (nets.PixelEncoder, "values", "nets.enc_values"),
    (nets, "act", "nets.act"),
    (imitate.WindowPolicy, "action", "nets.act"),
    (expertgen.StatePolicy, "action", "nets.act"),
    (augment, "random_shift_batch", "augment.shift"),
    (augment, "augment_pair", "augment.shift"),
    (replay.ReplayBuffer, "sample_stacked", "replay.sample"),
    (replay.ExpertWindowSampler, "sample", "replay.expert_sample"),
    (replay.ReplayBuffer, "push", "replay.push"),
    (replay, "load_dataset", "replay.load"),
    (envs.PointMass, "step", "envs.step"),
    (expertgen, "evaluate_expert", "expertgen.eval"),
)
LAYERS = tuple(dict.fromkeys(layer for _, _, layer in SPANS))
EVAL_LAYERS = ("imitate.eval", "expertgen.eval")
LOSS_LAYERS = ("imitate.disc_update", "imitate.critic_update", "imitate.actor_update")

# (per-layer metric suffix, unit)
LAYER_STATS = (("calls", "count"), ("self_s", "s"), ("p50_ms", "ms"),
               ("p99_ms", "ms"), ("share", "fraction"))
# (metric, unit): work counted at layer boundaries, per update frame
COUNTS = (
    ("autodiff.matmul_flops_per_update", "flop/update"),
    ("autodiff.nodes_per_update", "nodes/update"),
    ("autodiff.im2col_bytes", "B/update"),
    ("nets.enc_passes_per_update", "passes/update"),
    ("augment.shift_bytes", "B/update"),
    ("replay.sample_bytes", "B/update"),
)
TRACE_METRICS = (
    ("trace.uncovered_share", "fraction", "lower"),
    ("trace.untraced_update_frames_per_s", "frames/s", "higher"),
    ("trace.traced_update_frames_per_s", "frames/s", "higher"),
    ("trace.update_frames_per_s_delta", "frames/s", "higher"),
    ("trace.overhead_share", "fraction", "lower"),
)


def per_layer_spec():
    """The per-layer metric list, in the form BENCHMARK.json declares it."""
    out = [{"name": f"{layer}_{stat}", "unit": unit, "better": "lower"}
           for layer in LAYERS for stat, unit in LAYER_STATS]
    out += [{"name": name, "unit": unit, "better": "lower"} for name, unit in COUNTS]
    out += [{"name": n, "unit": u, "better": b} for n, u, b in TRACE_METRICS]
    return out


def _nbytes(out):
    if isinstance(out, np.ndarray):
        return out.nbytes
    if isinstance(out, tuple):
        return sum(_nbytes(x) for x in out)
    if isinstance(out, replay.StackedBatch):
        return sum(_nbytes(x) for x in vars(out).values())
    return 0


def _finite(out):
    vals = out if isinstance(out, tuple) else (out,)
    return all(math.isfinite(v) for v in vals)


class Tracer:
    """Context manager: patches on enter, restores on exit."""

    def __init__(self):
        self.layer_ids = {layer: i for i, layer in enumerate(LAYERS)}
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self._stack = []
        self.counts = Counter()
        self.loss_ok = {layer: [] for layer in LOSS_LAYERS}
        self._saved = []

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr, make):
        if isinstance(owner, type):
            targets = [owner]
            original = vars(owner)[attr]
        else:
            original = getattr(owner, attr)
            targets = [m for m in MODULES if getattr(m, attr, None) is original]
        wrapped = make(original)
        for target in targets:
            self._saved.append((target, attr, original))
            setattr(target, attr, wrapped)

    def __enter__(self):
        for owner, attr, layer in SPANS:
            self._patch(owner, attr,
                        lambda fn, layer=layer: self._span(fn, layer, self._after(layer)))
        self._patch(autodiff.TensorNode, "__init__", self._count_node)
        self._patch(autodiff._EagerExec, "matmul", self._count_eager_matmul)
        return self

    def __exit__(self, *exc):
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()
        return False

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, layer, after):
        nid = self.layer_ids[layer]
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(out)
            return out

        return traced

    def _after(self, layer):
        counts = self.counts
        if layer in ("nets.enc_forward", "nets.enc_values"):
            def after(out):
                if out.shape[0] > 1:  # batch-1 passes are acting, not updates
                    counts["nets.enc_passes"] += 1
            return after
        if layer in ("autodiff.im2col", "augment.shift", "replay.sample"):
            def after(out):
                counts[layer + "_bytes"] += _nbytes(out)
            return after
        if layer in LOSS_LAYERS:
            ok = self.loss_ok[layer]
            return lambda out: ok.append(_finite(out))
        return None

    def _count_node(self, init):
        counts = self.counts

        def counted(node, values, op=None, inputs=(), *args, **kwargs):
            init(node, values, op, inputs, *args, **kwargs)
            counts["nodes"] += 1
            if op == "affine" or op == "matmul":
                counts["flops"] += 2 * values.size * inputs[0].values.shape[1]

        return counted

    def _count_eager_matmul(self, matmul):
        counts = self.counts

        def counted(executor, a, b):
            out = matmul(executor, a, b)
            counts["flops"] += 2 * out.size * a.shape[-1]
            return out

        return counted

    # -- results ----------------------------------------------------------

    def failed_updates(self, n_updates):
        """Update frames in which any loss came back non-finite."""
        bad = np.zeros(n_updates, dtype=bool)
        for oks in self.loss_ok.values():
            flags = ~np.array(oks[:n_updates], dtype=bool)
            bad[:len(flags)] |= flags
        return int(bad.sum())

    def arrays(self):
        return (np.array(self.names, dtype=np.int64), np.array(self.starts),
                np.array(self.ends), np.array(self.parents, dtype=np.int64))

    def metrics(self, train_start, train_end, n_updates, untraced_rate, traced_rate):
        """Per-layer calls, self seconds, p50/p99 and self-time share of the
        update phase, per-update counters, the share of the update phase in
        no span, and the tracing overhead given the untraced and traced
        update frames per second. The update phase runs from the end of the
        evaluation that closes warmup to the end of training."""
        name, start, end, parent = self.arrays()
        dur = end - start
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=len(dur))
        own = dur - child
        in_train = (start >= train_start) & (end <= train_end)
        evals = np.isin(name, [self.layer_ids[x] for x in EVAL_LAYERS]) & in_train
        boundary = end[evals].min()
        phase = (start >= boundary) & in_train
        wall = train_end - boundary
        out = {}
        for layer, nid in self.layer_ids.items():
            mine = name == nid
            ms = dur[mine] * 1e3
            p50, p99 = np.percentile(ms, [50, 99]) if len(ms) else (0.0, 0.0)
            values = (int(mine.sum()), float(own[mine].sum()), float(p50),
                      float(p99), float(own[mine & phase].sum() / wall))
            for (stat, unit), v in zip(LAYER_STATS, values):
                out[f"{layer}_{stat}"] = (v, unit)
        per = max(n_updates, 1)
        c = self.counts
        for (metric, unit), total in zip(COUNTS, (
                c["flops"], c["nodes"], c["autodiff.im2col_bytes"],
                c["nets.enc_passes"], c["augment.shift_bytes"],
                c["replay.sample_bytes"])):
            out[metric] = (total / per, unit)
        top = (parent == -1) & phase
        for (metric, unit, _), value in zip(TRACE_METRICS, (
                float((wall - dur[top].sum()) / wall), untraced_rate, traced_rate,
                traced_rate - untraced_rate, (untraced_rate - traced_rate) / untraced_rate)):
            out[metric] = (value, unit)
        return out

    def write(self, path, info):
        name, start, end, parent = self.arrays()
        t0 = start.min() if len(start) else 0.0
        with open(path, "w") as f:
            json.dump({"info": info, "layers": list(LAYERS),
                       "counts": dict(self.counts),
                       "span_layer": name.tolist(),
                       "span_start_s": np.round(start - t0, 9).tolist(),
                       "span_end_s": np.round(end - t0, 9).tolist(),
                       "span_parent": parent.tolist()}, f)
