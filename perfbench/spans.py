"""In-memory spans around the program's public functions.

Wrappers are installed where callers look the functions up (for example
``icleq.estimators.loglik_means``, which ``icleq.estimators`` imported by
name, or ``Tape.matmul`` on the class), so the program itself is unchanged.
A hook whose target no longer exists is reported as absent, not fatal.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np

NAME, START, END, PARENT, RUN, ATTRS = range(6)


class Recorder:
    """Spans kept in memory as [name, start, end, parent, run, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run = 0

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, i: int) -> None:
        self.spans[i][END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, annotate=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(i)
            if annotate is not None:
                self.spans[i][ATTRS] = annotate(args, out)
            return out

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


# -- annotations: counts computed from operand shapes -------------------------


def matmul_flops(a_shape, b_shape) -> int:
    """Real multiply-adds x 2 of a broadcast matmul (..., m, k) @ (..., k, n)."""
    batch = np.broadcast_shapes(a_shape[:-2], b_shape[:-2])
    return 2 * int(np.prod(batch, dtype=np.int64)) * a_shape[-2] * a_shape[-1] * b_shape[-1]


def _node(args, out):
    return {"bytes": out.value.nbytes}


def _matmul(args, out):
    return {"bytes": out.value.nbytes, "flops": matmul_flops(args[1].value.shape, args[2].value.shape)}


def _backward(args, out):
    tape = args[0]
    vjp = sum(
        2 * matmul_flops(n.parents[0].value.shape, n.parents[1].value.shape)
        for n in tape.nodes
        if n.op == "matmul"
    )
    return {"flops": vjp}


def _forward_batch(args, out):
    tokens = args[3]
    return {"columns": tokens.shape[1] * tokens.shape[2], "useful": tokens.shape[1]}


def _loglik_terms(args, out):
    return {"terms": int(np.prod(np.shape(out), dtype=np.int64))}


def _ess(args, out):
    return {"ess": out[1]}


TAPE_OPS = (
    "leaf", "constant", "add", "sub", "mul", "scale", "square", "matmul", "reshape",
    "transpose", "index_last", "slice_last", "gelu", "layer_norm", "softmax", "sum_all",
)

# (module, attribute path, span name, annotation)
HOOKS = [
    *(
        ("icleq.autodiff", f"Tape.{op}", f"autodiff.op.{op}", _matmul if op == "matmul" else _node)
        for op in TAPE_OPS
    ),
    ("icleq.autodiff", "Tape.backward", "autodiff.backward", _backward),
    ("icleq.training", "pretrain", "training.pretrain", None),
    ("icleq.training", "batch_loss", "training.batch_loss", None),
    ("icleq.training", "sample_train_batch", "training.sample_train_batch", None),
    ("icleq.training", "gradient", "training.gradient", None),
    ("icleq.training", "adam_step", "training.adam_step", None),
    ("icleq.training", "forward_graph", "transformer.forward_graph", None),
    ("icleq.transformer", "forward_graph", "transformer.forward_graph", None),
    ("icleq.experiments", "forward_batch", "transformer.forward_batch", _forward_batch),
    ("icleq.experiments", "evaluate", "experiments.evaluate", None),
    ("icleq.experiments", "mmse_known_task_batch", "estimators.mmse_known", None),
    ("icleq.experiments", "lmmse_known_task", "estimators.lmmse", None),
    ("icleq.experiments", "bayes_mmse_discrete_batch", "estimators.bayes_discrete", None),
    ("icleq.experiments", "bayes_mmse_continuous_mc_batch", "estimators.bayes_mc", _ess),
    ("icleq.experiments", "bayes_mmse_gaussian_exact_batch", "estimators.bayes_exact", None),
    ("icleq.estimators", "loglik_means", "channel.loglik_means", _loglik_terms),
    ("icleq.channel", "cell_loglik", "channel.cell_loglik", None),
    ("icleq.estimators", "logsumexp", "numerics.logsumexp", None),
    ("icleq.rng", "RngStream.complex_normal", "rng.complex_normal", None),
]


class Hooks:
    """Installs the wrappers of :data:`HOOKS` on a recorder; ``remove``
    puts every original back."""

    def __init__(self, recorder: Recorder):
        self._undo = []
        self.absent: list[str] = []
        for module, path, name, annotate in HOOKS:
            try:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{path}")
                continue
            setattr(owner, attr, recorder.wrap(original, name, annotate))
            self._undo.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# -- analysis ----------------------------------------------------------------


class Analysis:
    """Self time, subtree membership and sums over a finished recording."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        n = len(spans)
        dur = np.array([s[END] - s[START] for s in spans]) if n else np.zeros(0)
        child = np.zeros(n)
        root = np.arange(n)
        for i, s in enumerate(spans):
            p = s[PARENT]
            if p >= 0:
                child[p] += dur[i]
                root[i] = root[p]
        self.dur = dur
        self.self_time = dur - child
        self.root_name = [spans[r][NAME] for r in root] if n else []

    def select(self, name: str, roots) -> list[int]:
        return [
            i for i, s in enumerate(self.spans) if s[NAME] == name and self.root_name[i] in roots
        ]

    def total(self, name: str, roots, self_only: bool = False) -> float:
        t = self.self_time if self_only else self.dur
        return float(sum(t[i] for i in self.select(name, roots)))

    def attr(self, name_prefix: str, key: str, roots) -> list:
        return [
            s[ATTRS][key]
            for s, r in zip(self.spans, self.root_name)
            if s[NAME].startswith(name_prefix) and r in roots and s[ATTRS] and key in s[ATTRS]
        ]
