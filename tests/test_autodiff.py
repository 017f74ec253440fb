import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from icleq import numerics
from icleq.channel import qam4_constellation
from icleq.experiments import ExperimentConfig
from icleq.rng import RngStream
from icleq.training import PretrainTaskSet, gradient, sample_train_batch
from icleq.transformer import forward_batch, init_params

C2 = qam4_constellation(2)


def rnd(seed, *shape):
    return RngStream(seed).normal(size=shape)


class CountingPool:
    """Stands in for the worker pool of :mod:`icleq.numerics`, counting submits."""

    def __init__(self):
        self.submits = 0
        self._pool = ThreadPoolExecutor(4)

    def submit(self, *args):
        self.submits += 1
        return self._pool.submit(*args)


@pytest.fixture
def pool(monkeypatch):
    counting = CountingPool()
    monkeypatch.setattr(numerics, "_pool", counting)
    yield counting
    counting._pool.shutdown()


def step_setup(d_e, batch_size=64, seed=190):
    """Parameters, config and batch of a training step at the default
    sizes with embedding width ``d_e`` (64 default, 32 the desk preset)."""
    cfg = replace(ExperimentConfig(d_e=d_e).train_config(seed=seed), batch_size=batch_size)
    ts = PretrainTaskSet.sample(cfg.tasks, 64, RngStream(seed, 1))
    params = init_params(cfg.model, RngStream(seed, 2), scale=cfg.init_scale)
    return params, cfg, sample_train_batch(ts, cfg, C2, RngStream(seed, 3))


# (d_e, batch size) -> (loss, step_digest) of ``step_setup(d_e, batch size)``
# and (d_e, queries) -> forward_digest of ``icl_forward(d_e, queries)``,
# taken at one BLAS thread from the op-by-op tape that preceded the fused
# layer op, where every matmul, the attention, layer norm, GELU, transpose
# and column selection were nodes of their own.  Batches of 7 and 9 and the
# default model's 64-query forward read otherwise at OpenBLAS's default
# thread count, on that tape as on the layer lanes.
PINNED_STEPS = {
    (64, 1): (0.9408581710754967, "8fdcd718cbef311e"),
    (64, 7): (1.0298986387516125, "52e986f1f42f1215"),
    (64, 9): (1.045362506063217, "e684cf8a17377c25"),
    (64, 64): (1.056641665088742, "3cf5089ec42b5058"),
    (32, 1): (1.0003001855764007, "d1b7795a4991d759"),
    (32, 7): (1.0031920746303278, "f1799a4f5bbea68a"),
    (32, 9): (1.0132919478899354, "17973bca36e1ab11"),
    (32, 64): (1.0117139277660516, "389056c636f1b32c"),
}
PINNED_FORWARDS = {
    (64, 1): "5fa2f8f16786d258",
    (64, 64): "de0d15fb07bbaa91",
    (32, 1): "b9e44ab1026f45d0",
    (32, 64): "89eaf2e4edf1c792",
}


def step_digest(loss, grads):
    """Digest of a loss and every gradient, by name."""
    h = hashlib.sha256(np.float64(loss).tobytes())
    for name in sorted(grads):
        h.update(name.encode())
        h.update(np.ascontiguousarray(grads[name]).tobytes())
    return h.hexdigest()[:16]


def icl_forward(d_e, n_queries):
    """Class probabilities and soft estimates of one sequence of N = 20
    pilots and ``n_queries`` queries, at the default sizes with embedding
    width ``d_e``."""
    cfg = ExperimentConfig(d_e=d_e)
    model = cfg.model_config()
    params = init_params(model, RngStream(194), scale=0.1)
    tokens = rnd(195, model.d_s, 1, 2 * cfg.n_context + n_queries)
    return forward_batch(params, model, C2, tokens, n_queries)


def forward_digest(probs, est):
    h = hashlib.sha256(probs.tobytes())
    h.update(np.ascontiguousarray(est).tobytes())
    return h.hexdigest()[:16]


def pinned_digests():
    """Every pinned step and forward at 1, 2, 3 and 5 cores, by name."""
    out = {}
    for cores in (1, 2, 3, 5):
        numerics._N_CORES = cores
        for d_e, batch in PINNED_STEPS:
            loss, grads = gradient(*step_setup(d_e, batch), C2)
            out[f"step {d_e} {batch} {cores}"] = [loss, step_digest(loss, grads)]
        for d_e, queries in PINNED_FORWARDS:
            out[f"forward {d_e} {queries} {cores}"] = forward_digest(*icl_forward(d_e, queries))
    return out


class TestLayerLanes:
    """A training step's layers run one lane per core over blocks of batch
    rows; its loss and gradients are the same at any core count."""

    @pytest.mark.parametrize("cores", [1, 2, 3, 5])
    @pytest.mark.parametrize("d_e", [64, 32])
    def test_step_matches_pin(self, monkeypatch, pool, cores, d_e):
        """The default and the desk step, at any BLAS thread count."""
        monkeypatch.setattr(numerics, "_N_CORES", cores)
        loss, grads = gradient(*step_setup(d_e), C2)
        assert (loss, step_digest(loss, grads)) == PINNED_STEPS[d_e, 64]
        assert (pool.submits > 0) == (cores > 1)

    def test_one_blas_thread_matches_every_pin(self):
        """Every pinned step, batches of 1, 7, 9 and 64, and every pinned
        one-sequence ICL forward, at 1, 2, 3 and 5 cores, in a process
        started with one BLAS thread (OpenBLAS reads the count when it
        loads)."""
        code = (
            "import json, sys; sys.path.insert(0, sys.argv[1]); "
            "import test_autodiff; print(json.dumps(test_autodiff.pinned_digests()))"
        )
        run = subprocess.run(
            [sys.executable, "-c", code, str(Path(__file__).parent)],
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert run.returncode == 0, run.stderr
        got = json.loads(run.stdout.strip().splitlines()[-1])
        for cores in (1, 2, 3, 5):
            for (d_e, batch), pin in PINNED_STEPS.items():
                assert tuple(got[f"step {d_e} {batch} {cores}"]) == pin, (d_e, batch, cores)
            for (d_e, queries), pin in PINNED_FORWARDS.items():
                assert got[f"forward {d_e} {queries} {cores}"] == pin, (d_e, queries, cores)

    @pytest.mark.parametrize("cores", [2, 3, 5])
    @pytest.mark.parametrize("batch", [1, 7, 9, 64])
    @pytest.mark.parametrize("d_e", [64, 32])
    def test_lane_edges_bit_identical(self, monkeypatch, pool, d_e, batch, cores):
        """Batches of fewer than two 8-row units run as one inline lane;
        64 rows make lanes of 8 to 32 rows."""
        setup = step_setup(d_e, batch)
        monkeypatch.setattr(numerics, "_N_CORES", 1)
        want = step_digest(*gradient(*setup, C2))
        monkeypatch.setattr(numerics, "_N_CORES", cores)
        assert step_digest(*gradient(*setup, C2)) == want

    @pytest.mark.parametrize("d_e", [64, 32])
    def test_three_submits_per_layer(self, monkeypatch, pool, d_e):
        """On two cores a layer's gradient syncs the cores three times: the
        forward lanes, the backward lanes and the weight gradients."""
        monkeypatch.setattr(numerics, "_N_CORES", 2)
        params, cfg, batch = step_setup(d_e)
        gradient(params, cfg, batch, C2)
        assert pool.submits == 3 * cfg.model.n_layers

    def test_one_sequence_forward_stays_inline(self, monkeypatch, pool):
        """A one-sequence ICL forward (B = 1) is a single inline lane."""
        monkeypatch.setattr(numerics, "_N_CORES", 5)
        icl_forward(64, 64)
        assert pool.submits == 0
