"""Compare the reference equalizers on one task.

Four ways to estimate the transmitted vector from a quantized observation:

* exact MMSE with the task known (the floor any equalizer chases),
* linear MMSE with the channel known but the quantizer ignored,
* Bayesian MMSE knowing only a finite candidate set of channels,
* Bayesian MMSE under the true continuous channel prior, approximated by
  importance sampling (with its effective sample size as a health meter).

The paired mean squared errors show the expected ordering, and the
importance-sampling reference degrades gracefully as pilots concentrate
the channel posterior.

Run:  python demos/02_reference_equalizers.py   (~1 minute)
"""

import numpy as np

from icleq import RngStream, TaskDistributionSpec, qam4_constellation
from icleq.estimators import bayes_mmse_discrete, lmmse_known_task, mmse_known_task
from icleq.experiments import Equalizer, EvalProtocol, EvalSet, evaluate

spec = TaskDistributionSpec(2, 2, -10.0, -10.0)
const = qam4_constellation(2)
protocol = EvalProtocol(
    n_test_tasks=100, n_context=20, n_test_symbols_per_task=32, bits=4, tasks=spec, seed=7
)
evalset = EvalSet.build(protocol)
print(f"evaluation set: {protocol.n_test_tasks} tasks x {protocol.n_test_symbols_per_task} "
      f"symbols at b={protocol.bits}, draw hash {evalset.draw_hash()}\n")

for name, eq in [
    ("known-task MMSE", Equalizer.mmse()),
    ("known-task LMMSE", Equalizer.lmmse()),
    ("true-prior MMSE (IS, k=4096)", Equalizer.bayes_mc(4096)),
]:
    r = evaluate(eq, evalset=evalset)
    ess = f"  median ESS {r.ess:7.1f}" if r.ess is not None else ""
    print(f"{name:<30} mse {r.mse:.4f}  [{r.ci_low:.4f}, {r.ci_high:.4f}]{ess}")

# The discrete-prior equalizer with the true channel in its set collapses
# to the known-task optimum once the pilots identify the channel.
task = evalset.task(0)
ctx = evalset.context(0)
ys = evalset.test_ys[0]
decoys = RngStream(99).complex_normal((7, 2, 2))
prior_channels = np.concatenate([task.h[None], decoys])
q = protocol.quantizer
est_disc = bayes_mmse_discrete(prior_channels, task.sigma2, q, const, ctx, ys)
est_mmse = mmse_known_task(task, q, const, ys)
gap = np.max(np.abs(est_disc - est_mmse))
print(f"\ndiscrete prior holding the true channel (+7 decoys), N=20 pilots:")
print(f"  max deviation from known-task MMSE estimates: {gap:.2e}")

est_lin = lmmse_known_task(task, ys)
print(f"  (linear estimator differs by {np.max(np.abs(est_lin - est_mmse)):.2} on the same draws)")
