"""Walk through the quantized MIMO observation model.

A 2x2 system sends 4-QAM vectors through a random fading channel; the
receiver sees each real dimension through a saturating mid-rise quantizer.
This script shows the quantizer geometry, verifies that the cell
probabilities form an exact distribution over all possible outputs, and
compares coarse and fine resolutions.

Run:  python demos/01_quantized_observations.py
"""

import numpy as np

from icleq import (
    Quantizer,
    RngStream,
    TaskDistributionSpec,
    cell_bounds,
    log_likelihood,
    logsumexp,
    qam4_constellation,
    quantize,
    sample_pairs,
    sample_task,
)

rng = RngStream(2024)
const = qam4_constellation(2)
spec = TaskDistributionSpec(n_t=2, n_r=2, sigma2_db_min=-10.0, sigma2_db_max=-10.0)
task = sample_task(spec, rng.derive(0))

print("per-antenna 4-QAM alphabet (unit total power):")
print(" ", np.round(const.per_antenna, 4))
print(f"joint input set size: {const.n_joint}")
print(f"task: sigma^2 = {task.sigma2:.3f} (SNR {10 * np.log10(1 / task.sigma2):.0f} dB)\n")

for bits in (1, 3):
    q = Quantizer(bits=bits)
    print(f"{bits}-bit mid-rise quantizer, step {q.step}:")
    print("  levels:", q.levels())
    for v in (-0.3, 0.1, 100.0):
        idx, lv = quantize(q, v)
        lo, hi = cell_bounds(q, idx)
        print(f"  {v:>7.2f} -> level {idx} at {lv:+.2f}, cell [{lo}, {hi})")
    print()

# The quantized likelihood is a proper distribution: summing P(y | x, task)
# over every possible output grid point gives exactly 1.
q = Quantizer(bits=2)
x = const.joint[5]
lv = q.levels()
grid = np.meshgrid(*([lv] * 4), indexing="ij")
flat = [g.ravel() for g in grid]
all_y = np.stack([flat[0] + 1j * flat[1], flat[2] + 1j * flat[3]], axis=1)
ll = np.array([log_likelihood(task, q, x, y) for y in all_y])
print(f"b=2: sum over all {len(all_y)} outputs of P(y|x) = {np.exp(logsumexp(ll)):.12f}")

# Pilot contexts are i.i.d. uses of the same channel.
xs, ys = sample_pairs(task.h, task.sigma2, q, const, 5, rng.derive(1))
print("\n5 pilot pairs (b=2): every received component lies on the grid")
for x, y in zip(xs, ys):
    print(f"  x = {np.round(x, 3)}   y = {y}")
