"""The layer lanes at batches of 1, 7 and 9 rows, fewer than two 8-row
units, split or not; the helpers and pins are in ``test_layers``."""

import pytest

from icleq import numerics
from icleq.training import gradient
from test_layers import C2, pool, step_digest, step_setup  # noqa: F401 (pool is a fixture)


class TestLayerLanes:
    @pytest.mark.parametrize("cores", [2, 3, 5])
    @pytest.mark.parametrize("batch", [1, 7, 9])
    @pytest.mark.parametrize("d_e", [64, 32])
    def test_lane_edges_bit_identical(self, monkeypatch, pool, d_e, batch, cores):
        """Batches of fewer than two 8-row units run as one inline lane."""
        setup = step_setup(d_e, batch)
        monkeypatch.setattr(numerics, "_N_CORES", 1)
        want = step_digest(*gradient(*setup, C2))
        monkeypatch.setattr(numerics, "_N_CORES", cores)
        assert step_digest(*gradient(*setup, C2)) == want
