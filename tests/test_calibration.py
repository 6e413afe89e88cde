import tracemalloc

import numpy as np
import pytest

from sarqc.calibration import CalibrationBatch, split_batch


class TestAllZeroTrainingSplit:
    def test_rejected(self):
        x = np.zeros((8, 16))
        x[:, 12:] = 1.0  # a non-zero validation split does not rescue it
        with pytest.raises(ValueError, match="training split of the calibration batch is all zero"):
            CalibrationBatch(x=x, n_val=4)

    def test_one_all_zero_channel_passes(self):
        x = np.random.default_rng(0).standard_normal((8, 16))
        x[3] = 0.0
        assert split_batch(x).train.shape == (8, 12)

    def test_check_does_not_copy_x(self):
        x = np.random.default_rng(1).standard_normal((512, 256))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            CalibrationBatch(x=x, n_val=64)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes // 16
