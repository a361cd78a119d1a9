"""The reference computation that untraced runs divide repetition times by.

Import it only after the BLAS thread count is pinned: it loads numpy.
"""

from __future__ import annotations

import time

import numpy as np


class Reference:
    """Fixed work that measures how fast the host runs at the moment.

    stgflow's time goes to small numpy calls issued from Python loops and
    to batched FFTs; the reference does both, and calls nothing in
    stgflow, so no change to the program moves it.  One call takes about
    0.1 s on one core.
    """

    SMALL_CALLS, BATCH_CALLS = 1200, 24

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((2, 8, 8)) + 0j
        self.batch = rng.standard_normal((16, 3, 8, 8, 8)) + 0j

    def __call__(self):
        t0 = time.perf_counter()
        x = self.small
        for _ in range(self.SMALL_CALLS):
            x = np.fft.ifft2(np.fft.fft2(x)) * 0.5 + x * 0.5
        b = self.batch
        for _ in range(self.BATCH_CALLS):
            b = np.fft.ifftn(np.fft.fftn(b, axes=(-3, -2, -1)), axes=(-3, -2, -1))
        return time.perf_counter() - t0
