"""The O(N^2) separation scan: the tests' oracle.

This is the row-by-row scan that ``polymod.verify._separation_scan`` ran
before the grid scan, kept verbatim so the grid scan's minimum and
collision can be compared with it bit for bit.
"""

import math

import numpy as np


def separation_scan(trials, thetas, shapes):
    min_sep, collision = math.inf, None
    for i in range(len(shapes)):
        sep = np.abs(shapes[i + 1 :] - shapes[i]).max(axis=1)
        if sep.size:
            low = float(sep.min())
            min_sep = min(min_sep, low)
            if low == 0.0 and collision is None:
                zero = np.flatnonzero(sep == 0.0) + i + 1
                theta_sep = np.abs(thetas[zero] - thetas[i]).max(axis=1)
                far = np.flatnonzero(theta_sep > 1e-6)
                if far.size:
                    trial_pair = [int(trials[i]), int(trials[zero[far[0]]])]
                    collision = {"trials": trial_pair, "theta_separation": float(theta_sep[far[0]])}
    return (min_sep if math.isfinite(min_sep) else None), collision
