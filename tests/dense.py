"""Dense reference forms for tests: what the package keeps per row."""

import numpy as np


def dense_H(gm):
    """The M-by-N sensing matrix of a global model: ``row_h[r]`` at ``(r, row_sender[r])``."""
    H = np.zeros((gm.m, gm.n), dtype=complex)
    H[np.arange(gm.m), gm.row_sender] = gm.row_h
    return H
