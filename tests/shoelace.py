"""Shoelace areas of edge-length chains: the tests' oracle for the area form."""

import numpy as np

from planar_oracle import edge_frame


def polygon_area(vertices):
    """Signed shoelace area of a closed polygon, positive counterclockwise."""
    v = np.asarray(vertices)
    if v.ndim == 2:
        v = v[:, 0] + 1j * v[:, 1]
    v = v.astype(complex)
    return float(0.5 * np.sum((np.conj(v) * np.roll(v, -1)).imag))


def chain_vertices(frame, lengths):
    """V_0 = 0 and the partial sums of lengths[k] * dirs[k]: the n vertices of
    the chain, a closed polygon when the lengths satisfy the closing condition."""
    steps = np.asarray(lengths, dtype=float) * frame.dirs
    return np.concatenate(([0.0 + 0.0j], np.cumsum(steps)[:-1]))


def tangential_lengths(theta, label):
    """Edge lengths of the polygon circumscribed about the unit circle: edge j
    has length tan(theta_{i_j}/2) + tan(theta_{i_{j+1}}/2), all positive."""
    half = np.tan(edge_frame(theta, label).ordered_angles() / 2.0)
    return half + np.roll(half, -1)
