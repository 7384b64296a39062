"""Weight-vector helpers shared by the tests: a seeded sample and the
consecutive-triple sums of the hexahedron's sign rule."""

import numpy as np

from polymod.combinatorics import as_word, sample_weight_rng
from polymod.errors import OutOfRange


def sample_weight(n, seed):
    """The weight vector that ``sample_weight_rng`` draws from ``default_rng(seed)``."""
    return sample_weight_rng(n, np.random.default_rng(seed))


def triple_sums(theta, label):
    """Consecutive-triple angle sums controlling (P, Q, R), in that order."""
    word = as_word(label)
    if len(word) != 6 or theta.n != 6:
        raise OutOfRange("triple sums are defined for n=6")
    t = [theta[m - 1] for m in word]
    return (t[4] + t[5] + t[0], t[0] + t[1] + t[2], t[2] + t[3] + t[4])
