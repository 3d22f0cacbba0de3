"""Euclidean space R^s with its identity chart.

Serves both as a usable space and as the exactness oracle for the
estimator: here the Frechet mean is the arithmetic mean and the sandwich
covariance collapses to the sample covariance.
"""

from __future__ import annotations

import numpy as np

from ..geometry import FlatChart, Space, euclidean_point, euclidean_sample, group_differences
from ..geometry import row_norms


class EuclideanChart(FlatChart):
    """Identity chart; h(x; q) = ||x - q||^2."""

    def __init__(self, space, base):
        self.s = space.chart_dim
        self.base = base
        self.space = space

    def inverse(self, x):
        return euclidean_point(x)


class EuclideanSpace(Space):
    """R^dim with the usual distance."""

    kind = "euclidean"
    mean_strategy = "closed_form"

    def __init__(self, dim):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = int(dim)
        self.chart_dim = self.dim
        self.point_shape = (self.dim,)

    def __repr__(self):
        return f"EuclideanSpace(dim={self.dim})"

    def chart_at(self, base=None):
        if base is not None:
            self.check_sample(base)
        return EuclideanChart(self, base)

    def mean_many(self, sample, reps):
        """Arithmetic means (the exact Frechet means of R^s), after 0
        iterations."""
        means = sample.data.reshape(reps, -1, self.dim).mean(axis=1)
        return euclidean_sample(means), np.zeros(reps, dtype=int)

    def distance_many(self, sample, q):
        return row_norms(group_differences(sample.data, self.targets(sample, q).data))
