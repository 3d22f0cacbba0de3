"""Euclidean space R^s with its identity chart.

Serves both as a usable space and as the exactness oracle for the
estimator: here the Frechet mean is the arithmetic mean and the sandwich
covariance collapses to the sample covariance.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidDescriptor
from ..geometry import FlatChart, Space, euclidean_sample, group_differences, row_norms


class EuclideanSpace(Space):
    """R^dim with the usual distance."""

    kind = "euclidean"
    mean_strategy = "closed_form"

    def __init__(self, dim):
        if dim < 1:
            raise InvalidDescriptor("dimension must be >= 1")
        self.dim = int(dim)
        self.chart_dim = self.dim
        self.point_shape = (self.dim,)

    def __repr__(self):
        return f"EuclideanSpace(dim={self.dim})"

    def chart_at(self, base=None):
        """The identity chart, h(x; q) = ||x - q||^2, the same at every base."""
        if base is not None:
            self.check_sample(base)
        return FlatChart(self)

    def mean_many(self, sample, reps):
        """Arithmetic means (the exact Frechet means of R^s), after 0
        iterations."""
        means = sample.data.reshape(reps, -1, self.dim).mean(axis=1)
        return euclidean_sample(means), np.zeros(reps, dtype=int)

    def distance_many(self, sample, q):
        q = self.targets(sample, q)
        return row_norms(group_differences(sample.data, q.data))
