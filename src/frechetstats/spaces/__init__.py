"""Concrete sample spaces: Euclidean, sphere, SPD matrices, open book."""

from .euclidean import EuclideanSpace
from .sphere import SphereSpace, tangent_basis
from .spd import (
    SPDSpace,
    spd_expm,
    spd_logm,
    spd_vech,
    spd_vech_inv,
)
from .openbook import (
    Classification,
    OpenBookMoments,
    OpenBookSpace,
    openbook_classify,
    openbook_moments,
)

__all__ = [
    "EuclideanSpace",
    "SphereSpace",
    "SPDSpace",
    "OpenBookSpace",
    "Classification",
    "OpenBookMoments",
    "tangent_basis",
    "spd_logm",
    "spd_expm",
    "spd_vech",
    "spd_vech_inv",
    "openbook_moments",
    "openbook_classify",
]
