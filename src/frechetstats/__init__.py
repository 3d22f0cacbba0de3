"""Frechet means and CLT-based nonparametric inference on non-Euclidean
sample spaces: spheres, SPD matrices, and open-book stratified spaces.
"""

from . import errors
from .geometry import (
    Sample,
    Space,
    Chart,
    euclidean_point,
    euclidean_sample,
    frechet_values,
    numeric_gradient,
    numeric_hessian,
    openbook_point,
    openbook_sample,
    spd_point,
    spd_sample,
    sphere_point,
    sphere_sample,
)
from .estimator import (
    FrechetFit,
    confidence_region_contains,
    estimate_mean,
    sandwich_covariance,
)
from .inference import (
    MultiTestResult,
    TwoSampleResult,
    bh_fdr,
    bonferroni,
    chi2_cdf,
    chi2_quantile,
    chi2_sf,
    two_sample_test,
)
from .simulate import (
    GaussianDescriptor,
    MCReport,
    OpenBookDescriptor,
    Sampler,
    SphereCapDescriptor,
    SphereTwoPointDescriptor,
    SPDLogGaussianDescriptor,
    mc_consistency,
    mc_coverage,
    mc_stickiness,
    mc_type1,
)
from .spaces import (
    EuclideanSpace,
    OpenBookSpace,
    SPDSpace,
    SphereSpace,
    openbook_classify,
    openbook_moments,
    spd_expm,
    spd_logm,
    spd_vech,
    spd_vech_inv,
)

__version__ = "0.1.0"
