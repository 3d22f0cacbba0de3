"""Means on the sphere: geodesic (Riemannian Newton) vs. chordal-projection estimates.

Draws a cap-uniform sample on S^2, fits both kinds of Frechet mean, and
prints the sandwich confidence ellipsoid of the geodesic estimate.  For
concentrated data the two means are nearly indistinguishable; the script
also shows the small-sample caveat: at n = 10 the nominal 95% ellipsoid
covers the true center noticeably less often than advertised.
"""

import numpy as np

import frechetstats as fs

space = fs.SphereSpace(3, "intrinsic")
chordal = fs.SphereSpace(3, "extrinsic")
center = (0.0, 0.0, 1.0)
sampler = fs.Sampler(space, fs.SphereCapDescriptor(center=center, radius=0.5), seed=42)

sample = sampler.draw(400)
fit = fs.estimate_mean(space, sample)
fit = fs.sandwich_covariance(space, sample, fit)

print("geodesic mean      :", np.round(fit.mean.data, 6))
print("iterations         :", fit.iterations)
print("gradient norm      :", f"{fit.grad_norm:.2e}")
print("asymptotic cov / n :")
print(np.round(fit.asym_cov / fit.n, 8))

extrinsic_fit = fs.estimate_mean(chordal, sample)
gap = space.distance(fit.mean, extrinsic_fit.mean)
print("chordal-projection mean:", np.round(extrinsic_fit.mean.data, 6))
print(f"geodesic gap between the two means: {gap:.2e}")

truth = sampler.population_mean()
inside = fs.confidence_region_contains(fit, fit.chart.forward(truth), alpha=0.05)
print("true center inside the 95% ellipsoid:", inside)

print("\nsmall-sample caveat: empirical coverage of the 95% region")
for n in (10, 50, 400):
    report = fs.mc_coverage(sampler, n=n, reps=500, alpha=0.05)
    print(f"  n = {n:4d}: coverage {report.estimate:.3f} (se {report.std_error:.3f})")
