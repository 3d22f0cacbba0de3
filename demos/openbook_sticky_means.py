"""Sticky means on the open book (3 leaves glued along a 2-d spine).

The location of the Frechet mean is governed by the folded means m_k:
one positive m_k pins the mean to that leaf, all-negative m_k pin it to
the spine (where it "sticks" under resampling), and the knife-edge
m_k = 0 case lands on either side of the spine with probability 1/2.
"""

import numpy as np

import frechetstats as fs

space = fs.OpenBookSpace(3, 2)

regimes = {
    "one positive folded mean (leaf-sticky)": fs.OpenBookDescriptor(
        leaf_probs=(0.6, 0.2, 0.2), x0=("constant", 1.0), spine_mean=(0.0, 0.0)
    ),
    "all folded means negative (spine-sticky)": fs.OpenBookDescriptor(
        leaf_probs=(1 / 3, 1 / 3, 1 / 3), x0=("constant", 1.0), spine_mean=(0.0, 0.0)
    ),
    "knife-edge m_1 = 0 (coin flip)": fs.OpenBookDescriptor(
        leaf_probs=(0.5, 0.25, 0.25), x0=("exponential", 1.0), spine_mean=(0.0, 0.0)
    ),
}

for name, descriptor in regimes.items():
    sampler = fs.Sampler(space, descriptor, seed=7)
    m = descriptor.population_folded_means(space)
    print(f"\n{name}")
    print(f"  population folded means: {np.round(m, 4)}")
    print(f"  population mean: {descriptor.population_mean(space)}")
    report = fs.mc_stickiness(sampler, n=200, reps=1000)
    for tag, frac in sorted(report.details["fractions"].items()):
        print(f"  sample mean lands on {tag:7s} in {frac:6.1%} of replications")

print("\none concrete sample (leaf-sticky regime):")
sampler = fs.Sampler(space, regimes["one positive folded mean (leaf-sticky)"], seed=7)
sample = sampler.draw(200)
moments = fs.openbook_moments(sample, 3)
print("  empirical folded means:", np.round(moments.folded_means, 4))
print("  classification:", fs.openbook_classify(moments))
print("  exact sample mean:", space.mean(sample)[0])
