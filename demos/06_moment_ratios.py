"""Two-sided moment comparison across an instance panel.

For each instance, E sup_t ||integral||^p is compared against the p-th power
of the kernel's Gaussian-series norm.  The ratio has no universal value, but
it stays inside a narrow bracket per (p, norm flavor) that reproduces across
master seeds; the fitted brackets are the recorded contract.
"""

import numpy as np

from cylmart import BDGInstance, IntegrandProcess, NoiseSpec, TimeGrid, bdg_ratio_panel, fit_bracket

rng = np.random.default_rng(0)
grid = TimeGrid.uniform(1.0, 32)

# an instance is a truncation and an integrand; paths are simulated on the
# integrand's grid
instances = [
    BDGInstance("scalar-bm", NoiseSpec(1, 1, np.eye(1)),
                IntegrandProcess.constant(grid, np.eye(1))),
]
for i in range(5):
    d, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    instances.append(
        BDGInstance(
            f"random-{i}",
            NoiseSpec(d, d, rng.standard_normal((d, d))),
            IntegrandProcess.constant(grid, rng.standard_normal((m, d))),
        )
    )

reports = bdg_ratio_panel(instances, p_list=[1, 2, 4], flavors=["hilbert", 4],
                          n_paths=4000, seed=11)
print(f"{'instance':>10} {'p':>3} {'flavor':>8} {'ratio':>8}")
for rep in reports:
    print(f"{rep.instance:>10} {rep.p:>3} {str(rep.flavor):>8} {rep.ratio:>8.3f}")

print("\nfitted brackets per (p, flavor):")
for key, info in sorted(fit_bracket(reports).items()):
    print(f"  p={key[0]}, {key[1]:>8}: ratios in [{info['min_ratio']:.3f}, "
          f"{info['max_ratio']:.3f}], C = {info['C']:.3f}")
