"""Grid measures: suprema of measure families and difference quotients.

A measure on [0, T] lives on a grid as its vector of cell masses.  The least
measure dominating a family is cell-wise computable, matches the
partition-maximization oracle exactly, and integration against a base measure
is inverted by backward difference quotients.
"""

import numpy as np

from cylmart import (
    GridMeasure,
    IncreasingPath,
    TimeGrid,
    measure_from_increasing,
    partial_sup,
    radon_nikodym,
    sup_density_measures,
    sup_measures,
    sup_measures_bruteforce,
)

# --- measures from nondecreasing paths -------------------------------------
grid = TimeGrid(np.array([0.0, 0.5, 1.0]))
quadratic = measure_from_increasing(IncreasingPath(grid, grid.points**2))
print("increments of d(t^2) on {0, 1/2, 1}:", quadratic.increments)  # (1/4, 3/4)

# --- least dominating measure ----------------------------------------------
m1 = GridMeasure(grid, np.array([1.0, 0.0]))
m2 = GridMeasure(grid, np.array([0.0, 1.0]))
sup = sup_measures([m1, m2], refine=2)
print("sup of disjointly supported unit masses:", sup.increments)  # (1, 1)

oracle = sup_measures_bruteforce([m1, m2], refine=2)
print("partition-maximization oracle agrees:", np.array_equal(sup.increments, oracle.increments))

for n in (1, 2):
    print(f"partial sup over first {n}:", partial_sup([m1, m2], n).increments)

# --- density suprema --------------------------------------------------------
fine = TimeGrid.uniform(1.0, 8)
lebesgue = GridMeasure(fine, fine.widths)
f1 = np.where(fine.left < 0.5, 2.0, 0.0)
f2 = np.where(fine.left >= 0.5, 2.0, 0.0)
print("mass of sup(f1, f2) d(leb):", sup_density_measures([f1, f2], lebesgue).total_mass)

# --- recovering a density by difference quotients ---------------------------
density = 0.5 * (fine.left + fine.right)  # midpoint samples of f(t) = t
nu = sup_density_measures([density], lebesgue)
recovered = radon_nikodym(nu, lebesgue, eps_window=1)
print("max |recovered - f|:", np.abs(recovered - density).max())
