"""On a star graph the quantum walk stays home.

The star's Laplacian has three eigenvalues, {0, 1 x (N-2), N}, and the
huge degenerate level pins the quantum return near (N-2)^2/N^2 forever,
while the classical walk happily equilibrates to 1/N. This is the clean
case where classical transport beats quantum transport.

Run: python demos/star_localization.py
"""

import numpy as np

import specwalk as sw

N = 10
spec = sw.decompose(sw.build_star(N), with_vectors=True)
print("degeneracy table:", [(round(float(v), 9), m) for v, m in sw.degeneracy_table(spec)])

grid = sw.merge_grids(sw.linear_grid(0.01, 100.0, 5000),
                      sw.log_grid(100.0, 1e4, 150, include_zero=False))
series = sw.transport_series(spec, grid, with_exact_quantum=True)
p, alpha, pi = series.p_bar, series.alpha_bar_sq, series.pi_bar

print(f"classical p(t) always below exact quantum pi(t): {bool(np.all(p < pi))}")
print(f"classical plateau: {p[-1]:.6f}      (1/N = {1 / N})")
window = (grid.times >= 10) & (grid.times <= 100)
print(f"quantum bound mean on [10, 100]: {alpha[window].mean():.4f} "
      f"  ((N-2)^2/N^2 = {(N - 2) ** 2 / N ** 2})")

# the long-time average transition matrix shows where amplitude can flow
chi = sw.chi_matrix(spec)
print(f"chi[core, core] = {chi[0, 0]:.3f}   (equipartition would be {1 / N})")
print(f"chi[leaf, leaf] = {chi[5, 5]:.3f}")
print(f"chi[core, leaf] = {chi[0, 5]:.4f}")
