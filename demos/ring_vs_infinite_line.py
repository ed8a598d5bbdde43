"""A finite ring walks like the infinite line until it notices its size.

The classical return probability on a 200-node ring decays like t^-1/2 at
intermediate times and then saturates at 1/N; the quantum bound follows
J0(2t)^2 (envelope t^-1) until revivals set in around t ~ N/4. We verify
both statements numerically and print the fitted exponents.

Run: python demos/ring_vs_infinite_line.py
"""

import numpy as np

import specwalk as sw

N = 200
spec = sw.graph_spectrum(sw.build_ring(N))

# classical side: log grid, slope over the intermediate decade pair
grid = sw.log_grid()
p = sw.transport_series(spec, grid).p_bar
fit = sw.fit_power_law(grid.times[1:], p[1:], (1.0, 100.0))
print(f"classical exponent on t in [1, 100]: {fit.exponent:+.3f}  (infinite line: -0.5)")

# quantum side needs the oscillations resolved, so sample linearly
dense = sw.linear_grid(0.5, 200.0, 8000)
alpha = sw.transport_series(spec, dense).alpha_bar_sq
env = sw.extract_envelope(dense.times, alpha)
qfit = sw.fit_power_law(env.times, env.values, (1.0, 100.0))
print(f"quantum envelope exponent:          {qfit.exponent:+.3f}  (infinite line: -1.0)")

# the same ring, held against the exact infinite-line law
big = sw.graph_spectrum(sw.build_ring(1000))
window = sw.linear_grid(1.0, 240.0, 960)
gap = np.abs(sw.transport_series(big, window).alpha_bar_sq
             - sw.lattice_return_1d_product(1, window)).max()
print(f"N=1000 ring vs J0(2t)^2 for t < 240: max deviation {gap:.2e}")

# saturation: tail statistics past t = 1000
late = sw.log_grid(1e3, 1e4, 300, include_zero=False)
tail = sw.transport_series(spec, late)
sat_cl = sw.saturation(tail.p_bar, tail_fraction=0.5)
sat_qm = sw.saturation(tail.alpha_bar_sq, tail_fraction=0.5)
print(f"classical plateau: {sat_cl.mean:.5f}  (1/N = {1 / N})")
print(f"quantum tail mean: {sat_qm.mean:.5f} +- {sat_qm.fluctuation:.5f}")
