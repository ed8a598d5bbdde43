"""Dendrimers refuse to scale.

A generation-10 dendrimer (3070 nodes) has a spectrum dominated by a few
hugely degenerate levels. Classically the return probability never settles
into a power law; quantum mechanically the degenerate levels keep the
average return two orders of magnitude above the classical plateau. Both
effects fall out of the eigenvalues alone.

Run: python demos/dendrimer_non_scaling.py
"""

import specwalk as sw

graph = sw.build_dendrimer(10, 3)
print(f"nodes: {graph.n} (closed form 3*2^10 - 2 = {sw.dendrimer_node_count(10, 3)})")

spec = sw.graph_spectrum(graph)  # eigenvalues only, from the closed form
table = sw.degeneracy_table(spec)
top = sorted(table, key=lambda vm: -vm[1])[:4]
print("largest degeneracies:", [(round(float(v), 6), m) for v, m in top])

grid = sw.log_grid()  # 600 log points on [1e-2, 1e4], plus t=0
p = sw.transport_series(spec, grid).p_bar
ring = sw.graph_spectrum(sw.build_ring(200))
p_ring = sw.transport_series(ring, grid).p_bar

print("power-law fit residuals per decade (dendrimer vs 200-ring):")
for lo in (2.0, 10.0, 100.0):
    rd = sw.fit_power_law(grid.times[1:], p[1:], (lo, 10 * lo)).residual
    rr = sw.fit_power_law(grid.times[1:], p_ring[1:], (lo, 10 * lo)).residual
    print(f"  t in [{lo:5.0f}, {10 * lo:5.0f}]: {rd:.4f} vs {rr:.5f}  (ratio {rd / rr:.0f})")

late = sw.log_grid(1e3, 1e4, 300, include_zero=False)
qm_tail = sw.transport_series(spec, late).alpha_bar_sq.mean()
print(f"quantum tail mean {qm_tail:.4f} vs classical plateau {1 / graph.n:.6f} "
      f"(x{qm_tail * graph.n:.0f})")
