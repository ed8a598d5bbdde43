"""Power-law transport from a bounded spectral density.

For a density ~ (lam * lam_max - lam^2)^nu the classical return decays as
t^-(1+nu) and the quantum envelope as t^-2(1+nu): quantum transport is
exactly twice as efficient, exponent-wise. We evaluate both transforms,
closed Bessel forms, for the 1D band edge (nu = -1/2) and the
random-matrix semicircle (nu = +1/2) and compare fitted slopes against
the closed-form exponents and their ratio against 2.

Run: python demos/continuum_power_laws.py
"""

import specwalk as sw

for nu, lam_max, label in [(-0.5, 4.0, "1D band edge"),
                           (0.5, 2.0, "semicircle")]:
    dos = sw.PowerSemicircle(nu=nu, lam_max=lam_max)
    law_cl = sw.asymptotic_law(dos, "classical")
    law_qm = sw.asymptotic_law(dos, "quantum")

    grid = sw.log_grid(1.0, 1000.0, 120, include_zero=False)
    p = sw.continuum_series(dos, grid).p_bar
    fit_cl = sw.fit_power_law(grid.times, p, (10.0, 100.0))

    dense = sw.linear_grid(8.0, 110.0, 1020)
    alpha = sw.continuum_series(dos, dense).alpha_bar_sq
    env = sw.extract_envelope(dense.times, alpha)
    fit_qm = sw.fit_power_law(env.times, env.values, (10.0, 100.0))

    print(f"{label} (nu={nu:+.1f}):")
    print(f"  classical slope {fit_cl.exponent:+.3f}   closed form {law_cl.exponent:+.1f}")
    print(f"  quantum  slope  {fit_qm.exponent:+.3f}   closed form {law_qm.exponent:+.1f}")
    print(f"  exponent ratio: {fit_qm.exponent / fit_cl.exponent:.3f}   (power laws give 2)")
