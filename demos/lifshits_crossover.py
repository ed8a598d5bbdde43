"""Stretched-exponential transport from a Lifshits-tail density.

A density lam^-b exp(-1/lam) has no small-lam power law: the exp(-1/lam)
factor starves the walk of slow modes, and both returns decay as stretched
exponentials, exp(-2 sqrt(t)) classically and exp(-2 sqrt(2t)) quantum
mechanically. The log-ratio is therefore time dependent: below 1 early on
(classical wins), crossing 1 at a b-dependent time, and approaching
sqrt(2) ~ 1.414 from below.

Run: python demos/lifshits_crossover.py
"""

import math

import specwalk as sw

grid = sw.log_grid(1e-3, 3e4, 350, include_zero=False)

for b in (2.0, 3.0, 4.0):
    series = sw.continuum_series(sw.Lifshits(b=b), grid)
    # stretched-exponential fits over (50, 2e4); this quantum series does
    # not oscillate, so the analysis takes it as its own envelope
    report = sw.efficiency_report(grid.times, series.p_bar, series.alpha_bar_sq,
                                  (50.0, 2e4), stretched=True)
    fit_cl, fit_qm, ratio = report.classical_fit, report.quantum_fit, report.ratio
    crossing = report.crossover_time

    print(f"b = {b}:")
    print(f"  classical fit: t^{fit_cl.prefactor_exponent:.3f} "
          f"exp(-{fit_cl.decay_coeff:.3f} sqrt t)   [expect t^{(2 * b - 3) / 4:.2f} exp(-2 sqrt t)]")
    print(f"  quantum fit:   t^{fit_qm.prefactor_exponent:.3f} "
          f"exp(-{fit_qm.decay_coeff:.3f} sqrt t)   [expect t^{(2 * b - 3) / 2:.2f} exp(-2.83 sqrt t)]")
    print(f"  ratio crosses 1 at t = {crossing:.3f}; "
          f"tail value {ratio.asymptotic:.3f} -> sqrt(2) = {math.sqrt(2):.3f}")
