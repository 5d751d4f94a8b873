"""The invariant metric of a linearly damped system, in closed form.

With H = T(p) + U(q) and friction -K p, the block metric [[0, G(t)],
[-G(t)^T, 0]] with G(t) = exp(t K) is conserved along the flow: its total
time derivative vanishes even though the dynamics compresses phase-space
volume.  The metric determinant then balances the compressibility exactly.
"""

import numpy as np

from metricflow import (
    CoordinateChart,
    PhasePoint,
    analytic_metric,
    applicability_check,
    compressibility,
    compressibility_flow,
    determinant_factor,
    integrate_flow,
    invariance_residual,
    metric_determinant,
    metric_eval,
)
from metricflow.friction import FrictionSystem

chart = CoordinateChart(2)
system = FrictionSystem.build(chart, "(p1^2+p2^2)/2 + (q1^2+q2^2)/2", [1.0, 2.0])
metric = analytic_metric(system)

print("=== Two damping rates K = diag(1, 2) ===")
for t in (0.0, 0.5, 1.0):
    W = metric.value(np.zeros(4), t)
    print(f"t={t:4.2f}   w(q1,p1)={W[0, 2]:.6f}  w(q2,p2)={W[1, 3]:.6f}"
          f"   (exp({t}) = {np.exp(t):.6f}, exp({2 * t}) = {np.exp(2 * t):.6f})")

print()
print("=== Conservation: the residual of d(omega)/dt = 0 ===")
V = system.vector_field
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(20):
    x = PhasePoint(rng.uniform(-1, 1, 4), rng.uniform(0, 3))
    worst = max(worst, np.max(np.abs(invariance_residual(V, metric, x))))
print(f"max residual over 20 random (x, t): {worst:.3e}")

print()
print("=== Volume density vs compressibility ===")
kappa = compressibility(V, PhasePoint(np.zeros(4)))
print(f"compressibility kappa = {kappa} (= -trace K)")
t = 1.0
print(f"sqrt(g)(t={t}) = {determinant_factor(system, 0.0, t):.6f}"
      f"   exp(-kappa t) = {np.exp(-kappa * t):.6f}")

x0 = PhasePoint([0.8, -0.3, 0.2, 0.5], 0.0)
seg = integrate_flow(V, x0, t)
s = compressibility_flow(V, x0, t)[1]
det = metric_determinant(metric, seg.end)
print(f"along a trajectory: |ln sqrt_g + integral kappa| = "
      f"{abs(np.log(det.sqrt_g) + s):.3e}")

print()
print("=== The closed form has an unstated separability assumption ===")
coupled = FrictionSystem.build(chart, "(p1^2+p2^2)/2 + q1*q2", [1.0, 2.0])
check = applicability_check(coupled)
print(f"applicability: ok={check.ok}")
print(f"detail: {check.detail}")
import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    forced = analytic_metric(coupled, allow_inapplicable=True)
r = invariance_residual(coupled.vector_field, forced, PhasePoint(np.zeros(4), 1.0))
print(f"forced closed form: residual in the position-position plane = "
      f"{r[1, 0]:.6f} (predicted e - e^2 = {np.e - np.e**2:.6f})")
