"""Three routes to the evolved metric.

The conserved metric can be produced by (a) exponentiating the generating
operator as a series (on affine systems, the pullback that it sums to),
(b) Strang splitting of that exponential over the Hamiltonian/friction
parts, which is the Strang product of sub-flow pullbacks: each step follows
the backward friction sub-flow for dt/2, the Hamiltonian sub-flow for dt
and the friction sub-flow for dt/2 and transports the metric by the product
of their tangent maps, and (c) pulling the initial metric back along the
flow.  Splitting and pullback are one transport walk, over the 3N Strang
sub-flows or one sub-flow of the whole field; on this affine system the
pullback is exact.  The routes agree, and the splitting converges at second
order in the step size.
"""

import numpy as np

from metricflow import (
    CoordinateChart,
    PhasePoint,
    SeriesMetric,
    SplitMetric,
    canonical_metric,
    pullback_metric,
)
from metricflow.friction import FrictionSystem

chart = CoordinateChart(1)
system = FrictionSystem.build(chart, "p1^2/2 + q1^2/2", 1.0)
V = system.vector_field
W0 = canonical_metric(chart).matrix

print("=== Damped oscillator, unit friction, t = 1 ===")
t = 1.0
x = PhasePoint([0.4, -0.2], t)
# the series and split routes are metric fields, evaluated at a point and time
w_series = SeriesMetric(V, W0).value(x.coords, t)[0, 1]
w_split = SplitMetric(V, W0, 1000).value(x.coords, t)[0, 1]
w_pullback = pullback_metric(V, canonical_metric(chart), x)[0, 1]
print(f"series:    {w_series:.12f}")
print(f"splitting: {w_split:.12f}")
print(f"pullback:  {w_pullback:.12f}")
print(f"exact e^t: {np.exp(t):.12f}")

print()
print("=== Second-order convergence of the splitting ===")
# a generic skew initial matrix (the canonical one sits on an invariant
# manifold of both sub-flows, where the splitting happens to be exact)
chart2 = CoordinateChart(2)
system2 = FrictionSystem.build(chart2, "(p1^2+p2^2)/2 + (q1^2+q2^2)/2", [1.0, 2.0])
V2 = system2.vector_field
rng = np.random.default_rng(7)
B = rng.standard_normal((4, 4))
W0g = B - B.T
origin = np.zeros(4)
exact = SeriesMetric(V2, W0g).value(origin, 1.0)
print(f"{'steps':>6} {'error':>12} {'order':>7}")
prev = None
for N in (10, 20, 40, 80, 160):
    err = np.max(np.abs(SplitMetric(V2, W0g, N).value(origin, 1.0) - exact))
    order = f"{np.log2(prev / err):7.3f}" if prev else "      -"
    print(f"{N:6d} {err:12.3e} {order}")
    prev = err

print()
print("=== Pullback transport on a nonlinear system ===")
quartic = FrictionSystem.build(chart, "p1^2/2 + q1^4/4", 1.0)
Vq = quartic.vector_field
print("H = p^2/2 + q^4/4 with unit friction: the transported metric is")
print("conformal, w(t) = e^t times canonical, independent of the point:")
for coords in ([0.9, 0.1], [-0.4, 0.7], [0.0, -1.2]):
    W = pullback_metric(Vq, canonical_metric(chart), PhasePoint(coords, 0.75))
    print(f"  x = {coords}:  w_qp = {W[0, 1]:.10f}   (e^0.75 = {np.exp(0.75):.10f})")
