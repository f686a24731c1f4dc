"""
Rays on dispersion surfaces and amplitude transport
===================================================

Characteristic surfaces are ruled by rays: Hamiltonian trajectories of
the dispersion function H(x, p).  Along a ray the discontinuity
amplitude obeys a Riccati equation whose blow-up marks the birth of a
shock; exceptional models switch the quadratic term off.
"""

import numpy as np

from cewave.charsys import FieldBackground, fresnel_roots
from cewave.lagrangians import builtin
from cewave.rays import (
    ConeHamiltonian,
    QuarticHamiltonian,
    TransportState,
    trace,
    transport_amplitude,
)

# Flat-space cone: the ray is a straight null line and H is conserved
# to the last bit.
ray = trace(ConeHamiltonian.metric(), np.zeros(4),
            np.array([-1.0, 1.0, 0.0, 0.0]), s_max=5.0)
# Each row of ray.states is (s, x0..x3, p0..p3, H).
end_x = ray.states[-1, 1:5]
print(f"metric cone: end x = {np.round(end_x, 12)}, drift {ray.drift:.1e}")

# Quartic surface of a split-cone model on a constant background.  The
# start covector must sit on the surface, so take a scanned root.
pm = builtin("perturbed-maxwell", [0.1])
bg = FieldBackground.vector([0.3, 0.0, 0.0], [0.0, 0.4, 0.0])
roots = fresnel_roots(pm, bg, (1.0, 0.0, 0.0)).roots.real
p0 = np.array([-float(np.max(roots)), 1.0, 0.0, 0.0])
ray = trace(QuarticHamiltonian(pm, bg), np.zeros(4), p0, s_max=10.0)
print(f"quartic ray: group position x1 = {ray.states[-1, 2]:.4f} "
      f"after s=10, drift {ray.drift:.1e}")

# Amplitude transport.  With a quadratic coefficient the amplitude
# blows up in finite parameter: d pi/ds = -pi^2 from pi0 = -2 has a
# pole at s = 1/2.
res = transport_amplitude(TransportState(pi0=-2.0, m=0.0, c=1.0),
                          s_max=2.0)
print(f"riccati transport: blown_up={res.blown_up} at s*={res.s_star}")

# The exceptional case drops the quadratic term; nothing blows up even
# over a long run.
res = transport_amplitude(TransportState(pi0=-2.0, m=0.0, c=0.0),
                          s_max=100.0)
print(f"exceptional transport: blown_up={res.blown_up}, "
      f"max |pi| = {np.max(np.abs(res.pi)):.1f} out to s=100")
