"""
Dispersion roots and birefringence
==================================

Along a spatial direction n the characteristic covectors p = (p0, n)
solve a quartic in p0.  Models without birefringence give two double
roots: both polarizations ride one cone.  Generic models split the
pairs, and the split is the observable difference between the two
polarization speeds.
"""

import numpy as np

from cewave.charsys import (FieldBackground, FresnelBatch, fresnel_batch,
                            fresnel_roots, fresnel_scan_rows, unit_direction,
                            write_scan_csv)
from cewave.jets import DomainMask
from cewave.lagrangians import builtin

bg = FieldBackground.vector([0.3, 0.0, 0.0], [0.0, 0.4, 0.0])
nhat = (1.0, 0.0, 0.0)

bi = builtin("born-infeld")
fr = fresnel_roots(bi, bg, nhat)
print("born-infeld roots:", np.round(fr.roots.real, 12))
print("pairing:", fr.coincident_with, "birefringent:", fr.birefringent)

# Perturbing Maxwell by a quadratic term splits the pairs.
pm = builtin("perturbed-maxwell", [0.1])
fr = fresnel_roots(pm, bg, nhat)
r = np.sort(fr.roots.real)
print("perturbed roots:  ", np.round(r, 6))
print("pair splits:", round(r[1] - r[0], 6), round(r[3] - r[2], 6))

# A scan over random backgrounds, solved as one batch and written in the
# same CSV layout the command line uses.  A background outside the
# model's domain is masked, and each round draws as many as are missing.
rng = np.random.default_rng(7)
found = []
while sum(map(len, found)) < 10:
    draws = [(rng.uniform(-0.6, 0.6, 3), rng.uniform(-0.6, 0.6, 3),
              unit_direction(rng.normal(size=3)))
             for _ in range(10 - sum(map(len, found)))]
    with DomainMask():
        batch = fresnel_batch(bi, *map(np.array, zip(*draws)))
    found.append(batch.take(batch.unusable == 0))
scan = FresnelBatch.concat(found)

header, columns = fresnel_scan_rows(bi, scan)
write_scan_csv("bi_scan.csv", header, columns)
flagged = 4 * int(np.count_nonzero(scan.birefringent))
print(f"wrote bi_scan.csv: {4 * len(scan)} roots, {flagged} birefringent rows")
