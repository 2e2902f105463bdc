"""Multivariate evidence: Gaussian fuzzy vectors and their random version.

GRFV(mu, Sigma, H) carries a Gaussian random mode vector and a precision
matrix.  Combination, marginalization and vacuous extension all have
closed forms for positive-semidefinite Sigma and H; noninteractive
(diagonal) vectors factor into independent one-dimensional pieces, a
possibilistic vector (Sigma = 0) fuses like any other, and a vacuous
extension lets evidence about some coordinates fuse with evidence about all
of them.
"""

import numpy as np

from erfs.fuzzy import GFV, product
from erfs.grfn import GRFN
from erfs.grfn import combine as combine_1d
from erfs.grfv import GRFV, combine

np.set_printoptions(precision=4, suppress=True)

print("== Gaussian fuzzy vectors multiply like their scalar cousins ==")
r = product(GFV([0.0, 0.0], np.eye(2)), GFV([1.0, 0.0], np.eye(2)))
print("  product mode:", r.product.mode, " precision:\n", r.product.precision)
print("  height:", f"{r.height:.6f}")

print("\n== combining two-dimensional evidence ==")
g = GRFV([0.0, 0.0], np.eye(2), np.eye(2))
f = combine(g, g)
print("  combined mu:", f.combined.mu)
print("  combined Sigma:\n", f.combined.Sigma)
print("  combined H:\n", f.combined.H)
print("  kappa:", f.kappa)

print("\n== diagonal vectors = independent coordinates ==")
d1 = [(0.5, 1.0, 2.0), (-1.0, 3.0, 0.4)]
d2 = [(0.0, 2.0, 1.0), (1.0, 0.5, 1.5)]
g1 = GRFV([t[0] for t in d1], np.diag([t[1] for t in d1]), np.diag([t[2] for t in d1]))
g2 = GRFV([t[0] for t in d2], np.diag([t[1] for t in d2]), np.diag([t[2] for t in d2]))
fv = combine(g1, g2)
print("  joint combination mu:   ", fv.combined.mu)
per = [combine_1d(GRFN(*a), GRFN(*b)).combined.mu for a, b in zip(d1, d2)]
print("  coordinate-wise result: ", np.array(per))
print("  noninteractive?", g1.is_noninteractive())

print("\n== marginalization uses a Schur complement ==")
g = GRFV([1.0, 2.0], np.eye(2), np.array([[2.0, 1.0], [1.0, 2.0]]))
m = g.marginalize(1)
print("  keep first coordinate: mu", m.mu, " Sigma", m.Sigma.ravel(), " H", m.H.ravel())

print("\n== vacuous extension adds coordinates without adding claims ==")
ext = GRFV([1.0], [[1.0]], [[2.0]]).vacuous_extend(1)
print("  mu:", ext.mu)
print("  Sigma:\n", ext.Sigma)
print("  H (zero block = no constraint on the new coordinate):\n", ext.H)
back = ext.marginalize(1)
print("  marginalizing back recovers:", back.mu, back.Sigma.ravel(), back.H.ravel())
x = 0.4
print("  contour at (0.4, t) for t = -9, 0, 9:",
      [f"{ext.contour(np.array([x, t])):.6f}" for t in (-9.0, 0.0, 9.0)],
      " 1-D contour at 0.4:", f"{GRFN(1.0, 1.0, 2.0).contour(x):.6f}")

print("\n== possibilistic vectors (Sigma = 0) fuse like the GFV product ==")
p1 = GRFV([0.0, 1.0], np.zeros((2, 2)), np.diag([1.0, 2.0]))
p2 = GRFV([1.0, 0.5], np.zeros((2, 2)), np.diag([0.5, 1.0]))
f = combine(p1, p2)
r = product(GFV(p1.mu, p1.H), GFV(p2.mu, p2.H))
print("  combined mu:", f.combined.mu, " GFV product mode:", r.product.mode)
print("  1 - kappa:", f"{1.0 - f.kappa:.6f}", " GFV product height:", f"{r.height:.6f}")

print("\n== evidence on different coordinates fuses through vacuous extension ==")
first_only = GRFV([0.0], [[1.0]], [[1.0]]).vacuous_extend(1)
both = GRFV([0.0, 0.0], np.eye(2), np.eye(2))
f = combine(first_only, both)
scalar = combine_1d(GRFN(0.0, 1.0, 1.0), GRFN(0.0, 1.0, 1.0))
print("  kappa:", f"{f.kappa:.6f}", " scalar kappa on coordinate 1:", f"{scalar.kappa:.6f}")
print("  combined H:\n", f.combined.H)
print("  combined Sigma (coordinate 2 keeps the second source's law):\n", f.combined.Sigma)
