"""Shared rings and germ instances for the whole suite.

Instances are module-level singletons on purpose: the tangent module and
tau are cached on each germ (the Milnor chain cache is module-level, keyed
by the generators), so every test module reuses the same computed data
instead of redoing the expensive syzygy work.
"""

from functools import lru_cache

from germlab import RingSpec, VarietyGerm, derived_invariants, parse_polynomial

R1 = RingSpec(["x"])
R2 = RingSpec(["x", "y"])
R3 = RingSpec(["x", "y", "z"])
R4 = RingSpec(["x", "y", "z", "w"])
R5 = RingSpec(["x", "y", "z", "w", "v"])


def poly(expr, ring):
    return parse_polynomial(expr, ring)


def germ(ring, *exprs):
    return VarietyGerm(ring, [poly(e, ring) for e in exprs])


# Hypersurfaces and complete intersections reused across the suite.
LINE = germ(R2, "x")
CROSS = germ(R2, "x*y")
NONQH = germ(R2, "x^3 + y^7 + x*y^5")
CONE3 = germ(R3, "x^2 + y^2 + z^2")
AXIS3 = germ(R3, "x", "y")
CURVE_K2 = germ(R3, "x^2 + y^2 + z^2", "x*y")
QUADRIC4 = germ(R4, "x^2 + y^2 + z^2 + w^2")
BRIESKORN3 = germ(R4, "x^2 + y^2 + z^2 + w^3")
BRIESKORN4 = germ(R4, "x^2 + y^2 + z^2 + w^4")
BRIESKORN5 = germ(R4, "x^2 + y^2 + z^2 + w^5")
A2_AMBIENT4 = germ(R4, "x^3 + y^2 + z^2 + w^2")
# suspension of the non-quasihomogeneous plane curve: mu = 12, tau = 11
SUSPENSION4 = germ(R4, "x^3 + y^7 + x*y^5 + z^2 + w^2")
PENCIL5 = germ(R5, "x^2 + y^2 + z^2 + w^2 + v^2", "x^2 + 2*y^2 + 3*z^2 + 4*w^2 + 5*v^2")

# Pairs with dim(X) >= 3: the full derived-invariant pipeline applies.
D3_PAIRS = [
    ("sphere_x", QUADRIC4, poly("x", R4)),
    ("brieskorn3_x", BRIESKORN3, poly("x", R4)),
    ("brieskorn4_xy", BRIESKORN4, poly("x + y", R4)),
    ("sphere_quadric", QUADRIC4, poly("x^2 + 2*y^2 + 3*z^2 + 4*w^2", R4)),
    ("a2_y", A2_AMBIENT4, poly("y", R4)),
    ("brieskorn5_w", BRIESKORN5, poly("w", R4)),
    ("suspension_z", SUSPENSION4, poly("z", R4)),
    ("pencil5_x", PENCIL5, poly("x", R5)),
    ("pencil5_quadric", PENCIL5, poly("x^2 - y^2 + 2*z^2 + w^2 - 3*v^2", R5)),
]

# Pairs of any dimension where the Bruce-Roberts identities are testable.
LOW_DIM_PAIRS = [
    ("cone3_x", CONE3, poly("x", R3)),
    ("curve_k2_z", CURVE_K2, poly("z", R3)),
    ("cross_xy", CROSS, poly("x + y", R2)),
    ("nonqh_x", NONQH, poly("x", R2)),
]

SECOND_SEED = 7


@lru_cache(maxsize=None)
def report(name, seed=42):
    X, f = {n: (X, f) for n, X, f in D3_PAIRS}[name]
    return derived_invariants(X, f, seed=seed)
