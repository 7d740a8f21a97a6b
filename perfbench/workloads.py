"""Seeded input families for the four benchmark workloads.

Every workload is a fixed cycle of slots.  A slot names one input shape
(family, parameter band, shape of f) and the seed only picks values inside
that band, so two seeds give different inputs of about the same cost and a
time-boxed run sees the same mix whatever the seed.  Each request carries
the closed-form values it must reproduce; the correctness gate checks them.

Family bounds (the cost of a request grows steeply past them):

* theta_ci: the pencil sum x_i^2, sum a_i x_i^2 in C^5 with distinct
  a_i in 1..9, and f a coordinate or c_j x_j + c_k x_k;
* hypersurface_reports: Brieskorn-Pham germs sum c_i x_i^(a_i) with
  exponents ascending along x, y, z, w, prod(a_i - 1) <= 120 (the largest
  is (3,4,5,6)), and x^3 + m y^b + k x y^c + z^2 + w^2 with 7 <= b <= 11;
* germ_scan: f linear, or a diagonal quadric with at most one cross term,
  coefficients in [-3, 3];
* colength_queries: T_{p,q,r} + w^2 with p+q+r <= 110 and r <= 45, thin
  staircases (x^e, y^e, z^e, w^e and the six products xy..zw) with e <= 22.

Measured cliffs beyond these bounds (Python 3.11.7, 2 cores, one run
each): the Brieskorn-Pham report for exponents (4,5,6,7) takes 37 s with
f = x and more than 70 s with f = x - 3y + z + 2w; T_{3,4,5} + w^2 with
f = w more than 65 s; suspension_z with f = x^2 + y^3 + z^2 + w^2 more than
65 s; the pencil x^2+y^2+z^2+w^2+v^2, x^2+2y^2+3z^2+4w^2+5v^3 with f = x
more than 70 s.

Closed forms attached to the requests, for linear f whose support has a
unique largest exponent e_j (the generator guarantees that):

* a Brieskorn-Pham germ is quasihomogeneous: mu_X = tau_X = prod(a_i - 1);
* x^a + m y^b + k x y^c + z^2 + w^2 with 1/a + c/b > 1 is
  semi-quasihomogeneous with principal part x^a + m y^b + z^2 + w^2, so
  mu_X = (a-1)(b-1), and tau_X < mu_X when c <= b - 2;
* eliminating x_j through f = 0 leaves the principal part in the other
  variables plus terms of higher weighted degree, so
  mu_X_f = prod_{i != j} (e_i - 1); the generic slice eliminates the
  variable of largest exponent;
* a linear f has mu_f = 0 and c1 = c2 = 0; a quadric f with nondegenerate
  Hessian has mu_f = 1;
* the pencils have mu_X = tau_X = 9, mu_X_f = mu_X_p = 7 and
  mu_BR = mu_BR_rel = tau_BR = 7; T_{p,q,r} + w^2 has mu = p+q+r-1 and
  tau = mu - 1; a thin staircase has colength 4e-3 and dimension 0.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

VARS4 = ("x", "y", "z", "w")
VARS5 = ("x", "y", "z", "w", "v")
COEFFS = (-3, -2, -1, 1, 2, 3)

SCAN_GERM = "x^3 + y^7 + x*y^5 + z^2 + w^2"
# Principal exponents of SCAN_GERM: x^3 + y^7 + z^2 + w^2.
SCAN_EXPONENTS = (3, 7, 2, 2)


@dataclass(frozen=True)
class Request:
    """One benchmark request.

    `command` is a germlab CLI command, or "derived" for a
    `derived_invariants` call on the shared germ of `germ_scan`; `text` is
    the problem-file text, or the expression of f for "derived".
    """

    rid: int
    slot: str
    command: str
    text: str
    expect: dict


def problem_text(variables, generators, function=None) -> str:
    lines = ["[ring]", "variables = " + ", ".join(variables), "[variety]"]
    lines += [f"g{i} = {g}" for i, g in enumerate(generators, start=1)]
    if function is not None:
        lines += ["[function]", f"f = {function}"]
    return "\n".join(lines) + "\n"


def _term(coeff: int, mono: str) -> str:
    if coeff == 1:
        return mono
    if coeff == -1:
        return "-" + mono
    return f"{coeff}*{mono}"


def _join(terms) -> str:
    text = terms[0]
    for t in terms[1:]:
        text += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return text


def _linear(coeffs: dict[int, int], variables) -> str:
    return _join([_term(c, variables[i]) for i, c in sorted(coeffs.items())])


def _linear_form(rng: random.Random, exponents, size: int) -> tuple[str, int]:
    """A linear f on `size` variables whose support has one largest exponent.

    Returns the expression and the index j of that largest exponent, which
    is the variable the f-slice eliminates.
    """
    support = rng.sample(range(len(exponents)), size)
    top = max(exponents[i] for i in support)
    tied = [i for i in support if exponents[i] == top]
    support = [i for i in support if exponents[i] != top] + [rng.choice(tied)]
    coeffs = {i: rng.choice(COEFFS) for i in support}
    j = max(support, key=lambda i: exponents[i])
    return _linear(coeffs, VARS4), j


def _slice_mu(exponents, j: int) -> int:
    return math.prod(e - 1 for i, e in enumerate(exponents) if i != j)


def _generic_mu(exponents) -> int:
    return _slice_mu(exponents, max(range(len(exponents)), key=lambda i: exponents[i]))


# ---------------------------------------------------------------- theta_ci

THETA_WEIGHTS = range(1, 10)
THETA_SLOTS = ("coordinate", "sparse")


def _theta_ci(rng: random.Random, rid: int, seen: set) -> Request:
    slot = THETA_SLOTS[rid % len(THETA_SLOTS)]
    while True:
        a = rng.sample(THETA_WEIGHTS, 5)
        if slot == "coordinate":
            f = VARS5[rng.randrange(5)]
        else:
            # f = c_j x_j + c_k x_k restricts the pencil to a hyperplane whose
            # eigenvalues are the a_l off {j, k} and one value between a_j and
            # a_k; the restriction stays an ICIS iff that value is new.
            while True:
                j, k = sorted(rng.sample(range(5), 2))
                cj, ck = rng.choice(COEFFS), rng.choice(COEFFS)
                mid = Fraction(cj * cj * a[k] + ck * ck * a[j], cj * cj + ck * ck)
                if all(mid != a[l] for l in range(5) if l not in (j, k)):
                    break
            f = _linear({j: cj, k: ck}, VARS5)
        g2 = _join([_term(c, f"{v}^2") for c, v in zip(a, VARS5)])
        # Distinct pencils keep every report cold: germlab caches per germ.
        if g2 not in seen:
            seen.add(g2)
            break
    g1 = " + ".join(f"{v}^2" for v in VARS5)
    expect = {"mu_X": 9, "tau_X": 9, "mu_X_f": 7, "mu_X_p": 7,
              "mu_br": 7, "mu_br_rel": 7, "tau_br": 7, "mu_f": 0, "c1": 0, "c2": 0}
    return Request(rid, slot, "invariants", problem_text(VARS5, [g1, g2], f), expect)


# ---------------------------------------------------- hypersurface_reports

# Exponents ascend along x, y, z, w: the cost of a report depends on which
# variable carries which exponent, and a curve placed as
# z^3 + x^11 + z*x^8 + y^2 + w^2 misses a 30 s deadline.
BP_SMALL = tuple(a for a in itertools.combinations_with_replacement(range(2, 8), 4)
                 if a[2] < a[3] and math.prod(e - 1 for e in a) <= 12)
BP_MID = ((3, 3, 4, 5),)
BP_LARGE = ((3, 4, 5, 6),)
# (b, c) of x^3 + m*y^b + k*x*y^c + z^2 + w^2: b > 6 and 2b/3 < c <= b - 2, so
# the germ is semi-quasihomogeneous but not quasihomogeneous (tau < mu).
CURVES = tuple((b, c) for b in range(7, 12) for c in range(2 * b // 3 + 1, b - 1))
CURVES_DENSE = ((7, 5), (8, 6), (9, 7), (10, 7))

# (slot, family, parameter choices, size of the support of f; 2 means 1
# or 2).  Three of the seven slots share one cost class, so the median
# request is one of them whatever the seed and wherever the run stops.
HYPERSURFACE_SLOTS = (
    ("bp_mid_dense", "bp", BP_MID, 4),
    ("bp_small", "bp", BP_SMALL, 2),
    ("bp_mid_dense", "bp", BP_MID, 4),
    ("curve_dense", "curve", CURVES_DENSE, 4),
    ("bp_mid_dense", "bp", BP_MID, 4),
    ("curve_sparse", "curve", CURVES, 2),
    ("bp_large_coordinate", "bp", BP_LARGE, 1),
)


def _hypersurface(rng: random.Random, rid: int, seen: set) -> Request:
    slot, family, choices, size = HYPERSURFACE_SLOTS[rid % len(HYPERSURFACE_SLOTS)]
    while True:
        if family == "bp":
            # sum c_i x_i^(a_i) is quasihomogeneous: mu = tau = prod(a_i - 1).
            exps = rng.choice(choices)
            germ = _join([_term(rng.randint(1, 3), f"{v}^{e}") for v, e in zip(VARS4, exps)])
            mu = tau = math.prod(e - 1 for e in exps)
        else:
            b, c = rng.choice(choices)
            exps = (3, b, 2, 2)
            germ = _join(["x^3", _term(rng.randint(1, 3), f"y^{b}"),
                          _term(rng.choice(COEFFS), f"x*y^{c}"), "z^2", "w^2"])
            mu, tau = 2 * (b - 1), None
        # Distinct germs keep every report cold: germlab caches per germ.
        if germ not in seen:
            seen.add(germ)
            break
    f, j = _linear_form(rng, exps, rng.randint(1, size) if size == 2 else size)
    expect = {"mu_X": mu, "mu_X_f": _slice_mu(exps, j), "mu_X_p": _generic_mu(exps),
              "mu_f": 0, "c1": 0, "c2": 0}
    if tau is not None:
        expect["tau_X"] = tau
    return Request(rid, slot, "invariants", problem_text(VARS4, [germ], f), expect)


# ---------------------------------------------------------------- germ_scan

# Half the slots are diagonal quadrics, the median cost class.
SCAN_SLOTS = ("sparse", "quadric", "dense", "quadric", "quadric_cross", "quadric")


def _germ_scan(rng: random.Random, rid: int, seen: set) -> Request:
    slot = SCAN_SLOTS[rid % len(SCAN_SLOTS)]
    expect = {"mu_X": 12, "tau_X": 11, "mu_X_p": _generic_mu(SCAN_EXPONENTS)}
    while True:
        if slot in ("sparse", "dense"):
            size = rng.randint(1, 2) if slot == "sparse" else 4
            f, j = _linear_form(rng, SCAN_EXPONENTS, size)
            extra = {"mu_X_f": _slice_mu(SCAN_EXPONENTS, j), "mu_f": 0, "c1": 0, "c2": 0}
        else:
            f = _quadric(rng, slot == "quadric_cross")
            extra = {"mu_f": 1}
        # Distinct f per run: germlab caches the f-slice chain per (germ, f).
        if f not in seen:
            seen.add(f)
            return Request(rid, slot, "derived", f, {**expect, **extra})


def _quadric(rng: random.Random, cross: bool) -> str:
    """A diagonal quadric with distinct z^2 and w^2 coefficients (equal ones
    make the f-slice of SCAN_GERM singular along a curve), plus optionally
    one cross term that keeps the Hessian nondegenerate."""
    while True:
        b = [rng.choice(COEFFS) for _ in range(4)]
        if b[2] == b[3]:
            continue
        parts = [_term(b[i], f"{VARS4[i]}^2") for i in range(4)]
        if cross:
            i, k = sorted(rng.sample(range(4), 2))
            c = rng.choice(COEFFS)
            if 4 * b[i] * b[k] == c * c:
                continue
            parts.append(_term(c, f"{VARS4[i]}*{VARS4[k]}"))
        return _join(parts)


# ---------------------------------------------------------- colength_queries

@lru_cache(maxsize=None)
def _tpqr_triples(lo: int, hi: int) -> tuple[tuple[int, int, int], ...]:
    """Hyperbolic (1/p + 1/q + 1/r < 1) triples p <= q <= r <= 45, lo <= p+q+r <= hi."""
    return tuple((p, q, r) for r in range(3, 46) for q in range(3, r + 1)
                 for p in range(3, q + 1)
                 if lo <= p + q + r <= hi and q * r + p * r + p * q < p * q * r)


# (slot, command, band): T_{p,q,r} + w^2 with p+q+r in the band, or the thin
# staircase with e in the band.  The three std_e14 slots are the median
# cost class; three slots are cheaper and three costlier.
COLENGTH_SLOTS = (
    ("std_e14", "std", (14, 14)),
    ("milnor_small", "milnor", (12, 30)),
    ("milnor_large", "milnor", (90, 110)),
    ("std_e14", "std", (14, 14)),
    ("std_small", "std", (4, 8)),
    ("tjurina_large", "tjurina", (90, 110)),
    ("std_e14", "std", (14, 14)),
    ("tjurina_small", "tjurina", (12, 30)),
    ("std_large", "std", (20, 22)),
)


def _colength(rng: random.Random, rid: int, seen: set) -> Request:
    slot, command, (lo, hi) = COLENGTH_SLOTS[rid % len(COLENGTH_SLOTS)]
    if command == "std":
        e = rng.randint(lo, hi)
        gens = [_term(rng.randint(1, 3), f"{v}^{e}") for v in VARS4]
        gens += [_term(rng.choice(COEFFS), f"{u}*{v}")
                 for i, u in enumerate(VARS4) for v in VARS4[i + 1:]]
        expect = {"std.colength": 4 * e - 3, "std.dimension": 0}
        return Request(rid, slot, "std", problem_text(VARS4, gens), expect)
    triples = _tpqr_triples(lo, hi)
    while True:
        exps = list(rng.choice(triples))
        rng.shuffle(exps)
        germ = _join([f"x^{exps[0]}", f"y^{exps[1]}", f"z^{exps[2]}",
                      _term(rng.choice(COEFFS), "x*y*z"), "w^2"])
        # Distinct germs: milnor and tjurina share germlab's per-germ caches.
        if germ not in seen:
            seen.add(germ)
            break
    mu = sum(exps) - 1
    expect = {"milnor": mu} if command == "milnor" else {"tjurina": mu - 1}
    return Request(rid, slot, command, problem_text(VARS4, [germ]), expect)


# -------------------------------------------------------------------- API

GENERATORS = {"theta_ci": _theta_ci, "hypersurface_reports": _hypersurface,
              "germ_scan": _germ_scan, "colength_queries": _colength}
WORKLOADS = tuple(GENERATORS)

# Requests written at set-up; a run stops early if it uses them all.
POOL_SIZE = {"theta_ci": 24, "hypersurface_reports": 100,
             "germ_scan": 160, "colength_queries": 360}


def generate(workload: str, seed: int, count: int | None = None) -> list[Request]:
    """The first `count` requests of `workload` for `seed` (deterministic)."""
    make = GENERATORS[workload]
    count = POOL_SIZE[workload] if count is None else count
    rng = random.Random(f"{workload}:{seed}")
    seen: set = set()
    return [make(rng, rid, seen) for rid in range(count)]
