"""Pinned sign and orientation conventions.

Everything exact in this package depends on a handful of arbitrary-looking
choices.  They are collected here, once, so that no module quietly picks its
own and so the test suite can assert the calibration that fixes them.

Box exponents
    A box (i, j, k) of a plane partition sitting in a chart with tangent
    characters a1, a2, a3 contributes the monomial t^(i*a1 + j*a2 + k*a3).

Virtual character
    With f the bundle character and q the colored quotient character on a
    chart, P(t) = (1-t^a1)(1-t^a2)(1-t^a3) and kappa = t^(a1+a2+a3):

        T = dual(f)*q - dual(q)*f/kappa + dual(q)*q*P(t)/kappa

    This satisfies T + dual(T)/kappa = 0 and has zero constant term.

Inverse Euler class
    For T = sum c_m * m the inverse equivariant Euler class is

        prod_{c_m < 0} w(m)^(-c_m) / prod_{c_m > 0} w(m)^(c_m)

    where w is the weight form of the sampled parameters.  The single global
    sign left open by the bar convention is fixed by requiring the degree one
    invariant of projective 3-space with a trivial line bundle to equal +20.
    No extra sign factor is needed once the formulas above are used verbatim.

Projective bundle rings
    For P(O + L) over a surface, xi denotes the degree one class of the
    relative O(1) in the subbundle convention, so the Grothendieck relation is
    xi^2 = GROTHENDIECK_SIGN * c1(L) * xi and the relative Euler sequence
    gives c(T) = c(T_base) * (1 + xi) * (1 + xi + c1(L)).  The sign is pinned
    by the calibration integral c3(T) = 2 * chi(base), which the other choice
    violates as soon as L is nontrivial.

Built-in spaces
    A name in BUILTIN_SPACES denotes one product of projective spaces on both
    sides: the toric space of toric.builtin_space and the Chern ring of
    chern.named_ring.  The chern command compares the two through c3.
"""

# Calibration target: space, bundle rank, number of points, invariant value.
CALIBRATION = ("p3", 1, 1, 20)

# The built-in spaces by name, each with the dimensions of its projective factors.
BUILTIN_SPACES = {"p3": (3,), "p2xp1": (2, 1), "p1cubed": (1, 1, 1)}

# Sign in the quadratic relation xi^2 = sign * c1(L) * xi of a P(O + L) ring.
GROTHENDIECK_SIGN = -1
