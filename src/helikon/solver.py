"""Parametrized Weierstrass families and the period-problem driver.

A FamilySpec bundles a parameter layout, a constructor mapping parameter
vectors to Weierstrass data, and the family's period map in closed form: a
residual function and its Jacobian.  solve() runs damped Newton with that
Jacobian, accepting only norm-decreasing steps, and keeps the singular
values of every Newton step's Jacobian.

The standard genus-one family takes its conformal data (tau and the
puncture E1) at construction, so its period problem is well posed:
horizontal closure on both torus generators, four real equations whose
Jacobian has full rank in the three real unknowns rho and c.  rho is the
Lopez-Ros deformation g -> rho g and c enters dh linearly, so the residual
and its Jacobian are algebra on the cycle integrals of the member rho = 1,
c = 0, taken once (Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973).
The helicoidal-end regularity, asymptotic_residual, holds on the whole
family by construction and is checked after the solve, not solved for.
"""

import warnings

import numpy as np

from .divisor import TWO_PI_I, check_abel, exp_factor_coefficient
from .errors import CoincidentPoints, HelikonError, SingularJacobian
from .expr import (
    Const,
    Elliptic,
    Exp,
    Expr,
    FormExpr,
    Torus,
    Var,
    add,
    div,
    eval_expr,
    mul,
    sub,
)
from .lattice import Lattice
from .paths import circle, generator, integrate_paths
from .records import record, replace
from .surface import (
    WeierstrassData,
    lopez_ros_triples,
    period_triple,
    period_triples,
)

# asymptotic_residual integrates on circles of this radius about the punctures
END_RADIUS = 0.08
# standard_g1h_family: both torus generators start at CYCLE_BASE, and the
# punctures +-E1 must lie at least MIN_SEPARATION apart modulo the lattice
CYCLE_BASE = -0.4871 - 0.3631j
MIN_SEPARATION = 0.08
# standard_g1h_family's residual refuses a Lopez-Ros factor rho below this
MIN_RHO = 0.05


# ---------------------------------------------------------------------------
# the period condition


@record(frozen=True)
class HorizontalPeriod:
    """Closure of the horizontal periods on one cycle:
    oint g dh - conj(oint g^-1 dh) = 0 (two real components), by direct
    quadrature of built data: the reference for closed-form maps."""

    cycle: object

    def evaluate(self, data, tol):
        p_plus, p_minus, _ = period_triple(data, self.cycle, tol)
        r = p_plus - p_minus.conjugate()
        return [r.real, r.imag]


@record
class FamilySpec:
    """Parameter layout, constructor and closed-form period map of a family.

    parameters: list of (name, kind) with kind "real" or "complex"; the
    solver works on the flattened real vector (complex parameters occupy two
    consecutive slots).  constructor maps a {name: value} dict to
    WeierstrassData.  residual maps the same dict to the real residual
    vector, and jacobian to its derivative, one column per real slot.
    """

    parameters: list
    constructor: object
    residual: object
    jacobian: object

    def n_real(self):
        return sum(2 if kind == "complex" else 1 for _, kind in self.parameters)

    def unpack(self, x):
        """Flat real vector -> {name: value} dict."""
        x = np.asarray(x, dtype=float)
        if x.size != self.n_real():
            raise ValueError(
                f"parameter vector has {x.size} entries, expected {self.n_real()}"
            )
        out = {}
        i = 0
        for name, kind in self.parameters:
            if kind == "complex":
                out[name] = complex(x[i], x[i + 1])
                i += 2
            else:
                out[name] = float(x[i])
                i += 1
        return out

    def pack(self, params):
        """{name: value} dict -> flat real vector."""
        vals = []
        for name, kind in self.parameters:
            v = params[name]
            if kind == "complex":
                v = complex(v)
                vals.extend([v.real, v.imag])
            else:
                vals.append(float(v))
        return np.array(vals)

    def build(self, x):
        return self.constructor(self.unpack(x))

    def residual_vector(self, x):
        return np.asarray(self.residual(self.unpack(x)), dtype=float)

    def jacobian_matrix(self, x):
        return np.asarray(self.jacobian(self.unpack(x)), dtype=float)


# ---------------------------------------------------------------------------
# the periodic genus-one helicoid family


def periodic_g1h_family(params):
    """Weierstrass data for the periodic genus-one helicoid family.

    params: {tau, E1, E2, zero_shifts, pole_shifts, a, rho, c, basepoint}.
    E2 defaults to -E1; a (the exponential coefficient making g elliptic)
    defaults to the unique Abel correction.  dh = -i(zeta(u-E1) -
    zeta(u-E2)) du + c du carries residues -i, +i by construction; g =
    rho * exp(a u) * prod sigma(u - z_i) / prod sigma(u - w_j).
    """
    tau = complex(params.get("tau", 1j))
    lat = Lattice(tau)
    E1 = complex(params["E1"])
    E2 = complex(params.get("E2", -E1))
    if lat.same_point(E1, E2, 1e-10):
        raise CoincidentPoints(f"E1 = {E1} and E2 = {E2} coincide mod the lattice")
    zeros = [E1] + [complex(z) for z in params.get("zero_shifts", ())]
    poles = [E2] + [complex(w) for w in params.get("pole_shifts", ())]

    # cancel removable factors sigma(u-z)/sigma(u-w) with z = w
    for z in list(zeros):
        for w in list(poles):
            if lat.same_point(z, w, 1e-12):
                warnings.warn(
                    f"degenerate zero/pole pair at {z} cancelled", stacklevel=2
                )
                zeros.remove(z)
                poles.remove(w)
                break

    a = params.get("a")
    if a is None:
        a = exp_factor_coefficient(zeros, poles, lat)
    else:
        check_abel(zeros, poles, lat)
        a = complex(a)
    rho = complex(params.get("rho", 1.0))

    dom = Torus(lat, (E1, E2))
    gnode = Const(rho)
    if a != 0:
        gnode = mul(gnode, Exp(mul(Const(a), Var())))
    for z in zeros:
        gnode = mul(gnode, Elliptic("sigma", z))
    for w in poles:
        gnode = div(gnode, Elliptic("sigma", w))
    g = Expr(gnode, dom)

    c = complex(params.get("c", 0.0))
    dhnode = add(
        mul(Const(-1j), sub(Elliptic("zeta", E1), Elliptic("zeta", E2))),
        Const(c),
    )
    dh = FormExpr(Expr(dhnode, dom))
    return WeierstrassData(
        g=g,
        dh=dh,
        basepoint=complex(params.get("basepoint", 0.21 + 0.43j)),
        label="periodic-g1h",
    )


def asymptotic_residual(data, punctures):
    """Helicoidal-end regularity defect: max over punctures p of
    |residue(w)| + |a_-2(w)| of w = dg/g - i dh.

    Zero means dg/g - i dh extends holomorphically across the punctures
    (scale-one helicoid asymptotics).  One quadrature run integrates (w,
    u w) over the circle of radius END_RADIUS about every puncture: the
    residue is oint w / 2 pi i and a_-2 = (oint u w - p oint w) / 2 pi i."""
    omega = data.log_gauss_form() + data.dh.scale(-1j)
    points = [complex(p) for p in punctures]

    def pair(u):
        w = eval_expr(omega, u)
        return np.stack([w, u * w])

    paths = [circle(p, END_RADIUS) for p in points]
    rows = integrate_paths(pair, paths, 1e-12)
    worst = 0.0
    for p, (w, uw) in zip(points, rows.tolist()):
        res, a2 = w / TWO_PI_I, (uw - p * w) / TWO_PI_I
        worst = max(worst, abs(res) + abs(a2))
    return worst


def _closure(triples):
    """[Re, Im] of the horizontal closure P+ - conj(P-), row by row."""
    z = triples[:, 0] - triples[:, 1].conj()
    return np.column_stack([z.real, z.imag]).ravel()


def standard_g1h_family(tau=1j, shift=None, E1=0.25 + 0.1j, quad_tol=1e-10):
    """The symmetric one-pair family solved by the bundled scene.

    tau, shift and the puncture E1 are conformal data fixed here; the
    unknowns are rho (real) and c (complex).  E2 = -E1, with an auxiliary
    zero at -E1 - shift and a pole at its negative, so Abel holds.
    Residuals: horizontal period closure on both torus generators, which
    start at CYCLE_BASE.  The vertical periods encode the screw motion and
    are deliberately left open; the end regularity holds by construction
    (asymptotic_residual).
    Raises CoincidentPoints when the punctures +-E1 lie within
    MIN_SEPARATION of each other modulo the lattice.

    The member (rho, c) has g = rho g0 and dh = dh0 + c du, so its period
    triples are lopez_ros_triples(T0 + c T1, rho), where T0 and T1 are the
    unit member's triples of dh0 and of du on the generators, integrated
    once here at quad_tol: the residual and its Jacobian are exact algebra.
    """
    tau = complex(tau)
    E1 = complex(E1)
    if shift is None:
        shift = 0.5 + 0.5 * tau
    cycles = [generator(CYCLE_BASE, 1), generator(CYCLE_BASE, tau)]

    def constructor(params):
        return periodic_g1h_family(
            {
                "tau": tau,
                "E1": E1,
                "zero_shifts": [-E1 - shift],
                "pole_shifts": [E1 + shift],
                "rho": params["rho"],
                "c": params["c"],
            }
        )

    unit = constructor({"rho": 1.0, "c": 0.0})
    sep = unit.domain.lattice.distance(E1, -E1)
    if sep < MIN_SEPARATION:
        raise CoincidentPoints(
            f"punctures +-{E1} are {sep:.3g} apart modulo the lattice"
        )
    du = FormExpr(Expr(Const(1.0), unit.domain))
    t_dh = period_triples(unit, cycles, quad_tol)
    t_du = period_triples(replace(unit, dh=du), cycles, quad_tol)

    def residual(params):
        if not params["rho"] >= MIN_RHO:
            raise CoincidentPoints("parameters left the feasible box")
        triples = t_dh + params["c"] * t_du
        return _closure(lopez_ros_triples(triples, params["rho"]))

    def jacobian(params):
        rho = params["rho"]
        p = lopez_ros_triples(t_dh + params["c"] * t_du, rho)
        s = lopez_ros_triples(t_du, rho)
        # (rho T+, T-/rho) has rho-derivative (T+, -T-/rho^2) = (p+, -p-)/rho;
        # c = c' + i c'' enters through s and i s
        return np.column_stack(
            [_closure(p * [1, -1, 1]) / rho, _closure(s), _closure(1j * s)]
        )

    return FamilySpec(
        parameters=[("rho", "real"), ("c", "complex")],
        constructor=constructor,
        residual=residual,
        jacobian=jacobian,
    )


# ---------------------------------------------------------------------------
# the driver


@record
class SolveResult:
    params: np.ndarray
    history: list  # residual norm at the start and after every step
    converged: bool
    singular_values: list  # one list per Newton step, largest first

    @property
    def final_norm(self):
        return self.history[-1]

    @property
    def iterations(self):
        return len(self.history) - 1


def solve(family, init, tol=1e-8, max_iter=50):
    """Drive the family's residual vector to zero.

    Damped Newton on the flattened real parameters, with the family's
    Jacobian: the least-squares Newton step is tried at full length and
    then halved, up to 11 times, until it lowers the residual norm.  A
    trial point the family refuses (HelikonError) counts as one that does
    not.  Only norm-decreasing steps are taken, so the recorded history is
    monotone.  Raises SingularJacobian when the Jacobian is not finite or
    no trial lowers the norm (a nan norm included); otherwise returns
    SolveResult with converged = final norm < tol (recomputed from
    scratch, not cached) and the singular values of every Newton step's
    Jacobian.
    """
    x = np.asarray(
        init if not isinstance(init, dict) else family.pack(init), dtype=float
    ).copy()
    r = family.residual_vector(x)
    history = [float(np.linalg.norm(r))]
    singular_values = []

    # "not <" so that a nan norm enters the loop and raises
    while not history[-1] < tol and len(singular_values) < max_iter:
        J = family.jacobian_matrix(x)
        if not np.all(np.isfinite(J)):
            raise SingularJacobian("non-finite Jacobian entries")
        step, _, _, sv = np.linalg.lstsq(J, -r, rcond=None)
        singular_values.append(sv.tolist())
        for k in range(12):
            trial = x + 0.5**k * step
            try:
                r_new = family.residual_vector(trial)
            except HelikonError:
                continue
            n_new = float(np.linalg.norm(r_new))
            if n_new < history[-1]:
                break
        else:
            raise SingularJacobian(
                f"no damped Newton step lowers the residual norm"
                f" {history[-1]:.3g}"
            )
        x, r = trial, r_new
        history.append(n_new)

    # recompute the final residual from scratch; never trust the cache
    history[-1] = float(np.linalg.norm(family.residual_vector(x)))
    return SolveResult(
        params=x,
        history=history,
        converged=history[-1] < tol,
        singular_values=singular_values,
    )
