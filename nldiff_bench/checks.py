"""Output checks computed apart from the program.

Everything here is plain numpy on data the benchmark generated itself: the
walk weights come from the grid points and the kernel profile (or from the
weight matrix the benchmark wrote), the monotone laws from their closed
forms.  No function of ``nldiff`` is called, so a fault in the program
cannot also hide in its check.

Every tolerance is one of the documented 1e-9 scales of ``nldiff``:
inclusion gaps against ``1e-9*(1+|u|)``, equation residuals against
``1e-9*(1+|phi|)``, and mass balances against ``1e-9*max(1, |mass|)``.
Each check returns a list of human-readable failures; empty means passed.
"""

import numpy as np

TOL = 1e-9

# closed forms of the laws the workloads use: (lower, upper) value of the
# graph at r, as functions of an array r; every domain is the whole line
LAWS = {
    "identity": (lambda r: r, lambda r: r),
    "zero": (lambda r: np.zeros_like(r), lambda r: np.zeros_like(r)),
    "power2": (lambda r: r * np.abs(r), lambda r: r * np.abs(r)),
    "stefan": (lambda r: np.where(r <= 0.0, r, r + 1.0),
               lambda r: np.where(r < 0.0, r, r + 1.0)),
    "hele_shaw": (lambda r: np.where(r <= 0.0, 0.0, 1.0),
                  lambda r: np.where(r < 0.0, 0.0, 1.0)),
}


# ---------------------------------------------------------------------------
# walk weights
# ---------------------------------------------------------------------------

def grid_weights(points, radius, height=1.0, spacing=1.0):
    """Symmetric weights of an indicator kernel on sampled points."""
    pts = np.asarray(points, dtype=float)
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    w = np.where(dist <= radius, height * spacing ** pts.shape[1], 0.0)
    np.fill_diagonal(w, 0.0)
    return w


def walk(weights):
    """(nu, m): weighted degree and row-stochastic jump kernel."""
    nu = weights.sum(axis=1)
    return nu, weights / nu[:, None]


def divergence(m, p, u, omega):
    """sum_y m[x, y] * |u_y - u_x|^(p-2) (u_y - u_x) over x, y in omega."""
    du = u[omega][None, :] - u[omega][:, None]
    return (m[np.ix_(omega, omega)] * np.sign(du) * np.abs(du) ** (p - 1.0)).sum(1)


# ---------------------------------------------------------------------------
# single checks
# ---------------------------------------------------------------------------

def inclusion_gap(law, u, v):
    """Largest distance of v from the law's values within 1e-9*(1+|u|) of u."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.size == 0:
        return 0.0
    delta = TOL * (1.0 + np.abs(u))
    lower, upper = LAWS[law]
    lo = lower(u - delta)
    hi = upper(u + delta)
    return float(np.max(np.maximum(np.maximum(lo - v, v - hi), 0.0)))


def inclusion_errors(what, law, u, v, u_scale, value_scale=1.0):
    """The gap, times the factor the solver scaled the law's values by,
    against 1e-9*(1+max|u|)."""
    gap = inclusion_gap(law, u, v) * value_scale
    if not gap <= TOL * (1.0 + u_scale):
        return ["%s: %s inclusion gap %.3g" % (what, law, gap)]
    return []


def stationary_errors(weights, omega1, omega2, laws, p, lam, phi, u, v):
    """Inclusions, equation residual and conservation of a stationary pair.

    ``phi``, ``u`` and ``v`` are full node vectors; ``laws`` names the bulk
    and boundary law.
    """
    nu, m = walk(weights)
    omega = np.union1d(omega1, omega2)
    u_scale = float(np.max(np.abs(u[omega])))
    errors = inclusion_errors("bulk", laws[0], u[omega1], v[omega1], u_scale)
    errors += inclusion_errors("boundary", laws[1], u[omega2], v[omega2], u_scale)
    residual = v[omega] - lam * divergence(m, p, u, omega) - phi[omega]
    worst = float(np.max(np.abs(residual)))
    if not worst <= TOL * (1.0 + float(np.max(np.abs(phi[omega])))):
        errors.append("equation residual %.3g" % worst)
    mass_phi = float(nu[omega] @ phi[omega])
    gap = abs(float(nu[omega] @ v[omega]) - mass_phi)
    if not gap <= TOL * max(1.0, abs(mass_phi)):
        errors.append("conservation gap %.3g" % gap)
    return errors


def trajectory_errors(weights, omega1, omega2, laws, p, tau, states, u_rows,
                      forcing, static=False):
    """Per-step equation, inclusions and mass ledger of an Euler trajectory.

    ``states[i]`` is the full state vector at step i (bulk values on omega1,
    boundary values on omega2), ``u_rows[i-1]`` the potential of step i and
    ``forcing[i-1]`` the source average over step i.  In static-boundary
    mode the boundary entries of ``states`` are the absorbed fluxes w,
    which hold ``w - div u = 0`` and carry no state from step to step.
    """
    nu, m = walk(weights)
    omega = np.union1d(omega1, omega2)
    errors = []
    carry = np.zeros_like(states[0])
    carry[omega1] = 1.0
    if not static:
        carry[omega2] = 1.0
    for i in range(1, len(states)):
        u = u_rows[i - 1]
        psi = carry * states[i - 1] + tau * forcing[i - 1]
        lhs = states[i].copy()
        if static:
            lhs[omega2] *= tau
        residual = lhs[omega] - tau * divergence(m, p, u, omega) - psi[omega]
        worst = float(np.max(np.abs(residual)))
        if not worst <= TOL * (1.0 + float(np.max(np.abs(psi[omega])))):
            errors.append("step %d: equation residual %.3g" % (i, worst))
        u_scale = float(np.max(np.abs(u[omega])))
        errors += inclusion_errors("step %d bulk" % i, laws[0], u[omega1],
                                   states[i][omega1], u_scale)
        errors += inclusion_errors("step %d boundary" % i, laws[1],
                                   u[omega2], states[i][omega2], u_scale,
                                   tau if static else 1.0)
        before = float(nu[omega] @ psi[omega])
        after = float(nu[omega] @ lhs[omega])
        if not abs(after - before) <= TOL * max(1.0, abs(before)):
            errors.append("step %d: mass ledger off by %.3g"
                          % (i, abs(after - before)))
    return errors


def ledger_errors(rows, initial_mass):
    """Rows (t, mass_omega1, mass_omega2, source_integral) must close.

    Each step moves mass1 + mass2 by exactly the step's source integral,
    to the per-step conservation scale; the first row holds the initial
    mass.
    """
    rows = np.asarray(rows, dtype=float)
    errors = []
    if not abs(rows[0, 1] + rows[0, 2] - initial_mass) <= TOL * max(
        1.0, abs(initial_mass)
    ):
        errors.append("ledger starts at %.17g, not %.17g"
                      % (rows[0, 1] + rows[0, 2], initial_mass))
    total = rows[:, 1] + rows[:, 2]
    for i in range(1, rows.shape[0]):
        expected = total[i - 1] + rows[i, 3] - rows[i - 1, 3]
        if not abs(total[i] - expected) <= TOL * max(1.0, abs(expected)):
            errors.append("ledger row %d off by %.3g"
                          % (i, abs(total[i] - expected)))
    return errors


def contraction_errors(nu, first, second, psi_scale):
    """L1(nu) distance of two same-law trajectories must not grow.

    ``first`` and ``second`` hold one full state vector per step.  Each
    step may add the two trajectories' residual allowance,
    2 * 1e-9 * (1 + |psi|) * nu(Omega).
    """
    allowance = 2.0 * TOL * (1.0 + psi_scale) * float(nu.sum())
    dist = np.abs(np.asarray(first) - np.asarray(second)) @ nu
    grew = np.where(dist[1:] > dist[:-1] + allowance)[0]
    return ["step %d: L1 distance grew from %.17g to %.17g"
            % (i + 1, dist[i], dist[i + 1]) for i in grew]
