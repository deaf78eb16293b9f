"""Manufactured-solution check: an x-independent run reduces to the heat
equation on the half line, where u(t, y) = (1+2t)^{-3/2} y exp(-y^2/(2(1+2t)))
is exact.  Prints the error at t = 1 and a dt-refinement table.
"""

import numpy as np

from mhdbl.grid import BC_DIRICHLET, BC_NEUMANN, Field, GridSpec
from mhdbl.scenario import Params
from mhdbl.solver import make_state, step_imex


def heat_exact(y, t):
    s = 1.0 + 2.0 * t
    return s ** -1.5 * y * np.exp(-y ** 2 / (2.0 * s))


def run(grid, params, dt, t_final):
    spec = np.zeros(grid.nmodes, dtype=complex)
    spec[0] = 1.0
    u0 = Field.from_profiles(grid, spec, heat_exact(grid.y, 0.0), BC_DIRICHLET)
    b0 = Field.zeros(grid, BC_NEUMANN)
    st = make_state(grid, params, u0, b0)
    n = round(t_final / dt)
    for _ in range(n):
        st = step_imex(st, dt)
    return st


def main():
    grid = GridSpec(2.0 * np.pi, 8, 18.0, 512)
    params = Params(kappa=1.0, epsilon=1e-3)

    st = run(grid, params, 1e-3, 1.0)
    err = np.max(np.abs(st.u.coeffs[:, 0].real - heat_exact(grid.y, 1.0)))
    print(f"max error vs closed form at t=1 (dt=1e-3): {err:.3e}")

    # successive dt-halvings; second order shows up as ~4x shrinkage of
    # the gap between consecutive refinements
    t_final = 0.25
    sols = [run(grid, params, dt, t_final).u.coeffs[:, 0].real
            for dt in (5e-3, 2.5e-3, 1.25e-3)]
    d1 = np.max(np.abs(sols[0] - sols[1]))
    d2 = np.max(np.abs(sols[1] - sols[2]))
    print(f"refinement gaps: {d1:.3e} -> {d2:.3e}   ratio {d1 / d2:.3f}")


if __name__ == "__main__":
    main()
