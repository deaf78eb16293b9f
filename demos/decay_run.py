"""Small decay run: evolve the standard analytic data to t = 20 and fit
the decay exponents of the weighted norms.

Takes around a minute.  The full-scale protocol (t = 100, 64 x 768) lives
in tests/test_acceptance.py; this is the same physics at desk scale.
"""

import numpy as np

from mhdbl import (GridSpec, Params, initial_data_standard, make_state,
                   recommended_ymax, simulate, fit_decay, theta_report)


def main():
    t_final = 20.0
    ymax = recommended_ymax(t_final, kappa=1.0, weight_alpha=1.0)
    grid = GridSpec(2.0 * np.pi, 32, ymax, 384)
    params = Params(kappa=1.0, epsilon=1e-3)
    u0, b0, report = initial_data_standard(grid, params)
    print(f"initial data ok: {report['ok']}   domain height: {ymax}")

    res = simulate(make_state(grid, params, u0, b0), t_final=t_final,
                   dt_max=1e-2, sample_every=10)
    print(f"finished: reason={res.reason}  t={res.summary['t_final']:g}")

    for name in ("norm_ub", "norm_gh", "norm_dy_gh"):
        expo, err = fit_decay(res.series, name, (2.0, t_final))
        print(f"  {name:<11s} ~ t^{expo:+.3f}   (stderr {err:.4f})")

    rep = theta_report(res.series)
    print(f"  theta(final) = {rep['theta_final']:.3e}, "
          f"tail fraction after t={rep['t_split']:g}: "
          f"{rep['tail_fraction']:.2%}")
    print(f"  band radius left: {res.summary['radius_final']:.4f}")


if __name__ == "__main__":
    main()
