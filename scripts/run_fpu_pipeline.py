#!/usr/bin/env python3
"""Quartic-chain pipeline: first-principles kernel, MC baseline, KL model.

Runs the full desk-scale experiment for a Fermi-Pasta-Ulam displacement
observable: gamma/mu tables (in float arithmetic, since the quartic Gibbs
marginal has quadrature moments), Faber memory kernel, correlation solve,
symplectic Monte-Carlo baseline, and the KL stochastic model with
higher-order auto-correlations (m = 1, 2, 4).
"""

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from glekit.io import write_columns, write_series
from glekit.kernels import (
    ObservableSpec,
    gamma_sequence,
    mu_sequence,
    select_kernel_by_consistency,
)
from glekit.klmodel import (
    DensityMarginal,
    build_fluctuation_process,
    higher_order_acf,
    kl_decompose,
    sample_ensemble,
)
from glekit.measures import gibbs_measure
from glekit.poly import Polynomial
from glekit.simulate import ChainParams, Observable, mc_autocorrelation
from glekit.systems import fpu_chain
from glekit.volterra import GeneralMode, Series, TimeGrid, solve_correlation, \
    solve_fluctuation_modes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sites", type=int, default=100)
    ap.add_argument("--beta1", type=str, default="1/100",
                    help="quartic coupling, rational like 1/100")
    ap.add_argument("--gamma", type=float, default=1.0)
    ap.add_argument("--order", type=int, default=20)
    ap.add_argument("--horizon", type=float, default=5.0)
    ap.add_argument("--dt", type=float, default=0.01)
    ap.add_argument("--mc-samples", type=int, default=10_000)
    ap.add_argument("--kl-samples", type=int, default=30_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="out/fpu")
    args = ap.parse_args()

    t0 = time.time()
    out = Path(args.out)
    beta1 = Fraction(args.beta1)
    system = fpu_chain(args.sites, alpha1=1, beta1=beta1, mass=1)
    measure = gibbs_measure(system, args.gamma)
    u0 = Polynomial.variable(args.sites // 2)  # displacement observable
    obs = ObservableSpec.from_measure(u0, measure)
    gram = float(obs.gram)
    print(f"[{time.time()-t0:6.1f}s] gram <r^2> = {gram:.6g}")

    gam = gamma_sequence(system.operator, obs, measure, args.order + 2, skew=True)
    mus = mu_sequence(gam)
    grid = TimeGrid(dt=args.dt, horizon=args.horizon)
    # quartic chains have superexponential moment growth; pick the truncation
    # by consecutive-order agreement instead of the growth-proxy default
    kern, diag = select_kernel_by_consistency(mus, grid, obs=obs)
    print(f"[{time.time()-t0:6.1f}s] kernel order {kern.order}, "
          f"delta {kern.delta:.4f}, K(0) = {kern(0.0):.6g}, "
          f"consistency gap {min(diag.scores.values()):.2g}, "
          f"PSD ratio {diag.psd_ratio:.2g}, rejected {dict(diag.rejected)}, "
          f"eigensolves {diag.eigensolves}")
    corr = solve_correlation(kern.streaming, kern, grid)
    write_series(out / "correlation_fp.csv", corr,
                 {"gram": gram, "order": kern.order, "delta": kern.delta},
                 value_name="C")

    params = ChainParams(n_sites=args.sites, alpha1=1.0, beta1=float(beta1),
                         gamma=args.gamma)
    mc = mc_autocorrelation(params, Observable(0, "r", 1), args.mc_samples,
                            grid, seed=args.seed, sim_dt=1e-3)
    write_series(out / "mc_acf_m1.csv", mc, {"n_samples": args.mc_samples},
                 value_name="acf")
    diff = np.abs(corr.values * gram - mc.values)
    print(f"[{time.time()-t0:6.1f}s] MC baseline done; "
          f"sup |C_fp - C_mc|/C(0) = {diff.max()/gram:.4f}")

    basis = kl_decompose(Series(grid, corr.values * gram))
    ens = sample_ensemble(basis, DensityMarginal(measure.density(0)),
                          args.kl_samples, seed=args.seed)
    print(f"[{time.time()-t0:6.1f}s] KL rank {ens.basis.rank}, "
          f"marginal err {ens.marginal_error:.3g}, acf err {ens.acf_error:.3g}")
    h = solve_fluctuation_modes(ens.basis.modes, ens.basis.eigenvalues,
                                kern.streaming, GeneralMode(kernel=kern), grid)
    hmat = np.column_stack([s.values for s in h])
    f_paths = build_fluctuation_process(ens.basis, hmat, ens)
    noise_acf = (f_paths[:, :1] * f_paths).mean(axis=0)
    write_columns(out / "noise_acf.csv",
                  {"t": grid.times, "acf": noise_acf,
                   "fdt_target": -gram * kern(grid.times)},
                  {"note": "noise ACF vs -<u^2> K(t)"})

    for m in (1, 2, 4):
        acf = higher_order_acf(ens, m)
        write_series(out / f"kl_acf_m{m}.csv", acf, {"power": m}, value_name="acf")
        mc_m = mc_autocorrelation(params, Observable(0, "r", m),
                                  args.mc_samples, grid, seed=args.seed + m,
                                  sim_dt=1e-3)
        write_series(out / f"mc_acf_m{m}.csv", mc_m, {"power": m}, value_name="acf")
        scale = abs(acf.values[0])
        sup = float(np.max(np.abs(acf.values - mc_m.values))) / scale
        print(f"[{time.time()-t0:6.1f}s] m={m}: sup |KL-MC|/scale = {sup:.4f}")
    print(f"wrote outputs under {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
