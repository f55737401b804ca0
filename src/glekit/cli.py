"""Command-line experiment runner: kernel | correlate | mc | kl | compare.

Every run writes CSV files with a commented JSON header plus a manifest that
echoes the fully resolved configuration, so outputs are re-derivable from
their manifest alone.  Exit codes: 0 success, 2 validation error, 3 numeric
failure or exceeded comparison threshold, 4 resource cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, _rational, write_manifest
from .errors import NumericError, TermBudgetError, ValidationError
from .io import read_series, write_columns, write_series
from .kernels import (
    FaberParams,
    ObservableSpec,
    build_kernel,
    estimate_scaling,
    gamma_sequence,
    mu_sequence,
    select_kernel_by_consistency,
)
from .klmodel import (
    CLIP_TOL,
    DensityMarginal,
    higher_order_acf,
    kl_decompose,
    sample_ensemble,
)
from .measures import Gaussian, ProductMeasure, gibbs_measure
from .poly import Polynomial
from .simulate import ChainParams, Observable, mc_autocorrelation
from .volterra import (
    GeneralMode,
    Series,
    TimeGrid,
    solve_correlation,
    solve_fluctuation_modes,
)


def _build_context(cfg: ExperimentConfig):
    system = cfg.system.build()
    gamma = _rational(cfg.gamma)
    if system.is_chain:
        measure = gibbs_measure(system, gamma)
    else:
        measure = ProductMeasure.uniform(Gaussian(gamma), system.dimension)
    vidx = cfg.observable.variable_index(system)
    u0 = Polynomial.variable(vidx, cfg.observable.power)
    obs = ObservableSpec.from_measure(u0, measure)
    return system, measure, obs


def _kernel_pipeline(cfg: ExperimentConfig):
    """Context, tables and kernel of ``cfg``, plus the manifest entries that
    explain the kernel: a ``selection`` block when a scan chose it."""
    system, measure, obs = _build_context(cfg)
    kc = cfg.kernel
    gam = gamma_sequence(system.operator, obs, measure, kc.order + 2,
                         skew=kc.skew, term_cap=kc.term_cap)
    mu = mu_sequence(gam)
    if kc.delta == "consistency":
        kernel, diag = select_kernel_by_consistency(mu, _grid(cfg), obs=obs)
        selection = {
            "candidates": len(diag.scores) + sum(diag.rejected.values()),
            "admissible": len(diag.scores),
            "rejected": dict(diag.rejected),
            "order": kernel.order, "delta": kernel.delta,
            "gap": min(diag.scores.values()),  # the chosen pair's score
            "psd_ratio": diag.psd_ratio,
            "psd_margin": diag.psd_ratio + CLIP_TOL,  # distance above -CLIP_TOL
            "eigensolves": diag.eigensolves,  # PSD tests the certificate left open
        }
        return system, measure, obs, gam, mu, kernel, {"selection": selection}
    fp = estimate_scaling(gam) if kc.delta is None else FaberParams(delta=kc.delta)
    kernel = build_kernel(mu, basis=kc.basis, fp=fp, obs=obs)
    return system, measure, obs, gam, mu, kernel, {}


def _grid(cfg: ExperimentConfig) -> TimeGrid:
    return TimeGrid(dt=cfg.grid.dt, horizon=cfg.grid.horizon)


def cmd_kernel(cfg: ExperimentConfig) -> int:
    out = Path(cfg.output_dir)
    system, measure, obs, gam, mu, kernel, explained = _kernel_pipeline(cfg)
    grid = _grid(cfg)
    kvals = kernel(grid.times)
    meta = {
        "basis": kernel.basis, "order": kernel.order, "delta": kernel.delta,
        "c0": float(kernel.faber.c0) if kernel.faber else 0.0,
        "c1": float(kernel.faber.c1) if kernel.faber else 0.0,
        "gram": float(obs.gram), "streaming": kernel.streaming,
        "gamma_table": [float(g) for g in gam.values],
        "mu_table": [float(v) for v in mu.values],
    }
    idx = np.arange(1, len(gam.values) + 1, dtype=float)
    write_columns(out / "gamma.csv",
                  {"i": idx, "gamma": [float(g) for g in gam.values]}, meta)
    write_columns(out / "mu.csv",
                  {"i": idx, "mu": [float(v) for v in mu.values]}, meta)
    write_columns(out / "coeffs.csv",
                  {"q": np.arange(kernel.order + 1, dtype=float),
                   "M": kernel.coeffs}, meta)
    write_columns(out / "kernel.csv", {"t": grid.times, "K": kvals}, meta)
    write_manifest(out / "manifest.json", cfg.manifest("kernel", {**meta, **explained}))
    print(f"kernel: order {kernel.order}, delta {kernel.delta:.6g}, "
          f"K(0) = {kernel(0.0):.6g}")
    return 0


def cmd_correlate(cfg: ExperimentConfig, kernel_file: str | None = None) -> int:
    out = Path(cfg.output_dir)
    grid = _grid(cfg)
    if kernel_file:
        kser, meta_in = read_series(kernel_file, value_name="K")
        omega = float(meta_in.get("streaming", 0.0))
        if grid.horizon > kser.grid.horizon + 1e-9 * grid.dt:
            raise ValidationError(f"{kernel_file} tabulates K only to t = "
                                  f"{kser.grid.horizon:g}, short of the grid's {grid.horizon:g}")
        if kser.grid != grid:
            kvals = np.interp(grid.times, kser.grid.times, kser.values)
            kser = Series(grid, kvals)
        corr = solve_correlation(omega, kser, grid)
        explained = {}
    else:
        _, _, obs, gam, mu, kernel, explained = _kernel_pipeline(cfg)
        corr = solve_correlation(kernel.streaming, kernel, grid)
    write_series(out / "correlation.csv", corr,
                 cfg.manifest("correlate"), value_name="C")
    write_manifest(out / "manifest.json", cfg.manifest("correlate", explained))
    print(f"correlation solved on [0, {grid.horizon}] at dt = {grid.dt}")
    return 0


def cmd_mc(cfg: ExperimentConfig) -> int:
    out = Path(cfg.output_dir)
    system = cfg.system.build()
    if not system.is_chain:
        raise ValidationError("mc requires a built-in chain system")
    sp = system.params
    params = ChainParams(n_sites=sp["n_sites"], mass=float(sp["mass"]),
                         alpha1=float(sp["alpha1"]), beta1=float(sp["beta1"]),
                         gamma=cfg.gamma)
    grid = _grid(cfg)
    observable = Observable(site=cfg.observable.site, field=cfg.observable.field,
                            power=cfg.observable.power)
    acf = mc_autocorrelation(params, observable, cfg.mc.n_samples, grid,
                             seed=cfg.mc.seed, sim_dt=cfg.mc.sim_dt)
    meta = cfg.manifest("mc", {"n_samples": cfg.mc.n_samples, "seed": cfg.mc.seed})
    write_series(out / "mc_acf.csv", acf, meta, value_name="acf")
    write_manifest(out / "manifest.json", meta)
    print(f"mc: {cfg.mc.n_samples} paths, acf(0) = {acf.values[0]:.6g} "
          f"+- {acf.se[0]:.2g}")
    return 0


def cmd_kl(cfg: ExperimentConfig, correlation_file: str | None = None) -> int:
    out = Path(cfg.output_dir)
    grid = _grid(cfg)
    if correlation_file:
        corr, _ = read_series(correlation_file, value_name="C")
        if corr.grid != grid:
            raise ValidationError("correlation file grid differs from config grid")
        system, measure, obs = _build_context(cfg)
        kernel, explained = None, {}
        corr_raw = Series(grid, corr.values * (float(obs.gram) / corr.values[0]))
    else:
        system, measure, obs, _, _, kernel, explained = _kernel_pipeline(cfg)
        corr = solve_correlation(kernel.streaming, kernel, grid)
        corr_raw = Series(grid, corr.values * float(obs.gram))
    basis = kl_decompose(corr_raw)

    marginal = DensityMarginal(measure.density(cfg.observable.variable_index(system)))
    ens = sample_ensemble(basis, marginal, cfg.kl.n_samples,
                          iters=cfg.kl.iters, seed=cfg.kl.seed)

    meta = cfg.manifest("kl", {
        "rank": basis.rank,
        "sampled_rank": ens.basis.rank,
        "eigenvalues": [float(x) for x in basis.eigenvalues],
        "seed": cfg.kl.seed,
        "marginal_error": ens.marginal_error,
        "moment_error": ens.moment_error,
        "acf_error": ens.acf_error,
        "converged": ens.converged,
        "iterations": ens.iterations,
        "sweeps": ens.history,
        **explained,
    })
    mode_cols = {"t": grid.times}
    for k in range(basis.rank):
        mode_cols[f"e{k + 1}"] = basis.modes[:, k]
    write_columns(out / "modes.csv", mode_cols, meta)
    fdt = {}
    if kernel is not None:
        h = solve_fluctuation_modes(basis.modes, basis.eigenvalues, kernel.streaming,
                                    GeneralMode(kernel=kernel), grid)
        hmat = np.column_stack([s.values for s in h])
        hcols = {"t": grid.times}
        for k in range(basis.rank):
            hcols[f"h{k + 1}"] = hmat[:, k]
        write_columns(out / "hmodes.csv", hcols, meta)
        # FDT closed loop: the noise ACF should follow -<u0, u0> K(t).  The
        # noise paths f = xi A H^T (A = diag sqrt(lambda); the sampled
        # ensemble may retain a prefix of the basis modes) have the
        # origin-0 ACF H A G A h(0) with G = xi^T xi / samples, K x K
        ah = hmat[:, :ens.basis.rank] * np.sqrt(ens.basis.eigenvalues)
        g = ens.xi.T @ ens.xi / ens.n_samples
        acf, target = ah @ (g @ ah[0]), -float(obs.gram) * kernel(grid.times)
        write_columns(out / "noise_acf.csv",
                      {"t": grid.times, "acf": acf, "fdt_target": target}, meta)
        fdt = {"fdt": {"sup_deviation": float(np.max(np.abs(acf - target)) / abs(target[0]))}}
    if cfg.kl.export_xi:
        write_columns(out / "xi.csv",
                      {f"xi{k + 1}": ens.xi[:, k] for k in range(ens.basis.rank)},
                      meta)
    for m in (1, 2, 4):
        acf = higher_order_acf(ens, m)
        write_series(out / f"acf_m{m}.csv", acf, meta, value_name="acf")
    write_manifest(out / "manifest.json", {**meta, **fdt})
    print(f"kl: rank {basis.rank}, sampled rank {ens.basis.rank}, "
          f"marginal err {ens.marginal_error:.3g}, acf err {ens.acf_error:.3g}, "
          f"converged {ens.converged}")
    return 0


def cmd_compare(file_a: str, file_b: str, max_sup: float | None,
                max_l2: float | None, max_z: float | None,
                report_path: str | None) -> int:
    sa, _ = read_series(file_a)
    sb, _ = read_series(file_b)
    ta, tb = sa.grid.times, sb.grid.times
    lo, hi = max(ta[0], tb[0]), min(ta[-1], tb[-1])
    mask = (ta >= lo) & (ta <= hi)
    if not np.any(mask):
        raise ValidationError("the two series do not overlap in time")
    t = ta[mask]
    va = sa.values[mask]
    vb = np.interp(t, tb, sb.values)
    diff = va - vb
    sup = float(np.max(np.abs(diff)))
    l2 = float(np.sqrt(np.trapezoid(diff**2, t) / (t[-1] - t[0]))) if len(t) > 1 \
        else abs(float(diff[0]))
    report = {"files": [str(file_a), str(file_b)], "overlap": [lo, hi],
              "points": int(len(t)), "sup": sup, "l2": l2}
    se = None
    if sa.se is not None or sb.se is not None:
        var = np.zeros_like(t)
        if sa.se is not None:
            var = var + sa.se[mask] ** 2
        if sb.se is not None:
            var = var + np.interp(t, tb, sb.se) ** 2
        se = np.sqrt(var)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(se > 0, np.abs(diff) / se, np.inf * np.abs(np.sign(diff)))
        z = np.where(np.isnan(z), 0.0, z)
        report["max_z"] = float(np.max(z))
    body = json.dumps(report, indent=1, sort_keys=True)
    if report_path:
        Path(report_path).parent.mkdir(parents=True, exist_ok=True)
        Path(report_path).write_text(body + "\n")
    print(body)
    failed = ((max_sup is not None and sup > max_sup)
              or (max_l2 is not None and l2 > max_l2)
              or (max_z is not None and se is not None and report["max_z"] > max_z))
    return 3 if failed else 0


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="glekit",
        description="first-principles GLE kernels, correlations and KL noise models")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_config_cmd(name: str, help_: str):
        p = sub.add_parser(name, help=help_)
        p.add_argument("config", help="JSON experiment config")
        p.add_argument("--set", action="append", default=[], dest="overrides",
                       metavar="KEY=VALUE", help="dotted-path config override")
        return p

    add_config_cmd("kernel", "compute gamma/mu tables and the memory kernel")
    p = add_config_cmd("correlate", "solve the correlation GLE")
    p.add_argument("--kernel-file", default=None,
                   help="tabulated kernel CSV (default: inline pipeline)")
    add_config_cmd("mc", "Monte-Carlo ground-truth auto-correlation")
    p = add_config_cmd("kl", "KL bundle and sampled-path auto-correlations")
    p.add_argument("--correlation-file", default=None,
                   help="correlation CSV (default: inline first-principles pipeline)")

    p = sub.add_parser("compare", help="align two series files and report errors")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--max-sup", type=float, default=None)
    p.add_argument("--max-l2", type=float, default=None)
    p.add_argument("--max-z", type=float, default=None)
    p.add_argument("--report", default=None, help="write the JSON report here")
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "compare":
            return cmd_compare(args.file_a, args.file_b, args.max_sup,
                               args.max_l2, args.max_z, args.report)
        cfg = ExperimentConfig.load(args.config, args.overrides)
        if args.command == "kernel":
            return cmd_kernel(cfg)
        if args.command == "correlate":
            return cmd_correlate(cfg, args.kernel_file)
        if args.command == "mc":
            return cmd_mc(cfg)
        if args.command == "kl":
            return cmd_kl(cfg, args.correlation_file)
        raise ValidationError(f"unknown command {args.command!r}")
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TermBudgetError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 4
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
