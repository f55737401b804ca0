"""Command-line experiment runner: kernel | correlate | mc | kl | compare.

Every run writes CSV files with a commented JSON header plus a manifest that
echoes the fully resolved configuration, so outputs are re-derivable from
their manifest alone.  Exit codes: 0 success, 2 validation error, 3 numeric
failure or exceeded comparison threshold, 4 resource cap.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

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
from .poly import LiouvilleOperator, Polynomial, apply_liouville
from .simulate import ChainParams, Observable, mc_autocorrelation
from .systems import PolySystem, field_site
from .volterra import (
    GeneralMode,
    Series,
    solve_correlation,
    solve_fluctuation_modes,
)


class _Context(NamedTuple):
    """What the CLI derives from the system a config builds."""

    system: PolySystem
    measure: ProductMeasure
    obs: ObservableSpec
    var: int                          # index of the observed variable
    skew: bool                        # L proved skew-adjoint under the measure


def _build_context(cfg: ExperimentConfig) -> _Context:
    system = cfg.system.build()
    gamma = _rational(cfg.gamma)
    if system.is_chain:
        # a built-in chain is Hamiltonian in (r, p), and this is its Gibbs measure
        measure, skew = gibbs_measure(system, gamma), True
    else:
        measure = ProductMeasure.uniform(Gaussian(gamma), system.dimension)
        skew = _keeps_gaussian(system.operator)
    var = cfg.observable.variable_index(system)
    u0 = Polynomial.variable(var, cfg.observable.power)
    return _Context(system, measure, ObservableSpec.from_measure(u0, measure), var, skew)


def _keeps_gaussian(op: LiouvilleOperator) -> bool:
    """Whether L = F . grad is skew-adjoint under every isotropic Gaussian.

    Under exp(-gamma |x|^2 / 2) the adjoint of L is -L - div F + gamma x . F,
    so L is skew-adjoint when the flow keeps volume (div F = 0) and |x|^2
    (L |x|^2 = 2 x . F = 0).  Both are checked as exact polynomial
    identities.  The test is sufficient, not necessary: a system it misses
    takes the direct gamma path, which holds for any L.
    """
    dim = op.dimension
    div = sum((apply_liouville(LiouvilleOperator(dim, [(k, Polynomial.constant(1))]), f)
               for k, f in op.terms), Polynomial.zero())
    norm2 = sum((Polynomial.variable(k, 2) for k in range(dim)), Polynomial.zero())
    return div.is_zero() and apply_liouville(op, norm2).is_zero()


def _kernel_pipeline(cfg: ExperimentConfig):
    """Context, tables and kernel of ``cfg``, plus the manifest entries that
    explain the kernel: a ``selection`` block when a scan chose it."""
    ctx = _build_context(cfg)
    kc = cfg.kernel
    gam = gamma_sequence(ctx.system.operator, ctx.obs, ctx.measure, kc.order + 2,
                         skew=ctx.skew, term_cap=kc.term_cap)
    mu = mu_sequence(gam)
    if kc.delta == "consistency":
        kernel, diag = select_kernel_by_consistency(mu, cfg.grid, obs=ctx.obs)
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
        return ctx, gam, mu, kernel, {"selection": selection}
    fp = estimate_scaling(gam) if kc.delta is None else FaberParams(delta=kc.delta)
    kernel = build_kernel(mu, basis=kc.basis, fp=fp, obs=ctx.obs)
    return ctx, gam, mu, kernel, {}


def cmd_kernel(cfg: ExperimentConfig) -> int:
    out = Path(cfg.output_dir)
    ctx, gam, mu, kernel, explained = _kernel_pipeline(cfg)
    grid = cfg.grid
    kvals = kernel(grid.times)
    meta = {
        "basis": kernel.basis, "order": kernel.order, "delta": kernel.delta,
        "gram": float(ctx.obs.gram), "streaming": kernel.streaming,
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
    grid = cfg.grid
    if kernel_file:
        kser, meta_in = read_series(kernel_file, value_name="K", grid=grid)
        streaming = meta_in.get("streaming")
        if not (isinstance(streaming, (int, float)) and not isinstance(streaming, bool)
                and math.isfinite(streaming)):
            raise ValidationError(f"{kernel_file}: the JSON header needs a finite "
                                  f"numeric 'streaming' term, not {streaming!r}")
        corr = solve_correlation(float(streaming), kser, grid)
        explained = {}
    else:
        _, _, _, kernel, explained = _kernel_pipeline(cfg)
        corr = solve_correlation(kernel.streaming, kernel, grid)
    write_series(out / "correlation.csv", corr,
                 cfg.manifest("correlate"), value_name="C")
    write_manifest(out / "manifest.json", cfg.manifest("correlate", explained))
    print(f"correlation solved on [0, {grid.horizon}] at dt = {grid.dt}")
    return 0


def cmd_mc(cfg: ExperimentConfig) -> int:
    out = Path(cfg.output_dir)
    ctx = _build_context(cfg)
    if not ctx.system.is_chain:
        raise ValidationError("mc requires a built-in chain system")
    sp = ctx.system.params
    params = ChainParams(n_sites=sp["n_sites"], mass=float(sp["mass"]),
                         alpha1=float(sp["alpha1"]), beta1=float(sp["beta1"]),
                         gamma=cfg.gamma)
    field, site = field_site(ctx.system, ctx.var)
    observable = Observable(site=site, field=field, power=cfg.observable.power)
    acf = mc_autocorrelation(params, observable, cfg.mc.n_samples, cfg.grid,
                             seed=cfg.mc.seed, sim_dt=cfg.mc.sim_dt)
    meta = cfg.manifest("mc", {"n_samples": cfg.mc.n_samples, "seed": cfg.mc.seed})
    write_series(out / "mc_acf.csv", acf, meta, value_name="acf")
    write_manifest(out / "manifest.json", meta)
    print(f"mc: {cfg.mc.n_samples} paths, acf(0) = {acf.values[0]:.6g} "
          f"+- {acf.se[0]:.2g}")
    return 0


def cmd_kl(cfg: ExperimentConfig, correlation_file: str | None = None) -> int:
    if cfg.observable.power != 1:
        # the sampler's target is the law of x, while a power observable's
        # u0 = x**power is neither that law nor centred
        raise ValidationError("kl samples the law of the observed variable, so it needs "
                              f"observable.power 1, not {cfg.observable.power}")
    out = Path(cfg.output_dir)
    grid = cfg.grid
    if correlation_file:
        corr, _ = read_series(correlation_file, value_name="C", grid=grid)
        if not corr.values[0] > 0:
            raise ValidationError(f"{correlation_file}: C must have C(0) > 0")
        ctx = _build_context(cfg)
        kernel, explained = None, {}
        corr_raw = Series(grid, corr.values * (float(ctx.obs.gram) / corr.values[0]))
    else:
        ctx, _, _, kernel, explained = _kernel_pipeline(cfg)
        corr = solve_correlation(kernel.streaming, kernel, grid)
        corr_raw = Series(grid, corr.values * float(ctx.obs.gram))
    basis = kl_decompose(corr_raw)

    marginal = DensityMarginal(ctx.measure.density(ctx.var))
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
        acf, target = ah @ (g @ ah[0]), -float(ctx.obs.gram) * kernel(grid.times)
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
                max_z: float | None, report_path: str | None) -> int:
    sa, _ = read_series(file_a)
    sb, _ = read_series(file_b)
    if max_z is not None and sa.se is None and sb.se is None:
        raise ValidationError(f"--max-z needs standard errors, and neither {file_a} "
                              f"nor {file_b} has an 'se' column")
    if not np.isclose(sa.grid.dt, sb.grid.dt, rtol=1e-9, atol=0.0):
        raise ValidationError(f"{file_a} (dt = {sa.grid.dt:g}) and {file_b} "
                              f"(dt = {sb.grid.dt:g}) are not on one grid")
    n = min(len(sa), len(sb))  # both grids start at t = 0
    t = sa.grid.times[:n]
    diff = sa.values[:n] - sb.values[:n]
    sup = float(np.max(np.abs(diff)))
    l2 = float(np.sqrt(np.trapezoid(diff**2, t) / t[-1]))
    report = {"files": [str(file_a), str(file_b)], "overlap": [0.0, float(t[-1])],
              "points": n, "sup": sup, "l2": l2}
    if sa.se is not None or sb.se is not None:
        var = np.zeros_like(t)
        for series in (sa, sb):
            if series.se is not None:
                var = var + series.se[:n] ** 2
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
              or (max_z is not None and report["max_z"] > max_z))
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
                   help="tabulated kernel CSV on the config's grid: the same dt and "
                        "node count, and the streaming term in its JSON header, as "
                        "'glekit kernel' writes it (default: inline pipeline)")
    add_config_cmd("mc", "Monte-Carlo ground-truth auto-correlation")
    p = add_config_cmd("kl", "KL bundle and sampled-path auto-correlations")
    p.add_argument("--correlation-file", default=None,
                   help="correlation CSV on the config's grid: the same dt and node "
                        "count (default: inline first-principles pipeline)")

    p = sub.add_parser("compare", help="align two series files and report errors")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--max-sup", type=float, default=None)
    p.add_argument("--max-z", type=float, default=None,
                   help="bound on |a - b| / se; needs an 'se' column in either file")
    p.add_argument("--report", default=None, help="write the JSON report here")
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "compare":
            return cmd_compare(args.file_a, args.file_b, args.max_sup,
                               args.max_z, args.report)
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
