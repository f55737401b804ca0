"""Which glekit functions the traced run wraps, and the per-layer metrics.

Each entry names the module attribute through which the program reaches a
public function, the span name (``<layer>.<function>``) and the counters
taken from the call's arguments and result.  Times named ``<...>_s`` are the
function's own time, without the time of other wrapped functions it calls
(for example, the kernel evaluations a selection scan's solves trigger count
under ``kernels.kernel_eval_s``); ``kernels.gamma_sequence_s``,
``kernels.select_s``, ``simulate.mc_autocorrelation_s`` and
``klmodel.sample_ensemble_s`` are whole-stage times that include their
children.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from recorder import Recorder, self_time_total


def _parity_sizes(poly) -> Counter:
    return Counter(tuple(v for v, e in key if e & 1) for key, _ in poly.terms)


def _count_pairs(args, kwargs, out) -> dict:
    """Same-parity term pairs product_expectation(f, g) has to merge."""
    f, g = args[0], args[1]
    fc = _parity_sizes(f)
    if f is g:
        return {"pairs": sum(k * (k + 1) // 2 for k in fc.values())}
    gc = _parity_sizes(g)
    return {"pairs": sum(k * gc.get(sig, 0) for sig, k in fc.items())}


def _count_terms(args, kwargs, out) -> dict:
    return {"terms": out.num_terms}


def _count_modes(args, kwargs, out) -> dict:
    k, t = args[0], args[1]
    return {"mode_evals": (k.order + 1) * int(np.size(t))}


def _count_macs(args, kwargs, out) -> dict:
    n = len(out.values) - 1
    return {"history_macs": n * n}


def _count_selection(args, kwargs, out) -> dict:
    diag = out[1]
    counts = {"candidates": len(diag.scores) + sum(diag.rejected.values()),
              "admissible": len(diag.scores)}
    for reason in ("anchor", "solve", "bound", "not_psd"):
        counts[f"rejected_{reason}"] = diag.rejected.get(reason, 0)
    return counts


def _count_site_steps(args, kwargs, out) -> dict:
    params, n_samples, grid = args[0], args[2], args[3]
    sim_dt = kwargs.get("sim_dt", 1e-3)
    steps = int(round(grid.horizon / sim_dt))
    return {"site_steps": n_samples * params.n_sites * steps}


def _count_sweeps(args, kwargs, out) -> dict:
    return {"sweeps": out.iterations,
            "values": out.iterations * out.paths.size}


def _wrapped(lib):
    """(module, attribute, span name, counter, memory) for every traced call."""
    k, v, s, kl = lib.kernels, lib.volterra, lib.simulate, lib.klmodel
    return [
        (k, "apply_liouville", "poly.apply_liouville", _count_terms, False),
        (k, "product_expectation", "measures.product_expectation", _count_pairs, False),
        (k, "gamma_sequence", "kernels.gamma_sequence", None, False),
        (k, "kernel_eval", "kernels.kernel_eval", _count_modes, False),
        (k, "select_kernel_by_consistency", "kernels.select", _count_selection, False),
        (v, "solve_correlation", "volterra.solve_correlation", _count_macs, False),
        (v, "extract_kernel", "volterra.extract_kernel", None, False),
        (v, "solve_fluctuation_modes", "volterra.solve_fluctuation_modes", None, False),
        (s, "mc_autocorrelation", "simulate.mc_autocorrelation", _count_site_steps, False),
        (s, "sample_equilibrium", "simulate.sample_equilibrium", None, False),
        (kl, "kl_decompose", "klmodel.kl_decompose", None, False),
        (kl, "psd_ratio", "klmodel.psd_ratio", None, False),
        (kl, "sample_ensemble", "klmodel.sample_ensemble", _count_sweeps, True),
        (kl, "higher_order_acf", "klmodel.higher_order_acf", None, False),
        (kl, "gle_sample_paths", "klmodel.gle_sample_paths", None, False),
    ]


def install(lib) -> Recorder:
    rec = Recorder()
    for module, attr, name, count, memory in _wrapped(lib):
        rec.wrap(module, attr, name, count=count, memory=memory)
    return rec


# (metric, unit, better); the order is that of BENCHMARK.json.
PER_LAYER = [
    ("poly.apply_liouville_s", "s", "lower"),
    ("poly.terms", "count", "lower"),
    ("poly.max_terms", "count", "lower"),
    ("poly.terms_per_s", "1/s", "higher"),
    ("measures.product_expectation_s", "s", "lower"),
    ("measures.pairs", "count", "lower"),
    ("measures.pairs_per_s", "1/s", "higher"),
    ("kernels.gamma_sequence_s", "s", "lower"),
    ("kernels.gamma_sequence_self_s", "s", "lower"),
    ("kernels.kernel_eval_s", "s", "lower"),
    ("kernels.mode_evals", "count", "lower"),
    ("kernels.mode_evals_per_s", "1/s", "higher"),
    ("kernels.select_s", "s", "lower"),
    ("kernels.select_candidates", "count", "lower"),
    ("kernels.select_admissible", "count", "higher"),
    ("kernels.select_admissible_ratio", "ratio", "higher"),
    ("kernels.select_rejected_anchor", "count", "lower"),
    ("kernels.select_rejected_solve", "count", "lower"),
    ("kernels.select_rejected_bound", "count", "lower"),
    ("kernels.select_rejected_not_psd", "count", "lower"),
    ("volterra.solve_correlation_s", "s", "lower"),
    ("volterra.solve_correlation_calls", "count", "lower"),
    ("volterra.history_macs", "count", "lower"),
    ("volterra.history_macs_per_s", "1/s", "higher"),
    ("volterra.extract_kernel_s", "s", "lower"),
    ("volterra.solve_fluctuation_modes_s", "s", "lower"),
    ("simulate.mc_autocorrelation_s", "s", "lower"),
    ("simulate.sample_equilibrium_s", "s", "lower"),
    ("simulate.site_steps", "count", "lower"),
    ("simulate.site_steps_per_s", "1/s", "higher"),
    ("klmodel.kl_decompose_s", "s", "lower"),
    ("klmodel.psd_ratio_s", "s", "lower"),
    ("klmodel.psd_ratio_calls", "count", "lower"),
    ("klmodel.sample_ensemble_s", "s", "lower"),
    ("klmodel.sampler_sweeps", "count", "lower"),
    ("klmodel.sampler_values_per_s", "1/s", "higher"),
    ("klmodel.sample_ensemble_peak_mb", "MB", "lower"),
    ("klmodel.higher_order_acf_s", "s", "lower"),
    ("klmodel.gle_sample_paths_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.count_s", "s", "lower"),
    ("trace.remainder_s", "s", "lower"),
]


def per_layer(summary: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metric values of one traced round; 0 where a layer is idle."""
    def agg(name):
        return summary.get(name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0,
                                  "counts": {}, "max": {}})

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    pl, pe = agg("poly.apply_liouville"), agg("measures.product_expectation")
    ev, sel = agg("kernels.kernel_eval"), agg("kernels.select")
    sc, mc = agg("volterra.solve_correlation"), agg("simulate.mc_autocorrelation")
    se = agg("klmodel.sample_ensemble")
    gs = agg("kernels.gamma_sequence")
    terms, pairs = pl["counts"].get("terms", 0), pe["counts"].get("pairs", 0)
    modes, macs = ev["counts"].get("mode_evals", 0), sc["counts"].get("history_macs", 0)
    cand = sel["counts"].get("candidates", 0)
    admissible = sel["counts"].get("admissible", 0)
    steps = mc["counts"].get("site_steps", 0)
    out = {
        "poly.apply_liouville_s": pl["self_seconds"],
        "poly.terms": terms,
        "poly.max_terms": pl["max"].get("terms", 0),
        "poly.terms_per_s": rate(terms, pl["self_seconds"]),
        "measures.product_expectation_s": pe["self_seconds"],
        "measures.pairs": pairs,
        "measures.pairs_per_s": rate(pairs, pe["self_seconds"]),
        "kernels.gamma_sequence_s": gs["seconds"],
        "kernels.gamma_sequence_self_s": gs["self_seconds"],
        "kernels.kernel_eval_s": ev["self_seconds"],
        "kernels.mode_evals": modes,
        "kernels.mode_evals_per_s": rate(modes, ev["self_seconds"]),
        "kernels.select_s": sel["seconds"],
        "kernels.select_candidates": cand,
        "kernels.select_admissible": admissible,
        "kernels.select_admissible_ratio": admissible / cand if cand else 0.0,
        "volterra.solve_correlation_s": sc["self_seconds"],
        "volterra.solve_correlation_calls": sc["calls"],
        "volterra.history_macs": macs,
        "volterra.history_macs_per_s": rate(macs, sc["self_seconds"]),
        "volterra.extract_kernel_s": agg("volterra.extract_kernel")["self_seconds"],
        "volterra.solve_fluctuation_modes_s":
            agg("volterra.solve_fluctuation_modes")["self_seconds"],
        "simulate.mc_autocorrelation_s": mc["seconds"],
        "simulate.sample_equilibrium_s": agg("simulate.sample_equilibrium")["self_seconds"],
        "simulate.site_steps": steps,
        "simulate.site_steps_per_s": rate(steps, mc["seconds"]),
        "klmodel.kl_decompose_s": agg("klmodel.kl_decompose")["self_seconds"],
        "klmodel.psd_ratio_s": agg("klmodel.psd_ratio")["self_seconds"],
        "klmodel.psd_ratio_calls": agg("klmodel.psd_ratio")["calls"],
        "klmodel.sample_ensemble_s": se["seconds"],
        "klmodel.sampler_sweeps": se["counts"].get("sweeps", 0),
        "klmodel.sampler_values_per_s": rate(se["counts"].get("values", 0), se["seconds"]),
        "klmodel.sample_ensemble_peak_mb": se["max"].get("peak_bytes", 0) / 1e6,
        "klmodel.higher_order_acf_s": agg("klmodel.higher_order_acf")["self_seconds"],
        "klmodel.gle_sample_paths_s": agg("klmodel.gle_sample_paths")["self_seconds"],
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.count_s": agg("trace.count")["seconds"],
        "trace.remainder_s": traced_wall - self_time_total(summary),
    }
    for reason in ("anchor", "solve", "bound", "not_psd"):
        out[f"kernels.select_rejected_{reason}"] = sel["counts"].get(f"rejected_{reason}", 0)
    return out
