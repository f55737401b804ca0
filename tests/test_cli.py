"""End-to-end CLI runs: files, manifests, determinism, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from glekit.cli import main
from glekit.io import read_columns, read_series, write_columns, write_series
from glekit.volterra import Series, TimeGrid


def write_config(path: Path, **overrides) -> Path:
    cfg = {
        "system": {"name": "harmonic_chain", "n_sites": 16},
        "observable": {"field": "p", "site": 8, "power": 1},
        "kernel": {"basis": "faber", "order": 12},
        "grid": {"horizon": 5.0, "dt": 0.01},
        "mc": {"n_samples": 400, "seed": 2, "sim_dt": 5e-3},
        "kl": {"n_samples": 4000, "iters": 5, "seed": 3},
        "gamma": 1.0,
        "output_dir": str(path.parent / "out"),
    }
    for key, value in overrides.items():
        cfg[key] = value
    path.write_text(json.dumps(cfg))
    return path


def test_kernel_command_outputs(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"))
    assert main(["kernel", str(cfg)]) == 0
    out = tmp_path / "out"
    for name in ("gamma.csv", "mu.csv", "coeffs.csv", "kernel.csv", "manifest.json"):
        assert (out / name).exists()
    cols, meta = read_columns(out / "gamma.csv")
    assert meta["gamma_table"][1] == pytest.approx(-2.0)
    assert cols["gamma"][0] == 0.0
    kcols, kmeta = read_columns(out / "kernel.csv")
    assert kmeta["basis"] == "faber"
    assert kcols["K"][0] == pytest.approx(-2.0, abs=1e-9)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["system"]["name"] == "harmonic_chain"
    assert "written_at" in manifest


def test_correlate_inline_matches_bessel(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"),
                       kernel={"basis": "faber", "order": 24})
    assert main(["correlate", str(cfg)]) == 0
    series, _ = read_series(tmp_path / "out" / "correlation.csv", value_name="C")
    target = special.jv(0, 2 * series.grid.times)
    assert np.max(np.abs(series.values - target)) < 0.02


def test_consistency_selection_in_manifests(tmp_path):
    from glekit.klmodel import CLIP_TOL
    cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"),
                       kernel={"basis": "faber", "order": 10, "delta": "consistency"},
                       grid={"horizon": 2.0, "dt": 0.02})
    blocks = []
    for command in ("kernel", "correlate"):
        assert main([command, str(cfg)]) == 0
        blocks.append(json.loads((tmp_path / "out" / "manifest.json").read_text())["selection"])
    assert blocks[0] == blocks[1]
    sel = blocks[0]
    assert sel["candidates"] == 3 * 33  # orders 6, 8, 10 on the default delta grid
    assert sel["admissible"] + sum(sel["rejected"].values()) == sel["candidates"]
    assert sel["admissible"] >= 1
    assert set(sel["rejected"]) <= {"solve", "bound", "not_psd"}
    _, kmeta = read_columns(tmp_path / "out" / "kernel.csv")
    assert (sel["order"], sel["delta"]) == (kmeta["order"], kmeta["delta"])
    assert sel["psd_margin"] == pytest.approx(sel["psd_ratio"] + CLIP_TOL)
    assert sel["psd_margin"] >= 0
    # the certificate rejects only not_psd candidates; the rest reach the eigensolve
    not_psd = sel["rejected"].get("not_psd", 0)
    assert sel["admissible"] <= sel["eigensolves"] <= sel["admissible"] + not_psd
    # a kernel with a fixed delta has no scan to explain
    cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"))
    assert main(["kernel", str(cfg)]) == 0
    assert "selection" not in json.loads((tmp_path / "out" / "manifest.json").read_text())


@pytest.mark.filterwarnings("ignore:marginal sampler did not converge")
def test_kernel_psd_ratio_in_manifests(tmp_path):
    # the quartic gamma = 40 chain with the n = 16 table: the scan's choice
    # has a correlation that is a covariance, while -K is not one on [0, 4]
    from glekit.klmodel import CLIP_TOL
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", output_dir=str(out),
                       system={"name": "fpu_chain", "n_sites": 100, "alpha1": 1.0,
                               "beta1": 1.0, "mass": 1.0},
                       observable={"field": "r", "site": 50, "power": 1},
                       kernel={"basis": "faber", "order": 14, "delta": "consistency"},
                       grid={"horizon": 4.0, "dt": 0.01},
                       kl={"n_samples": 2000, "iters": 1, "seed": 3}, gamma=40.0)
    assert main(["kl", str(cfg)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    sel = manifest["selection"]
    assert (sel["order"], sel["delta"]) == (6, 0.35)
    assert sel["psd_ratio"] >= -CLIP_TOL
    assert sel["kernel_psd_ratio"] == pytest.approx(-1.96e-5, rel=0.01)
    assert sel["kernel_psd_ratio"] < -CLIP_TOL
    # the FDT target -<u0, u0> K has the same ratio
    assert manifest["fdt"]["kernel_psd_ratio"] == pytest.approx(sel["kernel_psd_ratio"],
                                                                rel=1e-9)


def test_correlate_from_kernel_file(tmp_path, capsys):
    grid = TimeGrid(dt=0.01, horizon=5.0)
    t = grid.times
    kvals = np.where(t == 0, -2.0, -2 * special.jv(1, 2 * t) / np.where(t == 0, 1, t))
    kfile = tmp_path / "kernel.csv"
    write_series(kfile, Series(grid, kvals), {"streaming": 0.0}, value_name="K")
    cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"))
    assert main(["correlate", str(cfg), "--kernel-file", str(kfile)]) == 0
    series, _ = read_series(tmp_path / "out" / "correlation.csv", value_name="C")
    assert np.max(np.abs(series.values - special.jv(0, 2 * t))) < 1e-4
    # K tabulated on [0, 2] cannot be held constant out to the horizon 5
    short = tmp_path / "short_kernel.csv"
    write_series(short, Series(TimeGrid(dt=0.01, horizon=2.0), kvals[:201]),
                 {"streaming": 0.0}, value_name="K")
    assert main(["correlate", str(cfg), "--set", f"output_dir={tmp_path / 'short'}",
                 "--kernel-file", str(short)]) == 2
    assert "short_kernel.csv" in capsys.readouterr().err
    assert not (tmp_path / "short").exists()


def test_correlate_rejects_a_non_uniform_time_column(tmp_path, capsys):
    grid = TimeGrid(dt=0.01, horizon=5.0)
    kfile = tmp_path / "kernel.csv"
    write_series(kfile, Series(grid, -2 * special.jv(0, grid.times)),
                 {"streaming": 0.0}, value_name="K")
    kser, _ = read_series(kfile, value_name="K")
    assert kser.grid == grid and np.array_equal(kser.grid.times, grid.times)
    cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"))
    cols, meta = read_columns(kfile)
    for defect in ("scaled_rows", "shifted_start"):
        t = cols["t"].copy()
        if defect == "scaled_rows":
            t[100:400] *= 3
        else:
            t += 0.5 * grid.dt
        bad = tmp_path / f"{defect}_kernel.csv"
        write_columns(bad, {"t": t, "K": cols["K"]}, meta)
        assert main(["correlate", str(cfg), "--kernel-file", str(bad)]) == 2
        assert f"{defect}_kernel.csv" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_correlate_rejects_a_non_finite_kernel(tmp_path, capsys):
    # bad input, not a numeric failure of the solve
    grid = TimeGrid(dt=0.01, horizon=5.0)
    kvals = -2 * special.jv(0, grid.times)
    kvals[250] = np.nan
    kfile = tmp_path / "nan_kernel.csv"
    write_series(kfile, Series(grid, kvals), {"streaming": 0.0}, value_name="K")
    cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"))
    assert main(["correlate", str(cfg), "--kernel-file", str(kfile)]) == 2
    assert "nan_kernel.csv" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("header", [{}, {"streaming": "abc"}, {"streaming": float("nan")}],
                         ids=["missing", "non_numeric", "non_finite"])
def test_correlate_needs_the_streaming_term_of_a_kernel_file(tmp_path, capsys, header):
    # a missing streaming term is not taken as 0: the damped pair's is -1
    grid = TimeGrid(dt=0.01, horizon=5.0)
    kfile = tmp_path / "kernel.csv"
    write_series(kfile, Series(grid, -2 * special.jv(0, grid.times)), header, value_name="K")
    cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"))
    assert main(["correlate", str(cfg), "--kernel-file", str(kfile)]) == 2
    err = capsys.readouterr().err
    assert "kernel.csv" in err and "streaming" in err
    assert not (tmp_path / "out").exists()


def _damped_pair_file(path: Path) -> Path:
    # dx/dt = -x + y, dy/dt = -x: the dissipative -x makes L non-skew, so the
    # kernel carries a streaming term Omega = <L x, x> / <x, x> = -1
    path.write_text(json.dumps({"variables": ["x", "y"], "terms": [
        {"target": 0, "rhs": [{"coeff": [-1, 1], "exps": {"0": 1}},
                              {"coeff": [1, 1], "exps": {"1": 1}}]},
        {"target": 1, "rhs": [{"coeff": [-1, 1], "exps": {"0": 1}}]}]}))
    return path


@pytest.mark.parametrize("system", ["harmonic_chain", "damped_pair"])
def test_kernel_file_round_trip_matches_inline(tmp_path, system):
    overrides = {}
    if system == "damped_pair":
        overrides = {"system": {"file": str(_damped_pair_file(tmp_path / "sys.json"))},
                     "observable": {"var": 0},
                     "kernel": {"basis": "faber", "order": 6}}
    cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "inline"),
                       **overrides)
    assert main(["correlate", str(cfg)]) == 0
    assert main(["kernel", str(cfg), "--set", f"output_dir={tmp_path / 'k'}"]) == 0
    assert main(["correlate", str(cfg), "--set", f"output_dir={tmp_path / 'file'}",
                 "--kernel-file", str(tmp_path / "k" / "kernel.csv")]) == 0
    inline, _ = read_series(tmp_path / "inline" / "correlation.csv", value_name="C")
    from_file, _ = read_series(tmp_path / "file" / "correlation.csv", value_name="C")
    assert np.array_equal(inline.values, from_file.values)


def _cubic_pair_file(path: Path) -> Path:
    # dx/dt = y, dy/dt = -x - y^3: div F = -3 y^2, so L is not skew-adjoint
    # under the Gaussian, although <L x, x> = 0
    path.write_text(json.dumps({"variables": ["x", "y"], "terms": [
        {"target": 0, "rhs": [{"coeff": [1, 1], "exps": {"1": 1}}]},
        {"target": 1, "rhs": [{"coeff": [-1, 1], "exps": {"0": 1}},
                              {"coeff": [-1, 1], "exps": {"1": 3}}]}]}))
    return path


# observed variable and gamma_1..gamma_6 of <L^i u0, u0> / <u0, u0> under the
# unit Gaussian, from an independent symbolic expansion; the first two
# systems are skew-adjoint there, the last three are not
GAMMA_TABLES = {
    "kraichnan_orszag": (0, [0, -1, 0, 11, 0, -279]),
    "fpu_file": (9, [0, -2, 0, 6, 0, -20]),
    "fpu_alpha2_file": (9, [0, -4, 0, 24, 0, -160]),
    "cubic_pair": (0, [0, -1, 3, -62, 2829, -217927]),
    "damped_pair": (0, [-1, 0, 1, -1, 0, 1]),
}


@pytest.mark.parametrize("system", list(GAMMA_TABLES))
def test_skew_decision_gives_the_exact_gamma_table(tmp_path, system):
    from glekit.systems import fpu_chain, save_system
    sys_file = tmp_path / "sys.json"
    if system == "kraichnan_orszag":
        spec = {"name": system}
    else:
        if system == "cubic_pair":
            _cubic_pair_file(sys_file)
        elif system == "damped_pair":
            _damped_pair_file(sys_file)
        else:  # a chain read from a file is not known to be Hamiltonian
            save_system(fpu_chain(6, alpha1=2 if system == "fpu_alpha2_file" else 1),
                        sys_file)
        spec = {"file": str(sys_file)}
    var, table = GAMMA_TABLES[system]
    cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"),
                       system=spec, observable={"var": var},
                       kernel={"basis": "dyson", "order": 4})
    assert main(["kernel", str(cfg)]) == 0
    _, meta = read_columns(tmp_path / "out" / "gamma.csv")
    assert meta["gamma_table"] == table


@pytest.mark.parametrize("key, value", [("n_sites", 5), ("alpha1", 7.0),
                                        ("beta1", 0.0), ("mass", 1.0)])
def test_ko_rejects_chain_keys(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"),
                       system={"name": "kraichnan_orszag", key: value},
                       observable={"var": 0})
    assert main(["kernel", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "kraichnan_orszag" in err and key in err
    assert not (tmp_path / "out").exists()


def test_system_names_every_key_it_does_not_take(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"),
                       system={"name": "kraichnan_orszag", "n_sites": 5, "alpha1": 7.0},
                       observable={"var": 0})
    assert main(["kernel", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "kraichnan_orszag" in err and "n_sites" in err and "alpha1" in err
    assert not (tmp_path / "out").exists()


def test_consistency_scan_needs_the_faber_basis(tmp_path, capsys):
    # the scan builds Faber kernels only: a dyson basis would be ignored
    cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"),
                       kernel={"basis": "dyson", "order": 10, "delta": "consistency"})
    assert main(["kernel", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "kernel.basis" in err and "kernel.delta" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", ["inline", "correlation_file"])
def test_kl_needs_the_observed_variable_itself(tmp_path, capsys, source):
    # the sampler's target is the law of r_3, not of u0 = r_3^2
    grid = TimeGrid(dt=0.01, horizon=2.0)
    cfile = tmp_path / "correlation.csv"
    write_series(cfile, Series(grid, np.exp(-grid.times)), {}, value_name="C")
    cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"),
                       system={"name": "fpu_chain", "n_sites": 16, "alpha1": 1, "beta1": 1},
                       observable={"field": "r", "site": 3, "power": 2},
                       kernel={"basis": "faber", "order": 12, "delta": "consistency"},
                       grid={"horizon": 2.0, "dt": 0.01}, gamma=40.0)
    flags = ["--correlation-file", str(cfile)] if source == "correlation_file" else []
    assert main(["kl", str(cfg), *flags]) == 2
    assert "observable.power" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["harmonic_chain", "fpu_chain"])
def test_chain_needs_n_sites(tmp_path, capsys, name):
    cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"),
                       system={"name": name})
    for command in ("kernel", "mc"):
        assert main([command, str(cfg)]) == 2
        err = capsys.readouterr().err
        assert name in err and "n_sites" in err
    assert not (tmp_path / "out").exists()


def test_mc_observable_var_is_the_chain_variable(tmp_path):
    # variable 3 of an 8-site chain is r_3
    rows = []
    for label, observable in (("var", {"var": 3}), ("field", {"field": "r", "site": 3})):
        cfg = write_config(tmp_path / f"{label}.json", output_dir=str(tmp_path / label),
                           system={"name": "harmonic_chain", "n_sites": 8},
                           observable=observable, grid={"horizon": 1.0, "dt": 0.01})
        assert main(["mc", str(cfg)]) == 0
        rows.append((tmp_path / label / "mc_acf.csv").read_text().splitlines()[1:])
    assert rows[0] == rows[1]
    # the manifest echoes the address that was run, and null for the other
    manifest = json.loads((tmp_path / "var" / "manifest.json").read_text())
    assert manifest["config"]["observable"] == {"field": None, "site": None, "var": 3,
                                                "power": 1}


@pytest.mark.parametrize("site", [8, -1])
def test_observable_site_outside_the_chain_exit_code(tmp_path, capsys, site):
    # sites of an 8-site chain are 0..7; an API caller's index wraps, a config's does not
    cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"),
                       system={"name": "harmonic_chain", "n_sites": 8},
                       observable={"field": "p", "site": site})
    assert main(["kernel", str(cfg)]) == 2
    assert "observable site outside the chain" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_mc_command_and_compare(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", output_dir=str(out))
    assert main(["mc", str(cfg)]) == 0
    acf, meta = read_series(out / "mc_acf.csv", value_name="acf")
    assert acf.se is not None
    assert acf.values[0] == pytest.approx(1.0, abs=3 * acf.se[0])

    # exact correlation for comparison
    grid = TimeGrid(dt=0.01, horizon=5.0)
    ref = tmp_path / "ref.csv"
    write_series(ref, Series(grid, special.jv(0, 2 * grid.times)), {}, value_name="C")
    code = main(["compare", str(out / "mc_acf.csv"), str(ref),
                 "--max-z", "4.0", "--report", str(tmp_path / "rep.json")])
    assert code == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["points"] == grid.n_nodes
    # an absurd threshold must flip the exit code
    assert main(["compare", str(out / "mc_acf.csv"), str(ref),
                 "--max-sup", "1e-9"]) == 3


def test_kl_command_outputs(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", output_dir=str(out),
                       kernel={"basis": "faber", "order": 16},
                       kl={"n_samples": 3000, "iters": 4, "seed": 5})
    assert main(["kl", str(cfg)]) == 0
    for name in ("modes.csv", "hmodes.csv", "noise_acf.csv",
                 "acf_m1.csv", "acf_m2.csv", "acf_m4.csv", "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["rank"] >= 4
    assert len(manifest["eigenvalues"]) == manifest["rank"]
    acf1, _ = read_series(out / "acf_m1.csv", value_name="acf")
    target = special.jv(0, 2 * acf1.grid.times)
    assert np.all(np.abs(acf1.values - target) <= np.maximum(3 * acf1.se, 0.06))


def test_kl_command_from_correlation_file(tmp_path):
    # a tabulated correlation replaces the inline pipeline, which alone
    # knows the kernel and so alone writes the fluctuation modes
    cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "corr"),
                       kernel={"basis": "faber", "order": 16},
                       kl={"n_samples": 3000, "iters": 4, "seed": 5})
    assert main(["correlate", str(cfg)]) == 0
    out = tmp_path / "out"
    code = main(["kl", str(cfg), "--set", f"output_dir={out}",
                 "--correlation-file", str(tmp_path / "corr" / "correlation.csv")])
    assert code == 0
    for name in ("modes.csv", "acf_m1.csv", "acf_m2.csv", "acf_m4.csv", "manifest.json"):
        assert (out / name).exists()
    assert not (out / "hmodes.csv").exists()
    assert not (out / "noise_acf.csv").exists()


@pytest.mark.parametrize("horizon, dt", [(2.3, 0.01), (0.3, 0.1)])
def test_kl_reads_the_correlation_that_correlate_wrote(tmp_path, horizon, dt):
    # the last t written is (n - 1) * dt, 2.3000000000000003 and
    # 0.30000000000000004 here, not the config's horizon
    cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "corr"),
                       grid={"horizon": horizon, "dt": dt},
                       kl={"n_samples": 3000, "iters": 4, "seed": 5})
    assert main(["correlate", str(cfg)]) == 0
    corr = tmp_path / "corr" / "correlation.csv"
    assert read_columns(corr)[0]["t"][-1] != horizon
    out = tmp_path / "out"
    assert main(["kl", str(cfg), "--set", f"output_dir={out}",
                 "--correlation-file", str(corr)]) == 0
    assert (out / "modes.csv").exists()


@pytest.mark.parametrize("command, dt, horizon", [
    ("correlate", 1e-3, 5.0), ("correlate", 0.01, 10.0), ("kl", 0.01, 4.0)])
def test_input_file_off_the_config_grid(tmp_path, capsys, command, dt, horizon):
    # the config grid is dt = 0.01 on [0, 5]; a file on another grid is
    # neither interpolated nor cut, but rejected with both grids named
    grid = TimeGrid(dt=dt, horizon=horizon)
    table = tmp_path / "table.csv"
    write_series(table, Series(grid, np.exp(-grid.times)), {},
                 value_name="K" if command == "correlate" else "C")
    cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"))
    flag = "--kernel-file" if command == "correlate" else "--correlation-file"
    assert main([command, str(cfg), flag, str(table)]) == 2
    err = capsys.readouterr().err
    assert "table.csv" in err and f"({grid.n_nodes} rows from 0 to {horizon:g})" in err
    assert "dt = 0.01 on [0, 5] (501 nodes)" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("defect", ["negative", "zero_at_origin", "non_finite"])
def test_kl_rejects_a_correlation_that_is_not_a_variance(tmp_path, capsys, defect):
    # cmd_kl scales the file to <u0, u0> by C(0): a negative C(0) would flip
    # its sign into a valid-looking covariance, and C(0) = 0 divide by zero
    grid = TimeGrid(dt=0.01, horizon=5.0)
    c = np.exp(-grid.times)
    if defect == "negative":
        c = -c
    elif defect == "zero_at_origin":
        c = grid.times * c
    else:
        c[200] = np.nan
    cfile = tmp_path / "correlation.csv"
    write_series(cfile, Series(grid, c), {}, value_name="C")
    # enough samples that a flipped C(0) < 0 would run through to exit 0
    cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"),
                       kl={"n_samples": 20000, "iters": 5, "seed": 3})
    assert main(["kl", str(cfg), "--correlation-file", str(cfile)]) == 2
    assert "correlation.csv" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# a rank-2 sample of a rank-5 basis cannot reach the marginal tolerance
@pytest.mark.filterwarnings("ignore:marginal sampler did not converge")
def test_kl_exports_the_sampled_amplitudes(tmp_path, capsys):
    # the smoke-size FPU run keeps 2 of its 5 KL modes in the ensemble
    config = Path(__file__).resolve().parents[1] / "configs" / "fpu_quartic.json"
    out = tmp_path / "out"
    code = main(["kl", str(config), *[arg for kv in (
        "system.n_sites=8", "observable.site=2", "kernel.order=8", "grid.horizon=1.0",
        "kl.n_samples=2000", "kl.export_xi=true", f"output_dir={out}")
        for arg in ("--set", kv)]])
    assert code == 0
    assert "kl: rank 5, sampled rank 2," in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["rank"], manifest["sampled_rank"]) == (5, 2)
    cols, _ = read_columns(out / "xi.csv")
    assert sorted(cols) == ["xi1", "xi2"] and len(cols["xi1"]) == 2000
    sweeps = manifest["sweeps"]
    assert len(sweeps) == manifest["iterations"]
    assert sweeps[-1] == {key: manifest[key]
                          for key in ("marginal_error", "moment_error", "acf_error")}
    # the noise ACF from the amplitudes' Gram matrix is that of the noise paths
    xi = np.column_stack([cols["xi1"], cols["xi2"]])
    hcols, _ = read_columns(out / "hmodes.csv")
    amp = np.sqrt(manifest["eigenvalues"][:2])
    f = xi @ (amp[:, None] * np.vstack([hcols["h1"], hcols["h2"]]))
    noise, _ = read_columns(out / "noise_acf.csv")
    want = (f[:, :1] * f).mean(axis=0)
    assert np.max(np.abs(noise["acf"] - want)) <= 1e-12 * abs(want[0])


def test_missing_input_file_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"))
    missing = str(tmp_path / "no_such.csv")
    assert main(["kl", str(cfg), "--correlation-file", missing]) == 2
    assert main(["correlate", str(cfg), "--kernel-file", missing]) == 2
    assert "no_such.csv" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("defect", ["json_header", "non_numeric", "ragged_row",
                                    "missing_column"])
def test_malformed_input_file_exit_code(tmp_path, capsys, defect):
    grid = TimeGrid(dt=0.01, horizon=5.0)
    good = tmp_path / "good.csv"
    write_series(good, Series(grid, special.jv(0, 2 * grid.times)), {}, value_name="C")
    lines = good.read_text().splitlines()
    if defect == "json_header":
        lines[0] = "# {bad json"
    elif defect == "non_numeric":
        lines[5] = lines[5].split(",")[0] + ",abc"
    elif defect == "ragged_row":
        lines[5] += ",1.0"
    else:  # neither the 'C' nor the 'K' column
        lines[1] = "t,X"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"))
    assert main(["kl", str(cfg), "--correlation-file", str(bad)]) == 2
    assert main(["correlate", str(cfg), "--kernel-file", str(bad)]) == 2
    assert "bad.csv" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_compare_file_without_values_exit_code(tmp_path, capsys):
    grid = TimeGrid(dt=0.01, horizon=1.0)
    write_series(tmp_path / "a.csv", Series(grid, np.ones(grid.n_nodes)), {})
    write_columns(tmp_path / "se_only.csv", {"t": grid.times, "se": np.ones(grid.n_nodes)}, {})
    assert main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "se_only.csv")]) == 2
    assert "se_only.csv" in capsys.readouterr().err


@pytest.mark.parametrize("defect", ["non_finite", "other_dt"])
def test_compare_rejects_a_series_it_cannot_gate(tmp_path, capsys, defect):
    grid = TimeGrid(dt=0.01, horizon=1.0)
    write_series(tmp_path / "a.csv", Series(grid, np.ones(grid.n_nodes)), {})
    if defect == "non_finite":
        values = np.ones(grid.n_nodes)
        values[50] = np.nan
    else:  # compared node by node, not interpolated
        grid = TimeGrid(dt=0.02, horizon=1.0)
        values = np.ones(grid.n_nodes)
    write_series(tmp_path / "bad.csv", Series(grid, values), {})
    assert main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "bad.csv"),
                 "--max-sup", "0.5"]) == 2
    assert "bad.csv" in capsys.readouterr().err


def test_compare_max_z_needs_standard_errors(tmp_path, capsys):
    grid = TimeGrid(dt=0.01, horizon=1.0)
    write_series(tmp_path / "a.csv", Series(grid, np.ones(grid.n_nodes)), {})
    write_series(tmp_path / "b.csv", Series(grid, np.zeros(grid.n_nodes)), {})
    report = tmp_path / "rep.json"
    assert main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                 "--max-z", "3", "--report", str(report)]) == 2
    assert "--max-z needs standard errors" in capsys.readouterr().err
    assert not report.exists()
    # the sup and l2 gates need none
    assert main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                 "--max-sup", "0.5"]) == 3


def test_determinism_same_seed_identical_files(tmp_path):
    cfg_a = write_config(tmp_path / "a.json", output_dir=str(tmp_path / "outA"))
    cfg_b = write_config(tmp_path / "b.json", output_dir=str(tmp_path / "outB"))
    assert main(["mc", str(cfg_a)]) == 0
    assert main(["mc", str(cfg_b)]) == 0
    a = (tmp_path / "outA" / "mc_acf.csv").read_text().splitlines()
    b = (tmp_path / "outB" / "mc_acf.csv").read_text().splitlines()
    # identical numeric payload; the JSON headers echo different output dirs
    assert a[1:] == b[1:]


def test_set_overrides_and_validation(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"))
    assert main(["kernel", str(cfg), "--set", "kernel.order=6",
                 "--set", "gamma=2.0"]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"]["kernel"]["order"] == 6
    assert manifest["config"]["gamma"] == 2.0
    # unknown keys are rejected with exit code 2
    for key in ("kernel.bogus=1", "kernel.mode=float"):
        assert main(["kernel", str(cfg), "--set", key]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"system": {"name": "no_such_system"}}))
    assert main(["kernel", str(bad)]) == 2


@pytest.mark.parametrize("override", [
    "grid=5", "kernel.order=abc", "grid.dt=abc", "gamma=abc", "system.n_sites=abc",
    "mc.n_samples=abc", "kernel.order=1.5", "kl.export_xi=1", "output_dir=3",
    "threads=2", "gamma=NaN", "gamma=Infinity", "mc.sim_dt=0", "kl.kmax=0",
    "kernel.skew=true", "system.beta1=1.0", "system.beta1=0", "observable.var=3",
    "observable.site=null", "mc.seed=-1", "kl.seed=-1", "kernel.term_cap=0",
    "system.file=sys.json", "observable.power=0", "observable.field=q",
    'observable={"var": 32}', 'system={"name": "kraichnan_orszag"}', "kernel.basis=x",
    "kernel.delta=auto", "kernel.order=-1", "gamma", "gamma.x=1", "grid.dt=NaN",
    "system.alpha1=NaN", "grid.horizon=Infinity", "system.mass=Infinity", "grid.dt=Infinity"])
def test_invalid_config_value_exit_code(tmp_path, capsys, override):
    cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"))
    assert main(["kernel", str(cfg), "--set", override]) == 2
    assert override.split("=")[0].split(".")[-1] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("rows, message", [
    ([], "no data rows"), (["0.0,1.0,2.0", "0.1,1.0,2.0"], "2 column names but 3 columns"),
    (["0.0,1.0"], "needs at least two rows")], ids=["no_rows", "wide_rows", "one_row"])
def test_compare_rejects_a_short_or_wide_file(tmp_path, capsys, rows, message):
    grid = TimeGrid(dt=0.1, horizon=1.0)
    write_series(tmp_path / "a.csv", Series(grid, np.ones(grid.n_nodes)), {})
    (tmp_path / "bad.csv").write_text("\n".join(["# {}", "t,value", *rows]) + "\n")
    report = tmp_path / "rep.json"
    assert main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "bad.csv"),
                 "--max-sup", "0.5", "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert "bad.csv" in err and message in err
    assert not report.exists()


def test_unstable_verlet_step_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"),
                       system={"name": "harmonic_chain", "n_sites": 8},
                       observable={"field": "p", "site": 0},
                       grid={"dt": 1.5, "horizon": 15.0},
                       mc={"n_samples": 4, "seed": 1, "sim_dt": 1.5})
    assert main(["mc", str(cfg)]) == 3
    assert capsys.readouterr().err.startswith(
        "numeric failure: Verlet relative energy drift 8e+15 exceeds 900")
    assert not (tmp_path / "out").exists()


def test_unreadable_config_or_system_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for text in ("{not json", "[1, 2]"):
        bad.write_text(text)
        assert main(["kernel", str(bad)]) == 2
    assert main(["kernel", str(tmp_path / "no_such.json")]) == 2
    assert "no_such.json" in capsys.readouterr().err
    sys_file = tmp_path / "sys.json"
    for text in ("{not json", '{"variables": ["x"]}'):
        sys_file.write_text(text)
        cfg = write_config(tmp_path / "cfg.json", system={"file": str(sys_file)},
                           observable={"var": 0})
        assert main(["kernel", str(cfg)]) == 2
    cfg = write_config(tmp_path / "cfg.json", system={"file": str(tmp_path / "no_sys.json")})
    assert main(["kernel", str(cfg)]) == 2
    assert "no_sys.json" in capsys.readouterr().err


@pytest.mark.parametrize("index, key, value", [
    (0, "coeff", [1, 0]),
    (0, "coeff", [True, 1]),
    (0, "exps", {"1": True}),
    (0, "exps", {" 1": 1}),
    (0, "exps", [1]),
    (0, "target", 0.9),
    (1, "target", "1"),
    (1, "target", True),
], ids=["zero_den", "bool_num", "bool_exp", "spaced_var", "list_exps",
        "float_target", "str_target", "bool_target"])
def test_malformed_system_file_exit_code(tmp_path, capsys, index, key, value):
    # dx/dt = y, dy/dt = -x, with one entry made malformed
    doc = {"variables": ["x", "y"], "terms": [
        {"target": 0, "rhs": [{"coeff": [1, 1], "exps": {"1": 1}}]},
        {"target": 1, "rhs": [{"coeff": [-1, 1], "exps": {"0": 1}}]}]}
    term = doc["terms"][index]
    (term if key == "target" else term["rhs"][0])[key] = value
    sys_file = tmp_path / "sys.json"
    sys_file.write_text(json.dumps(doc))
    cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"),
                       system={"file": str(sys_file)}, observable={"var": 0},
                       kernel={"basis": "dyson", "order": 4})
    assert main(["kernel", str(cfg)]) == 2
    assert "sys.json" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_scan_without_admissible_candidate_exit_code(tmp_path, capsys):
    # a strongly nonlinear chain: every candidate blows up or is indefinite
    cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"),
                       system={"name": "fpu_chain", "n_sites": 100, "alpha1": 1, "beta1": 1},
                       observable={"field": "r", "site": 50},
                       kernel={"basis": "faber", "order": 20, "delta": "consistency"},
                       grid={"dt": 0.01, "horizon": 4.0})
    assert main(["correlate", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: no stable positive-semidefinite kernel")
    assert "'bound': 263" in err
    assert not (tmp_path / "out").exists()


def test_resource_cap_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"),
                       system={"name": "fpu_chain", "n_sites": 16, "beta1": 1.0},
                       observable={"field": "r", "site": 8, "power": 1},
                       kernel={"basis": "faber", "order": 20, "term_cap": 200})
    assert main(["kernel", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("resource cap: term budget 200 exceeded at power ")


def test_ko_system_kernel(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json", output_dir=str(tmp_path / "out"),
        system={"name": "kraichnan_orszag"},
        observable={"var": 0, "power": 3},
        kernel={"basis": "dyson", "order": 4})
    assert main(["kernel", str(cfg)]) == 0
    cols, meta = read_columns(tmp_path / "out" / "gamma.csv")
    # odd entries vanish for the volume-preserving three-mode system under
    # the isotropic Gaussian measure
    assert cols["gamma"][0] == 0.0 and cols["gamma"][2] == 0.0
    assert cols["gamma"][1] != 0.0


def test_system_file_config(tmp_path):
    from glekit.systems import fpu_chain, save_system
    sys_file = tmp_path / "sys.json"
    save_system(fpu_chain(6, alpha1=1, beta1=0), sys_file)
    cfg = write_config(
        tmp_path / "cfg.json", output_dir=str(tmp_path / "out"),
        system={"file": str(sys_file)},
        observable={"var": 9, "power": 1},  # p_3 of the 6-site chain
        kernel={"basis": "dyson", "order": 4})
    assert main(["kernel", str(cfg)]) == 0
    cols, _ = read_columns(tmp_path / "out" / "gamma.csv")
    assert cols["gamma"][1] == pytest.approx(-2.0)
