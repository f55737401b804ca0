"""The shipped experiment configs: their values, and the command lines
configs/README.md documents for them, run at smoke sizes."""

import contextlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from glekit.cli import main
from glekit.config import ExperimentConfig
from glekit.io import read_columns

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

# --set overrides that shrink each experiment to a few seconds; site 2 of the
# 8-site chain is where the configs' site 50 of 100 lies modulo 8
SMOKE = {
    "fpu_quartic.json": ["system.n_sites=8", "observable.site=2", "kernel.order=8",
                         "grid.horizon=1.0", "mc.n_samples=200", "kl.n_samples=2000"],
    "harmonic_chain.json": ["system.n_sites=8", "observable.site=2", "grid.horizon=2",
                            "grid.dt=0.01"],
}
OUTPUTS = {
    "fpu_quartic.json": ["fpu/correlate/correlation.csv", "fpu/kl/noise_acf.csv",
                         "fpu/kl/hmodes.csv"]
                        + [f"fpu/kl/acf_m{m}.csv" for m in (1, 2, 4)]
                        + [f"fpu/mc_m{m}/mc_acf.csv" for m in (1, 2, 4)]
                        + [f"fpu/compare_m{m}.json" for m in (1, 2, 4)],
    "harmonic_chain.json": [f"harmonic/n{n}/{f}.csv" for n in (10, 20, 30, 40)
                            for f in ("correlation", "kernel", "gamma")],
}


def documented_commands(name: str) -> list[list[str]]:
    """Arguments of each ``glekit`` line in the README section of ``name``."""
    section = (CONFIGS / "README.md").read_text().split(f"## `{name}`")[1]
    return [shlex.split(line)[1:] for line in section.split("\n## ")[0].splitlines()
            if line.startswith("glekit ")]


def test_fpu_config_holds_the_experiment_defaults():
    cfg = ExperimentConfig.load(CONFIGS / "fpu_quartic.json")
    assert (cfg.system.name, cfg.system.n_sites, cfg.system.beta1) == ("fpu_chain", 100, 0.01)
    assert (cfg.observable.field, cfg.observable.site, cfg.observable.power) == ("r", 50, 1)
    assert (cfg.gamma, cfg.kernel.order, cfg.kernel.delta) == (1, 20, "consistency")
    assert (cfg.grid.horizon, cfg.grid.dt) == (5, 0.01)
    assert (cfg.mc.n_samples, cfg.mc.sim_dt, cfg.kl.n_samples) == (10_000, 1e-3, 30_000)


def test_harmonic_config_holds_the_experiment_defaults():
    cfg = ExperimentConfig.load(CONFIGS / "harmonic_chain.json")
    assert (cfg.system.name, cfg.system.n_sites) == ("harmonic_chain", 100)
    assert (cfg.observable.field, cfg.observable.site) == ("p", 50)
    assert (cfg.kernel.basis, cfg.kernel.order, cfg.kernel.delta) == ("faber", 40, None)
    assert (cfg.grid.horizon, cfg.grid.dt, cfg.gamma) == (10, 1e-3, 1)


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_documented_commands_run(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    smoke = [arg for kv in SMOKE[name] for arg in ("--set", kv)]
    commands = documented_commands(name)
    assert commands
    # at smoke size the FPU run's KL sampler keeps 2 of its 5 modes, too few
    # to reach the marginal tolerance
    expected = (pytest.warns(RuntimeWarning, match="did not converge")
                if name == "fpu_quartic.json" else contextlib.nullcontext())
    with expected:
        for argv in commands:
            if argv[0] != "compare":
                argv = [argv[0], str(ROOT / argv[1]), *argv[2:], *smoke]
            assert main(argv) == 0, argv
    for rel in OUTPUTS[name]:
        assert (tmp_path / "out" / rel).stat().st_size > 0, rel
    if name == "fpu_quartic.json":
        cols, _ = read_columns(tmp_path / "out/fpu/kl/noise_acf.csv")
        # -<u0, u0> K(0) = <L u0, L u0> > 0
        assert np.all(np.isfinite(cols["fdt_target"])) and cols["fdt_target"][0] > 0
        manifest = json.loads((tmp_path / "out/fpu/kl/manifest.json").read_text())
        sel = manifest["selection"]
        assert 0 <= sel["gap"] < np.inf and sel["eigensolves"] >= sel["admissible"] >= 1
        # the FDT closed loop as the manifest reports it, rebuilt from the CSV
        deviation = np.max(np.abs(cols["acf"] - cols["fdt_target"])) / abs(cols["fdt_target"][0])
        assert manifest["fdt"] == {"sup_deviation": deviation}


def test_entry_point_exit_codes(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}

    def run(*args):
        return subprocess.run([sys.executable, "-m", "glekit", "kernel",
                               str(CONFIGS / "harmonic_chain.json"), *args],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=300)

    proc = run("--set", "system.n_sites=8", "--set", "observable.site=2",
               "--set", "kernel.order=4", "--set", "grid.horizon=1", "--set", "output_dir=out")
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "kernel.csv").stat().st_size > 0
    proc = run("--set", "threads=2")
    assert proc.returncode == 2 and "threads" in proc.stderr
