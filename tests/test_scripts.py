"""Smoke runs of the experiment scripts at tiny sizes."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, cwd):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_harmonic_kernel_script(tmp_path):
    out = tmp_path / "harmonic"
    proc = run_script("run_harmonic_kernel.py", "--sites", "8", "--orders", "4", "8",
                      "--horizon", "2", "--dt", "0.01", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in ("convergence.csv", "gamma_exact.csv"):
        assert (out / name).stat().st_size > 0


def test_fpu_pipeline_script(tmp_path):
    out = tmp_path / "fpu"
    proc = run_script("run_fpu_pipeline.py", "--sites", "8", "--order", "8",
                      "--horizon", "1.0", "--mc-samples", "200", "--kl-samples", "2000",
                      "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    names = ["correlation_fp.csv", "noise_acf.csv"]
    names += [f"{src}_acf_m{m}.csv" for src in ("kl", "mc") for m in (1, 2, 4)]
    for name in names:
        assert (out / name).stat().st_size > 0
    assert "eigensolves" in proc.stdout
    # the measure decides the arithmetic; there is no mode switch
    proc = run_script("run_fpu_pipeline.py", "--float-mode", cwd=tmp_path)
    assert proc.returncode == 2 and "--float-mode" in proc.stderr
