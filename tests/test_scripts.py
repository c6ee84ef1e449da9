"""Smoke tests: the experiment scripts run end to end at tiny sizes."""

import csv
import itertools
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, tmp_path, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_ablation_writes_the_nine_cell_grid(tmp_path):
    proc = run_script("run_ablation.py", tmp_path, "--seeds", "1", "--n-samples", "100", "--epochs", "1",
                      "--out", "abl")
    assert proc.returncode == 0, proc.stderr
    rows = read_rows(tmp_path / "abl" / "grid_seed1.csv")
    cells = list(itertools.product(("das", "ras", "bas"), ("rhdis", "ris", "bis")))
    assert [(r["anchor_strategy"], r["image_strategy"]) for r in rows] == cells
    for r in rows:
        assert all(0.0 <= float(r[m]) <= 1.0 for m in ("accuracy", "precision", "recall", "f1"))
    # one batch of 32: das/ras mine 4 anchors x 3 x 3, bas 32 x 3 x 3, bis 31 x 30 pairs
    counts = {(r["anchor_strategy"], r["image_strategy"]): int(r["cum_triplets"]) for r in rows}
    assert counts[("das", "rhdis")] == 36 and counts[("bas", "rhdis")] == 288
    assert counts[("das", "bis")] == 4 * 31 * 30 and counts[("bas", "bis")] == 32 * 31 * 30
    assert "mean over seeds [1]" in proc.stdout


def test_budget_curve_writes_one_curve_per_strategy_pair(tmp_path):
    proc = run_script("budget_curve.py", tmp_path, "--n-samples", "100", "--epochs", "2", "--out", "bud")
    assert proc.returncode == 0, proc.stderr
    per_epoch = {"das-rhdis": 36, "ras-ris": 36, "bas-bis": 32 * 31 * 30}
    for name, triplets in per_epoch.items():
        rows = read_rows(tmp_path / "bud" / f"curve_{name}.csv")
        assert [int(r["cum_triplets"]) for r in rows] == [triplets, 2 * triplets]
        assert all(0.0 <= float(r["f1"]) <= 1.0 for r in rows)
        assert f"{name}: final F1" in proc.stdout
