"""tripmine benchmark: one workload run, checked, printed as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It writes the workload's inputs from the seed
into a scratch directory under ``perfbench/.work``, runs ``worker.py`` in a
fresh process on those files, checks every operation against an
independent reference, prints the environment stamp and one line per
metric, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
``--tiny`` shrinks every size for the smoke tests. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS threads stay at or below the usable cores; set before numpy is imported
BLAS_THREADS = min([NPROC] + [int(os.environ[v]) for v in BLAS_ENV if os.environ.get(v, "").isdigit()])
for _var in BLAS_ENV:
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "items/s"),
    ("f1", "fraction"),
    ("peak_rss_mb", "MB"),
    ("ok_ops_frac", "fraction"),
)
METRIC_TOL = 1e-9
WORKER_TIMEOUT_S = 170


def git_sha(root: Path) -> str:
    """HEAD's commit read from the .git directory, or "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def stamp() -> dict:
    return {"git_sha": git_sha(ROOT), "python": platform.python_version(), "numpy": np.__version__,
            "nproc": NPROC, "cpu": cpu_model(), "blas_threads": BLAS_THREADS}


class Checker:
    """Counts attempted and failed operations (training batches, eval queries)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def ops(self, n: int, ok: bool) -> None:
        self.attempted += n
        if not ok:
            self.failed += n


def matches(report, ref) -> bool:
    """The program's four metrics agree with the reference's to METRIC_TOL."""
    return len(report) == 4 and bool(np.all(np.abs(np.asarray(report) - ref) <= METRIC_TOL))


def check_train(w, res, arrays, work: Path, chk: Checker):
    """Each train call's batches, then the val->test evaluation. Returns its F1.

    A batch fails if its train call raises, or if its epoch reports a
    non-finite mean loss or a triplet count other than batches * H*P*N: the
    train log is per epoch, so a bad epoch fails all of its batches.
    """
    per_epoch = w.batches_per_epoch * w.expected_triplets()
    for u in res["units"]:
        if "error" in u or len(u["epochs"]) != w.epochs:
            chk.ops(w.ops_per_unit, False)
            continue
        prev = 0
        for mean_loss, cum in u["epochs"]:
            chk.ops(w.batches_per_epoch, math.isfinite(mean_loss) and cum - prev == per_epoch)
            prev = cum
    n = w.n_samples
    n_val = int(workloads.SPLIT[1] * n)
    tf = res.get("train_f1", {"error": "no train call succeeded"})
    if "error" in tf:
        chk.ops(n_val, False)
        return math.nan
    val, test = np.asarray(tf["val_idx"]), np.asarray(tf["test_idx"])
    both = np.union1d(val, test)
    if (len(val) != n_val or len(test) != n - w.n_train - n_val or len(both) != len(val) + len(test)
            or both[0] < 0 or both[-1] >= n):
        chk.problems.append("split_dataset returned val/test indices that are not a valid split")
        chk.ops(n_val, False)
        return math.nan
    with np.load(work / "net.npz") as z:
        params = [z[f"arr_{i}"] for i in range(len(z.files))]
    half = len(params) // 2
    emb = reference.embed(params[:half], params[half:], arrays["features"])
    labels = arrays["labels"]
    ref = reference.metrics(labels[val], labels[test],
                            reference.knn(emb[val], emb[test], workloads.TRAIN_F1_K))
    chk.ops(n_val, matches(tf["report"], ref))
    return tf["report"][3]


def check_eval(w, res, arrays, chk: Checker):
    """Each evaluate call against the reference for its query block. Returns
    the mean F1 of the first ``min_units`` calls, which every run makes."""
    q_emb = reference.embed(arrays["weights"], arrays["biases"], arrays["queries"])
    a_emb = reference.embed(arrays["weights"], arrays["biases"], arrays["archive"])
    refs = {}
    for u in res["units"]:
        if "error" in u:
            chk.ops(w.block, False)
            continue
        b = u["block"]
        if b not in refs:
            rows = slice(b * w.block, (b + 1) * w.block)
            refs[b] = reference.metrics(arrays["query_labels"][rows], arrays["archive_labels"],
                                        reference.knn(q_emb[rows], a_emb, w.k))
        # evaluate returns only the block's averages, so a mismatch fails every query in it
        chk.ops(w.block, matches(u["report"], refs[b]))
    first = [u["report"][3] for u in res["units"][:w.min_units] if "report" in u]
    return statistics.fmean(first) if len(first) == w.min_units else math.nan


def end_to_end(w, res, f1: float, chk: Checker) -> dict:
    rates = [w.items_per_unit / u["wall"] for u in res["units"] if "wall" in u]
    return {
        "setup_s": statistics.median(res["setup_s"]),
        "items_per_s": statistics.median(rates) if rates else math.nan,
        "f1": f1,
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        "ok_ops_frac": 1.0 - chk.failed / chk.attempted if chk.attempted else math.nan,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrink every size (smoke tests)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tripmine" / "__init__.py").is_file():
        print(f"error: no tripmine package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = workloads.get(args.workload, tiny=args.tiny)

    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=HERE / ".work"))
    try:
        arrays = inputs.write_inputs(w, args.seed, work / "inputs")
        cmd = [sys.executable, str(HERE / "worker.py"), w.name, str(work / "inputs"), str(work),
               repr(args.seconds), str(args.trace), "1" if args.tiny else "0"]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=sys.stderr,
                                  timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"error: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads((work / "result.json").read_text())
        chk = Checker()
        if w.kind == "train":
            f1 = check_train(w, res, arrays, work, chk)
        else:
            f1 = check_eval(w, res, arrays, chk)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        names, values = tracing.per_layer_metrics(), res["per_layer"]
    else:
        names, values = END_TO_END, end_to_end(w, res, f1, chk)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    correct = (chk.failed == 0 and not chk.problems and chk.attempted > 0
               and all(math.isfinite(m["value"]) for m in metrics.values()))
    for name, val in metrics.items():
        if not math.isfinite(val["value"]):
            val["value"] = 0.0  # JSON has no NaN; correct is already false
    print("# env " + json.dumps(stamp()))
    print(f"# workload {w.name} seed {args.seed} trace {args.trace}: "
          f"ops attempted {chk.attempted} failed {chk.failed}")
    for problem in chk.problems:
        print(f"# problem: {problem}")
    for name, val in metrics.items():
        print(f"{name} = {val['value']!r} {val['unit']}")
    print(json.dumps({"correct": correct, "attempted": chk.attempted, "failed": chk.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
