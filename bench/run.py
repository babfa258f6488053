"""swstream benchmark: end-to-end and per-layer metrics of the CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --seed N --seconds S [--out FILE]   # every workload

Run from the root of a source checkout.  Every job is the public `swstream`
CLI (`swstream.cli.main`) with `--threads 1`, in a fresh interpreter started
by `job.py` with PYTHONPATH=src; nothing is installed.  A run repeats one
job, whose inputs come from the seed, as often as fits in S seconds (at
least once) and checks every job's outputs.  It prints one line per metric,
then a JSON object as the last line.  `--trace 0` reports the end-to-end
metrics; `--trace 1` alternates untraced and traced jobs and reports
per-layer metrics (see trace_layers.py), including the tracing overhead.
With no `--workload` it runs every workload both ways and can write the
results to a file.

Workloads, metrics and checks are described in README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import trace_layers  # noqa: E402

WORK = Path(".bench_build") / "swstream"
SETUP_PROBES = 5          # extra invocations per run that stop after set-up
JOB_TIMEOUT_S = 150
DEFAULT_SEED = 0          # its curve-sweep grid has a committed reference

EXAMPLE_1 = [[0.45, 0.05], [0.05, 0.45]]
EXAMPLE_2 = [[0.1, 0.05], [0.05, 0.8]]
OUTPUTS = ("exponents.csv", "stats.csv", "fit.json")


def _source(probs) -> dict:
    return {"alphabet_x": 2, "alphabet_y": 2, "probs": probs}


class Workload:
    """One job: a list of CLI invocations and the checks on their outputs."""

    name = ""
    unit = ""   # what `throughput` counts per second

    def __init__(self, seed: int):
        self.seed = seed

    def write_inputs(self, work: Path) -> None:
        raise NotImplementedError

    def invocations(self, work: Path, out: Path):
        """Argument lists, one per CLI process of a job writing under out."""
        raise NotImplementedError

    def units(self) -> int:
        raise NotImplementedError

    def check(self, out: Path, stdouts) -> list:
        raise NotImplementedError


class CurveSweep(Workload):
    name = "curve-sweep"
    unit = "rate points"
    SOURCES = (
        ("example1", EXAMPLE_1, (0.49, 0.67), True),
        ("example2", EXAMPLE_2, (0.35, 0.49), False),
    )
    RX_STEP, RX_POINTS = 0.2, 4

    def rx_grid(self):
        start = 0.30 + 0.01 * (self.seed % 3)
        return [round(start + k * self.RX_STEP, 12) for k in range(self.RX_POINTS)]

    def write_inputs(self, work):
        for label, probs, _, _ in self.SOURCES:
            (work / f"{label}.json").write_text(json.dumps(_source(probs)))

    def invocations(self, work, out):
        rx = self.rx_grid()
        rx_spec = f"{rx[0]:.2f}:{rx[-1]:.2f}:{self.RX_STEP}"
        return [
            ["exponents", str(work / f"{label}.json"), "--rx", rx_spec,
             "--ry", f"{ry[0]}:{ry[1]}:{round(ry[1] - ry[0], 2)}",
             "--threads", "1", "--out", str(out / label)]
            for label, _, ry, _ in self.SOURCES
        ]

    def units(self):
        return sum(len(ry) for _, _, ry, _ in self.SOURCES) * self.RX_POINTS

    def check(self, out, stdouts):
        fails = []
        for label, probs, ry, symmetric in self.SOURCES:
            text = (out / label / "exponents.csv").read_text()
            grid = [(rx, r) for r in ry for rx in self.rx_grid()]
            fails += [f"{label}: {m}" for m in
                      checks.check_curve(text, probs, grid, symmetric)]
            if self.rx_grid() == CurveSweep(DEFAULT_SEED).rx_grid():
                ref = (BENCH / "reference" / f"curve-sweep-{label}.csv").read_text()
                fails += [f"{label} vs reference: {m}" for m in
                          checks.compare_reference(text, ref)]
        return fails


class MonteCarlo(Workload):
    unit = "trials"
    config: dict = {}

    def write_inputs(self, work):
        (work / f"{self.name}.json").write_text(json.dumps(self.config))

    def invocations(self, work, out):
        return [["simulate", str(work / f"{self.name}.json"),
                 "--seed", str(self.seed), "--threads", "1", "--out", str(out)]]

    def units(self):
        return self.config["trials"]

    def check(self, out, stdouts):
        ref = json.loads((BENCH / "reference" / "mc-delay0.json").read_text())
        fails = checks.check_stats((out / "stats.csv").read_text(),
                                   self.units(), ref[self.name])
        if any("aborted" in s for s in stdouts):
            fails.append("CLI reported aborted trials")
        json.loads((out / "fit.json").read_text())  # raises if malformed
        return fails


class SiMl(MonteCarlo):
    name = "mc-si-ml"
    config = {
        "source": _source(EXAMPLE_1),
        "schedule_x": [1], "schedule_y": None, "n": 16,
        "delays": [0, 2, 4, 6, 8], "trials": 10000, "base_seed": 11,
        "decoder": "si_ml",
    }


class SwUniversal(MonteCarlo):
    name = "mc-sw-universal"
    config = {
        "source": _source(EXAMPLE_1),
        "schedule_x": [1], "schedule_y": [1], "n": 10,
        "delays": [0, 1, 2, 3, 4, 5, 6], "trials": 900, "base_seed": 11,
        "decoder": "sw_universal",
    }


WORKLOADS = {w.name: w for w in (CurveSweep, SiMl, SwUniversal)}


# ---------------------------------------------------------------------------
# Running jobs
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # single-threaded job: no BLAS thread pools next to the one Python thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def invoke(cli_args, mode: str, report: Path, env) -> dict:
    """One CLI process; returns the child's report plus its wall and set-up times."""
    cmd = [sys.executable, str(BENCH / "job.py"), str(report), mode, "--", *cli_args]
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {JOB_TIMEOUT_S} s"}
    exited = time.monotonic()
    if proc.returncode != 0 or not report.is_file():
        return {"ok": False, "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    rep = json.loads(report.read_text())
    report.unlink()
    rep.update(ok=rep["rc"] == 0 and "first_call" in rep, stdout=proc.stdout,
               wall_s=exited - launched, setup_s=rep.get("first_call", exited) - launched)
    if not rep["ok"]:
        rep["error"] = f"CLI exit {rep['rc']} or no call into a layer"
    return rep


def run_job(wl: Workload, work: Path, index: int, mode: str, env) -> dict:
    out = work / f"job{index}"
    shutil.rmtree(out, ignore_errors=True)
    invs = [invoke(a, mode, work / "report.json", env)
            for a in wl.invocations(work, out)]
    job = {"out": out, "mode": mode, "invocations": invs,
           "ok": all(i["ok"] for i in invs)}
    if not job["ok"]:
        job["fails"] = [i["error"] for i in invs if not i["ok"]]
        return job
    job["wall_s"] = sum(i["wall_s"] for i in invs)
    job["work_s"] = sum(i["wall_s"] - i["setup_s"] for i in invs)
    job["rss_mb"] = max(i["maxrss_mb"] for i in invs)
    try:
        job["fails"] = wl.check(out, [i["stdout"] for i in invs])
    except (OSError, ValueError, KeyError, TypeError) as e:
        job["fails"] = [f"unreadable output: {e!r}"]
    job["outputs"] = {str(p.relative_to(out)): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.name in OUTPUTS}
    if mode == "trace":
        job["trace"] = trace_layers.merge([i["trace"] for i in invs])
    return job


def run_workload(wl: Workload, seconds: float, traced: bool, log) -> dict:
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl.write_inputs(work)
    env = child_env()
    first = wl.invocations(work, work / "probe")[0]
    # warm-up: byte-compiles src/ and fills the file cache, which users do
    # not pay on every run
    invoke(first, "setup", work / "report.json", env)
    setups = []
    if not traced:
        for _ in range(SETUP_PROBES):
            rep = invoke(first, "setup", work / "report.json", env)
            if rep["ok"]:
                setups.append(rep["setup_s"])
    modes = ("run", "trace") if traced else ("run",)
    jobs = []
    started = time.monotonic()
    # one job per mode at least; another only if it should end within time
    while len(jobs) < len(modes) or (
            (time.monotonic() - started) * (len(jobs) + 1) / len(jobs) <= seconds):
        job = run_job(wl, work, len(jobs), modes[len(jobs) % len(modes)], env)
        jobs.append(job)
        if job["ok"] and jobs[0]["ok"] and job["outputs"] != jobs[0]["outputs"]:
            job["fails"].append("outputs differ from the first job's at the same seed")
        for msg in job["fails"]:
            log(f"{wl.name} job {len(jobs) - 1}: {msg}")
        shutil.rmtree(job["out"], ignore_errors=True)
    result = {"jobs": len(jobs), "units_per_job": wl.units()}
    attempted = wl.units() * len(jobs)
    failed = wl.units() * sum(1 for j in jobs if not j["ok"] or j["fails"])
    good = [j for j in jobs if j["ok"]]
    repeat_fails = recall(wl, traced, good)
    for msg in repeat_fails:
        log(f"{wl.name}: {msg}")
    if repeat_fails:
        failed = attempted
    if traced:
        metrics, fails = per_layer(good)
        for msg in fails:
            log(f"{wl.name}: {msg}")
        if fails:
            failed = attempted
        result["per_layer"] = metrics
    else:
        setups += [i["setup_s"] for j in good for i in j["invocations"]]
        result["end_to_end"] = {
            "wall_s": (statistics.median(j["wall_s"] for j in good), "s"),
            "throughput": (statistics.median(wl.units() / j["work_s"] for j in good),
                           "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(j["rss_mb"] for j in good), "MB"),
        } if good else {}
    result.update(attempted=attempted, failed=failed)
    return result


def recall(wl, traced: bool, good) -> list:
    """Compare this run's outputs (and traced counts) with those an earlier
    run of the same code at the same seed recorded in the build directory,
    or record them.  Repeated runs must agree byte for byte."""
    if not good:
        return []
    payload = {"outputs": {k: hashlib.sha256(v).hexdigest()
                           for k, v in good[0]["outputs"].items()}}
    if traced:
        payload["counts"] = [trace_layers.counts(j["trace"])
                             for j in good if j["mode"] == "trace"][:1]
    payload = json.loads(json.dumps(payload))
    path = WORK / "repeat" / f"{wl.name}-{wl.seed}-{tree_digest()}.json"
    earlier = json.loads(path.read_text()) if path.is_file() else {}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**earlier, **payload}))
    return [f"{key} differ from an earlier run at seed {wl.seed}"
            for key in payload if key in earlier and payload[key] != earlier[key]]


def per_layer(good):
    """Per-layer metrics of a traced run, and the failures of its checks:
    counts that do not repeat across traced jobs, and a traced mean bin size
    away from its closed form."""
    traced = [j["trace"] for j in good if j["mode"] == "trace"]
    walls = {m: [j["wall_s"] for j in good if j["mode"] == m] for m in ("run", "trace")}
    if not traced or not walls["run"]:
        return {}, ["no successful traced and untraced jobs"]
    fails = []
    if any(trace_layers.counts(t) != trace_layers.counts(traced[0]) for t in traced):
        fails.append("traced counts differ between repeated jobs")
    if traced[0]["bins"]:
        fails += checks.check_bin_mean(traced[0]["bins"],
                                       statistics.fmean(traced[0]["bin_expected"]))
    m = trace_layers.layer_metrics(traced)
    m["cli.import_s"] = (statistics.median(
        i["import_s"] for j in good for i in j["invocations"]), "s")
    m["trace.overhead"] = (statistics.median(walls["trace"])
                           / statistics.median(walls["run"]) - 1.0, "ratio")
    return m, fails


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unknown"
    if Path(".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_sha": sha,
        "code_sha256": tree_digest(),
        "loadavg": os.getloadavg(),
    }


def tree_digest() -> str:
    """Digest of the program and benchmark sources, which names the code a
    result belongs to where no git SHA is available."""
    digest = hashlib.sha256()
    for p in sorted([*Path("src").rglob("*.py"), *BENCH.glob("*.py"),
                     *(BENCH / "reference").glob("*")]):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    return digest.hexdigest()[:16]


def report(wl: Workload, res: dict, traced: bool) -> dict:
    """Print one line per metric and return the run's result object."""
    metrics = res["per_layer" if traced else "end_to_end"]
    for name, (value, unit) in metrics.items():
        print(f"{wl.name:16s} {name:38s} {value!r} {unit}")
    if not traced:
        print(f"{wl.name:16s} (throughput counts {wl.unit} per second)")
    print(f"{wl.name:16s} {'fail_frac':38s} {res['failed'] / res['attempted']!r} ratio",
          flush=True)
    return {
        "correct": res["failed"] == 0 and bool(metrics),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="with no --workload, write the results here (JSON)")
    args = p.parse_args(argv)
    if not Path("src/swstream/cli.py").is_file():
        print("error: run from the root of a swstream checkout (no src/swstream)",
              file=sys.stderr)
        return 2
    info = machine()
    print("machine " + json.dumps(info), flush=True)

    def log(msg):
        print("check failed: " + msg, flush=True)

    if args.workload is not None:
        wl = WORKLOADS[args.workload](args.seed)
        res = run_workload(wl, args.seconds, bool(args.trace), log)
        print(json.dumps(report(wl, res, bool(args.trace))))
        return 0
    results = {}
    for name, cls in WORKLOADS.items():
        for traced in (False, True):
            wl = cls(args.seed)
            res = run_workload(wl, args.seconds, traced, log)
            results.setdefault(name, {})["trace" if traced else "untraced"] = dict(
                report(wl, res, traced), jobs=res["jobs"],
                units_per_job=res["units_per_job"])
    runs = [r for per_workload in results.values() for r in per_workload.values()]
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"machine": info, "seed": args.seed, "seconds": args.seconds,
             "workloads": results}, indent=1) + "\n")
    print(json.dumps({"correct": all(r["correct"] for r in runs),
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs),
                      "workloads": list(results)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
