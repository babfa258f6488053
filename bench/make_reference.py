"""Regenerate the committed references under bench/reference/.

    python3 bench/make_reference.py

Run from the root of a source checkout.  Writes
  curve-sweep-<source>.csv  the curve-sweep outputs at the default seed, which
                            later commits must match within 1e-6 nats;
  mc-delay0.json            delay-0 error counts of each Monte Carlo workload's
                            config from one large run at a base seed no
                            benchmark run uses, the centre of the binomial band.
Regenerate only when the exponents or the coding scheme change on purpose.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

MC_TRIALS = {"mc-si-ml": 100_000, "mc-sw-universal": 3_000}
MC_BASE_SEED = 1_000_003


def main() -> int:
    ref = run.BENCH / "reference"
    ref.mkdir(exist_ok=True)
    work = run.WORK / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = run.child_env()

    def cli(argv):
        rep = run.invoke(argv, "run", work / "report.json", env)
        if not rep["ok"]:
            raise SystemExit(rep["error"])

    curve = run.CurveSweep(run.DEFAULT_SEED)
    curve.write_inputs(work)
    for argv in curve.invocations(work, work / "curve"):
        cli(argv)
    for label, *_ in curve.SOURCES:
        shutil.copyfile(work / "curve" / label / "exponents.csv",
                        ref / f"curve-sweep-{label}.csv")

    counts = {}
    for name, trials in MC_TRIALS.items():
        config = dict(run.WORKLOADS[name].config, trials=trials)
        path = work / f"{name}.json"
        path.write_text(json.dumps(config))
        # the counts do not depend on the thread count, so use every core
        cli(["simulate", str(path), "--seed", str(MC_BASE_SEED),
             "--threads", str(os.cpu_count() or 1), "--out", str(work / name)])
        rows = run.checks.parse_csv((work / name / "stats.csv").read_text())
        row0 = next(r for r in rows if r["delta"] == "0")
        columns = ("errors_x", "errors_y") if config["schedule_y"] else ("errors_x",)
        counts[name] = {"trials": int(row0["trials"]), "base_seed": MC_BASE_SEED,
                        "errors": {c: int(row0[c]) for c in columns}}
        print(name, counts[name], file=sys.stderr)
    (ref / "mc-delay0.json").write_text(json.dumps(counts, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
