"""Run one `swstream` CLI invocation in this interpreter and write a report.

    python3 bench/job.py REPORT MODE -- <swstream CLI arguments>

MODE is `run` (untraced), `trace` (per-layer tracer installed) or `setup`
(stop at the first call into a layer, to sample set-up time alone).  The
report is a JSON file with monotonic-clock timestamps, which on Linux are
comparable with the launching process's clock.
"""

from __future__ import annotations

import json
import resource
import sys
import time


class _SetupDone(BaseException):
    """Unwinds the CLI at its first call into a layer in `setup` mode."""


def _mark_first_call(cli, report, stop):
    """Wrap the CLI's entry points into the layers so that the first call
    stamps the end of set-up."""
    for attr in ("curve_row", "run_trials"):
        fn = getattr(cli, attr)

        def wrapper(*args, _fn=fn, **kwargs):
            if "first_call" not in report:
                report["first_call"] = time.monotonic()
                if stop:
                    raise _SetupDone
            return _fn(*args, **kwargs)

        setattr(cli, attr, wrapper)


def main(argv) -> int:
    report_path, mode = argv[0], argv[1]
    if mode not in ("run", "trace", "setup") or argv[2] != "--":
        raise SystemExit("usage: job.py REPORT {run|trace|setup} -- ARGS...")
    cli_args = argv[3:]
    report = {"mode": mode}
    t0 = time.monotonic()
    import swstream.cli as cli

    report["import_s"] = time.monotonic() - t0
    tracer = None
    if mode == "trace":
        from trace_layers import Tracer

        tracer = Tracer()
        tracer.install()
    _mark_first_call(cli, report, stop=(mode == "setup"))
    try:
        rc = cli.main(cli_args)
    except _SetupDone:
        rc = 0
    report["end"] = time.monotonic()
    report["rc"] = rc
    report["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        report["trace"] = tracer.summary()
    with open(report_path, "w") as f:
        json.dump(report, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
