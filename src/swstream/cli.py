"""Command-line front end: exponent curves, simulations, verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage/config error.
All numbers are computed in nats; `--units bits` rescales at format time.

Each command imports what it runs, before its first step, and each step is
called through this module's names (`curve_row`, `run_trials`):
- `exponents` and `reproduce-example1/2` import `exponents` in
  `_compute_curve`, before the first rate point; with `info_core` they run
  on the standard library, with no `dataclasses` and no numpy;
- `simulate` imports `sim`, with `codec` and numpy, while it loads its
  trial config, before any trial runs, and no exponent code;
- `verify` imports `verify`, which loads all of them.

`main` has `gc.freeze` run at exit, registered once per process, so that
interpreter finalization skips the collector's last pass over every object
left over from the imports.  That pass took most of a short job's time: on
a 2-core VM, exit took 33-48 ms after `import swstream.cli, swstream.sim`
and 11-14 ms after `import swstream.cli`, against 8-11 and 3-4 ms with the
hook (medians of 25 launches).  Exit stays the normal path: stdout and
stderr are flushed, other atexit handlers run and exit codes are unchanged;
CPython does not promise `__del__` for objects alive at exit anyway.  `main`
never freezes in its body, which would pin every object of an in-process
caller, such as pytest, for the rest of its life.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from .info_core import EXAMPLE_1, EXAMPLE_2, JointDistribution

LN2 = math.log(2.0)
# a curve of at most this many points runs in this process: starting a pool
# costs more than it saves below it.  `exponents` on example 2 (rx
# 0.30:1.05:0.01, ry from 0.30 by 0.05, 2-core VM, medians of 15-21 alternating
# pairs) took 0.085 s at --threads 1 and 0.122 s at --threads 2 on 76 points,
# 0.250 and 0.278 s on 532, 0.232 and 0.230 s on 608, 0.316 and 0.281 s on 684
_POOL_POINTS = 600
# the names of the `verify` suites, `verify.SUITES`, for the help text
_SUITE_NAMES = ("equivalence", "examples", "lemmas", "oracle")


class ConfigError(Exception):
    """Malformed user input; mapped to exit code 2."""


def _parse_grid(spec: str):
    """`a:b:step` sweeps inclusive of both ends (within step/2); `v` is a
    single value.  Rates are finite and nonnegative."""
    parts = spec.split(":")
    try:
        if len(parts) == 1:
            v = float(parts[0])
            if not (0.0 <= v < math.inf):
                raise ValueError
            return [v]
        if len(parts) == 3:
            a, b, step = (float(p) for p in parts)
            if not (0.0 <= a <= b < math.inf and 0.0 < step < math.inf):
                raise ValueError
            out = []
            v = a
            while v <= b + step / 2:
                out.append(round(v, 12))
                v += step
            return out
    except ValueError:
        pass
    raise ConfigError(f"bad rate grid {spec!r}; expected 'v' or 'a:b:step'")


def _load_source(path: str) -> JointDistribution:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read source file: {e}") from e
    try:
        return JointDistribution.from_json(text)
    except (KeyError, TypeError, ValueError, json.JSONDecodeError, RecursionError) as e:
        raise ConfigError(f"bad source config {path}: {e}") from e


def _out_dir(path: str, names) -> Path:
    """The output directory, made with its parents if missing, before any
    work: neither the files `names` nor the manifest may be a directory."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory: {e}") from e
    for name in (*names, "manifest.json"):
        if (out_dir / name).is_dir():
            raise ConfigError(f"output file {out_dir / name} is a directory")
    return out_dir


def _write_manifest(out_dir: Path, command: str, config: dict, seed,
                    outputs, started: float, extra=None) -> Path:
    manifest = {
        "command": command,
        "config": config,
        "version": __version__,
        "seed": seed,
        "outputs": [str(p) for p in outputs],
        "duration_s": round(time.monotonic() - started, 3),
        **(extra or {}),
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


# the exponent step of `exponents` and `reproduce-*`, called through this
# module's name like the Monte Carlo steps of `simulate` below
def curve_row(d, rates):
    from . import exponents
    return exponents.curve_row(d, rates)


def _curve_worker(args):
    return curve_row(*args)


def _compute_curve(d: JointDistribution, rx_grid, ry_grid, threads: int):
    # loads `exponents` before the first point, while the command sets up
    from .exponents import RatePair

    # the source itself, not its JSON: reloading would renormalize it again
    points = [(d, RatePair(rx, ry)) for ry in ry_grid for rx in rx_grid]
    # at most one worker per CPU: a fork pool starts all of them at once
    workers = min(threads, os.cpu_count() or 1)
    if workers > 1 and len(points) > _POOL_POINTS:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_curve_worker, points, chunksize=4))
    return [_curve_worker(p) for p in points]


def _write_curve(path: Path, rows, units: str) -> None:
    from .exponents import CURVE_HEADER, format_curve_row

    scale = LN2 if units == "bits" else 1.0
    lines = [CURVE_HEADER] + [format_curve_row(r, scale) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def cmd_exponents(args) -> int:
    started = time.monotonic()
    d = _load_source(args.source)
    rx_grid = _parse_grid(args.rx)
    ry_grid = _parse_grid(args.ry) if args.ry is not None else [0.0]
    out_dir = _out_dir(args.out, ["exponents.csv"])
    rows = _compute_curve(d, rx_grid, ry_grid, args.threads)
    csv_path = out_dir / "exponents.csv"
    _write_curve(csv_path, rows, args.units)
    _write_manifest(
        out_dir,
        "exponents",
        {
            "source": json.loads(d.to_json()),
            "rx": args.rx,
            "ry": args.ry,
            "units": args.units,
            "threads": args.threads,
        },
        None,  # seed: the curves use no randomness
        [csv_path],
        started,
    )
    print(f"wrote {csv_path} ({len(rows)} rate points)")
    return 0


def _load_trial_config(path: str, seed_override):
    """The trial config at path, as a `sim.TrialConfig`."""
    from .sim import TrialConfig

    try:
        return TrialConfig.from_json(Path(path).read_text(), seed_override)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise ConfigError(f"cannot read trial config: {e}") from e
    except KeyError as e:
        raise ConfigError(f"trial config missing field {e}") from e
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad trial config: {e}") from e


def _warn_aborts(stats) -> None:
    """Report aborted trials on stderr, naming the first delay at which
    counting them as errors lifts the x-error rate above the Wilson upper
    limit of the completed trials' rate."""
    msg = f"warning: {stats.aborted} trials aborted at the candidate cap"
    for d in stats.delays:
        upper, limit = stats.rate_x_upper(d), stats.interval_x(d)[1]
        if upper > limit:
            msg += (
                f"; at delay {d} the x-error rate is {stats.rate_x(d):.4g} over"
                f" completed trials and {upper:.4g} counting aborts as errors,"
                f" above its 95% Wilson upper limit {limit:.4g}"
            )
            break
    print(msg, file=sys.stderr)


# the Monte Carlo steps of `simulate`, called through this module's names
def run_trials(cfg, threads: int = 1):
    from . import sim
    return sim.run_trials(cfg, threads=threads)


def fit_exponent(stats):
    from . import sim
    return sim.fit_exponent(stats)


def stats_to_csv(stats) -> str:
    from . import sim
    return sim.stats_to_csv(stats)


def fit_to_json(fit) -> str:
    from . import sim
    return sim.fit_to_json(fit)


def cmd_simulate(args) -> int:
    started = time.monotonic()
    cfg = _load_trial_config(args.config, args.seed)
    out_dir = _out_dir(args.out, ["stats.csv", "fit.json"])
    stats = run_trials(cfg, threads=args.threads)
    fit = fit_exponent(stats)
    stats_path = out_dir / "stats.csv"
    fit_path = out_dir / "fit.json"
    stats_path.write_text(stats_to_csv(stats))
    fit_path.write_text(fit_to_json(fit))
    _write_manifest(
        out_dir,
        "simulate",
        # the trial config as run, --seed applied: a trial config file
        {"config_path": args.config, **json.loads(cfg.to_json()), "threads": args.threads},
        cfg.base_seed,
        [stats_path, fit_path],
        started,
        {
            "aborted": stats.aborted,
            "aborted_by_step": stats.aborted_by_step,
            "rate_x_upper": {d: stats.rate_x_upper(d) for d in stats.delays},
            "final_bin_size": stats.final_bin_size,
        },
    )
    if stats.aborted:
        _warn_aborts(stats)
    print(f"wrote {stats_path} and {fit_path}")
    return 0


def cmd_verify(args) -> int:
    from .verify import SUITES, run_suite

    if args.suite not in SUITES:
        print(
            f"unknown suite {args.suite!r}; choose from: {', '.join(sorted(SUITES))}",
            file=sys.stderr,
        )
        return 2
    checks = run_suite(args.suite)
    failed = 0
    for name, ok, detail in checks:
        tag = "PASS" if ok else "FAIL"
        print(f"{tag} {name}: {detail}")
        if not ok:
            failed += 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def _reproduce(args, d: JointDistribution, ry_values, label: str) -> int:
    started = time.monotonic()
    names = {ry: f"{label}_ry{ry:g}.csv" for ry in ry_values}
    out_dir = _out_dir(args.out, names.values())
    rx_grid = _parse_grid("0.30:1.05:0.01")
    outputs = []
    for ry, name in names.items():
        path = out_dir / name
        _write_curve(path, _compute_curve(d, rx_grid, [ry], args.threads), args.units)
        outputs.append(path)
        print(f"wrote {path}")
    _write_manifest(
        out_dir,
        label,
        {
            "source": json.loads(d.to_json()),
            "ry_values": list(ry_values),
            "units": args.units,
        },
        None,  # seed: the curves use no randomness
        outputs,
        started,
    )
    return 0


def cmd_reproduce_example1(args) -> int:
    return _reproduce(args, EXAMPLE_1, (0.49, 0.67), "example1")


def cmd_reproduce_example2(args) -> int:
    return _reproduce(args, EXAMPLE_2, (0.35, 0.49), "example2")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swstream",
        description="Streaming random-binning source coding: exponents, "
        "simulations, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    options = {
        "--units": {"choices": ("nats", "bits"), "default": "nats"},
        "--threads": {"type": _positive_int, "default": os.cpu_count() or 1},
        "--out": {"default": "out"},
        "--seed": {"type": int, "default": None},
    }

    def common(p, *names):
        """Add the shared options that this subcommand reads."""
        for name in names:
            p.add_argument(name, **options[name])

    p = sub.add_parser("exponents", help="compute exponent curves over a rate grid")
    p.add_argument("source", help="JSON source distribution file")
    p.add_argument("--rx", required=True, help="rate grid 'a:b:step' or value, nats")
    p.add_argument("--ry", default=None, help="rate grid or value, nats")
    common(p, "--units", "--threads", "--out")
    p.set_defaults(func=cmd_exponents)

    p = sub.add_parser("simulate", help="Monte Carlo error-vs-delay run")
    p.add_argument("config", help="JSON trial configuration file")
    common(p, "--threads", "--out", "--seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run a self-check suite")
    p.add_argument("suite", help="one of: " + ", ".join(_SUITE_NAMES))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reproduce-example1", help="canned curves for the symmetric source")
    common(p, "--units", "--threads", "--out")
    p.set_defaults(func=cmd_reproduce_example1)

    p = sub.add_parser("reproduce-example2", help="canned curves for the skewed source")
    common(p, "--units", "--threads", "--out")
    p.set_defaults(func=cmd_reproduce_example2)
    return parser


def main(argv=None) -> int:
    # at exit, once per process however often main runs (module docstring)
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
