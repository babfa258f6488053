"""Command-line front end: exponent curves, simulations, verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage/config error.
All numbers are computed in nats; `--units bits` rescales at format time.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from .codec import BinningSchedule, expected_bin_size
from .exponents import CURVE_HEADER, RatePair, curve_row, format_curve_row
from .info_core import JointDistribution
from .sim import TrialConfig, fit_exponent, fit_to_json, run_trials, stats_to_csv
from .verify import EXAMPLE_1, EXAMPLE_2, SUITES, run_suite

LN2 = math.log(2.0)


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
    except OSError as e:
        raise ConfigError(f"cannot read source file: {e}") from e
    try:
        return JointDistribution.from_json(text)
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as e:
        raise ConfigError(f"bad source config {path}: {e}") from e


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


def _curve_worker(args):
    d, rx, ry = args
    return curve_row(d, RatePair(rx, ry))


def _compute_curve(d: JointDistribution, rx_grid, ry_grid, threads: int):
    # the source itself, not its JSON: reloading would renormalize it again
    points = [(d, rx, ry) for ry in ry_grid for rx in rx_grid]
    if threads > 1 and len(points) > 8:
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(_curve_worker, points, chunksize=4))
    return [_curve_worker(p) for p in points]


def _write_curve(path: Path, rows, units: str) -> None:
    scale = LN2 if units == "bits" else 1.0
    lines = [CURVE_HEADER] + [format_curve_row(r, scale) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def cmd_exponents(args) -> int:
    started = time.monotonic()
    d = _load_source(args.source)
    rx_grid = _parse_grid(args.rx)
    ry_grid = _parse_grid(args.ry) if args.ry is not None else [0.0]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
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


def _load_trial_config(path: str, seed_override) -> TrialConfig:
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read trial config: {e}") from e
    try:
        source = JointDistribution.from_json(json.dumps(obj["source"]))
        schedule_x = BinningSchedule(tuple(obj["schedule_x"]))
        schedule_y = (
            BinningSchedule(tuple(obj["schedule_y"]))
            if obj.get("schedule_y") else None
        )
        base_seed = obj["base_seed"] if seed_override is None else seed_override
        return TrialConfig(
            source=source,
            schedule_x=schedule_x,
            schedule_y=schedule_y,
            n=obj["n"],
            delays=tuple(obj["delays"]),
            trials=obj["trials"],
            base_seed=base_seed,
            decoder=str(obj["decoder"]),
        )
    except KeyError as e:
        raise ConfigError(f"trial config missing field {e}") from e
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad trial config: {e}") from e


def _abort_report(stats) -> dict:
    """Aborted trials by the stream and step at which their bin overflowed,
    and the per-delay x-error rate that counts every abort as an error."""
    by_step = {}
    for (stream, step), count in stats.aborted_by_step.items():
        by_step.setdefault(stream, {})[str(step)] = count
    return {
        "aborted": stats.aborted,
        "aborted_by_step": by_step,
        "rate_x_upper": {str(d): stats.rate_x_upper(d) for d in stats.delays},
    }


def _bin_report(cfg, stats) -> dict:
    """Each stream's mean final bin size over the trials whose bin did not
    overflow, with its standard error, next to the closed-form mean
    `expected_bin_size(n)`: a check of the PRF that every run carries."""
    report = {}
    for stream, (bins, total, squares) in stats.bin_sizes.items():
        alphabet, schedule = ((cfg.source.alphabet_x, cfg.schedule_x) if stream == "x"
                              else (cfg.source.alphabet_y, cfg.schedule_y))
        spread = bins * squares - total * total  # bins^2 times the variance
        report[stream] = {
            "bins": bins,
            "mean": total / bins if bins else None,
            "stderr": math.sqrt(spread / (bins - 1)) / bins if bins > 1 else None,
            "expected": expected_bin_size(cfg.n, alphabet, schedule),
        }
    return {"final_bin_size": report}


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


def cmd_simulate(args) -> int:
    started = time.monotonic()
    cfg = _load_trial_config(args.config, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stats = run_trials(cfg, threads=args.threads)
    fit = fit_exponent(stats)
    stats_path = out_dir / "stats.csv"
    fit_path = out_dir / "fit.json"
    stats_path.write_text(stats_to_csv(stats))
    fit_path.write_text(fit_to_json(fit))
    _write_manifest(
        out_dir,
        "simulate",
        {
            "config_path": args.config,
            "base_seed": cfg.base_seed,
            "trials": cfg.trials,
            "decoder": cfg.decoder,
            "threads": args.threads,
        },
        cfg.base_seed,
        [stats_path, fit_path],
        started,
        {**_abort_report(stats), **_bin_report(cfg, stats)},
    )
    if stats.aborted:
        _warn_aborts(stats)
    print(f"wrote {stats_path} and {fit_path}")
    return 0


def cmd_verify(args) -> int:
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
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rx_grid = _parse_grid("0.30:1.05:0.01")
    outputs = []
    for ry in ry_values:
        path = out_dir / f"{label}_ry{ry:g}.csv"
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
    p.add_argument("suite", help="one of: " + ", ".join(sorted(SUITES)))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reproduce-example1", help="canned curves for the symmetric source")
    common(p, "--units", "--threads", "--out")
    p.set_defaults(func=cmd_reproduce_example1)

    p = sub.add_parser("reproduce-example2", help="canned curves for the skewed source")
    common(p, "--units", "--threads", "--out")
    p.set_defaults(func=cmd_reproduce_example2)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
