"""Per-layer tracer for one `swstream` CLI job, and the metrics it yields.

The tracer wraps public functions of the swstream modules under the names
their callers look up at call time (`cli.curve_row`, `exponents.log_sum_tilted`,
`sim.update_candidates`, `codec.weighted_suffix_entropy`, ...), so no file
under src/ changes.  Each wrapped call is a span: the tracer keeps, per span
name, the call count, the inclusive time and the self time (inclusive time
minus the time of spans opened inside it).  A call nested inside a span of
the same name (`e_y_gamma` delegating to `e_x_gamma`) counts once.

Work is also attributed to units: one record per rate point (a `curve_row`
call) and one per Monte Carlo trial.  The trial loop itself is private to
`sim`, so a trial is delimited by its first public call, `derive_trial_seed`:
trial i runs from that call to the next one, or to the return of
`run_trials`.  Spans stay in memory as aggregates and per-unit columns and
are written out once, when the job ends.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time

clock = time.perf_counter

# (module, attribute, span name, enter hook, exit hook).  The module is the
# caller's namespace; hooks name Tracer methods.
HOOKS = (
    ("pathlib", "Path.read_text", "cli.io", None, None),
    ("pathlib", "Path.write_text", "cli.io", None, None),
    ("swstream.cli", "curve_row", "exponents.point", "_point_start", "_point_end"),
    ("swstream.cli", "run_trials", "sim.run_trials", None, "_trials_end"),
    ("swstream.cli", "fit_exponent", "sim.fit_export", None, None),
    ("swstream.cli", "stats_to_csv", "sim.fit_export", None, None),
    ("swstream.cli", "fit_to_json", "sim.fit_export", None, None),
    ("swstream.exponents", "e_x_gamma", "exponents.gamma", None, None),
    ("swstream.exponents", "e_y_gamma", "exponents.gamma", None, None),
    ("swstream.exponents", "gallager_xy", "exponents.bracket", None, None),
    ("swstream.exponents", "gallager_x_given_y", "exponents.bracket", None, None),
    ("swstream.exponents", "gallager_y_given_x", "exponents.bracket", None, None),
    ("swstream.exponents", "log_sum_tilted", "info_core.log_sum", None, None),
    ("swstream.exponents", "log_sum_xy_tilted", "info_core.log_sum", None, None),
    ("swstream.sim", "derive_trial_seed", "sim.seed_sample", "_trial_start", None),
    ("swstream.sim", "sample_source", "sim.seed_sample", None, None),
    ("swstream.sim", "initial_candidates", "codec.replay", None, None),
    ("swstream.sim", "encode_step", "codec.replay", None, "_encoded"),
    ("swstream.sim", "update_candidates", "codec.replay", None, "_updated"),
    ("swstream.sim", "ml_decode", "codec.decode", None, "_decoded"),
    ("swstream.sim", "universal_decode", "codec.decode", None, "_decoded"),
    ("swstream.sim", "si_decode_ml", "codec.decode", None, "_decoded"),
    ("swstream.sim", "si_decode_universal", "codec.decode", None, "_decoded"),
    ("swstream.sim", "sw_ml_decode", "codec.decode", None, "_decoded"),
    ("swstream.sim", "sw_universal_decode", "codec.decode", None, "_decoded"),
    ("swstream.codec", "compute_scores", "codec.score", None, None),
    ("swstream.codec", "weighted_suffix_entropy", "info_core.wse", None, None),
)

# per-trial columns: span name -> column of summed milliseconds
_TRIAL_TIMES = {
    "codec.decode": "decode_ms",
    "codec.replay": "replay_ms",
    "sim.seed_sample": "seed_sample_ms",
}
# per-unit columns of call counts
_POINT_COUNTS = ("info_core.log_sum", "exponents.gamma", "exponents.bracket")
_TRIAL_COUNTS = ("info_core.wse", "codec.score")


def expected_bin_size(step: int, alphabet: int, schedule) -> float:
    """Closed-form mean bin size after `step` steps:
    1 + sum_{l<=j} (|A|-1) |A|^(j-l) 2^-B(l..j), B(l..j) the schedule's bits
    in steps l..j."""
    total = schedule.total_bits(step)
    return 1.0 + sum(
        (alphabet - 1) * alphabet ** (step - l)
        * 2.0 ** -(total - schedule.total_bits(l - 1))
        for l in range(1, step + 1)
    )


class Tracer:
    def __init__(self):
        self._stack = []       # one [child seconds] frame per open span
        self._open = set()     # names of open spans
        self.spans = {}        # name -> [calls, inclusive s, self s]
        self.unit = None       # counters of the current point or trial
        self.points = {"ms": [], "outside": []}
        self.points.update({name: [] for name in _POINT_COUNTS})
        self.trials = {"ms": [], "hashes": [], "pairs": []}
        self.trials.update({col: [] for col in _TRIAL_TIMES.values()})
        self.trials.update({name: [] for name in _TRIAL_COUNTS})
        self.bins = []
        self.bin_expected = []
        self._expected = {}
        self._started = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name, on_enter, on_exit in HOOKS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            wrapper = self._wrap(
                getattr(owner, leaf), name,
                on_enter and getattr(self, on_enter),
                on_exit and getattr(self, on_exit),
            )
            setattr(owner, leaf, wrapper)

    def _wrap(self, fn, name, on_enter, on_exit):
        stack, open_names = self._stack, self._open
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            if name in open_names:
                return fn(*args, **kwargs)
            if on_enter is not None:
                on_enter()
            open_names.add(name)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                open_names.discard(name)
                if stack:
                    stack[-1][0] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                unit = self.unit
                if unit is not None:
                    c = unit.get(name)
                    if c is None:
                        unit[name] = [1, dt]
                    else:
                        c[0] += 1
                        c[1] += dt
            if on_exit is not None:
                on_exit(args, result, dt)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- unit bookkeeping -------------------------------------------------

    def _point_start(self):
        self.unit = {}

    def _point_end(self, args, row, dt):
        unit, self.unit = self.unit, None
        self.points["ms"].append(dt * 1e3)
        # curve_row leaves gamma_star empty only on the outside branch
        self.points["outside"].append(row["gamma_star"] is None)
        for name in _POINT_COUNTS:
            self.points[name].append(unit.get(name, (0,))[0])

    def _trial_start(self):
        now = clock()
        self._close_trial(now)
        self._started = now
        self.unit = {}

    def _close_trial(self, now):
        if self._started is None:
            return
        unit = self.unit
        cols = self.trials
        cols["ms"].append((now - self._started) * 1e3)
        for name, col in _TRIAL_TIMES.items():
            cols[col].append(unit.get(name, (0, 0.0))[1] * 1e3)
        for name in _TRIAL_COUNTS:
            cols[name].append(unit.get(name, (0,))[0])
        cols["hashes"].append(unit.get("hashes", 0))
        cols["pairs"].append(unit.get("pairs", 0))
        self._started = None
        self.unit = None

    def _trials_end(self, args, result, dt):
        self._close_trial(clock())

    def _encoded(self, args, bits, dt):
        if bits and self.unit is not None:
            self.unit["hashes"] = self.unit.get("hashes", 0) + 1

    def _updated(self, args, cands, dt):
        # one hash per surviving parent on every step that emits bits
        if len(args[1]) and self.unit is not None:
            self.unit["hashes"] = self.unit.get("hashes", 0) + len(args[0].prefixes)

    def _decoded(self, args, result, dt):
        bins = [a for a in args if hasattr(a, "prefixes")]
        for cands in bins:
            key = (cands.step, cands.alphabet, cands.schedule)
            if key not in self._expected:
                self._expected[key] = expected_bin_size(*key)
            self.bins.append(len(cands.prefixes))
            self.bin_expected.append(self._expected[key])
        if len(bins) == 2 and self.unit is not None:
            self.unit["pairs"] = len(bins[0].prefixes) * len(bins[1].prefixes)

    def summary(self) -> dict:
        return {
            "spans": self.spans,
            "points": self.points,
            "trials": self.trials,
            "bins": self.bins,
            "bin_expected": self.bin_expected,
        }


# ---------------------------------------------------------------------------
# Metrics from the summaries of traced jobs
# ---------------------------------------------------------------------------


def merge(summaries) -> dict:
    """One job's summary from the summaries of its CLI invocations."""
    out = {"spans": {}, "points": {}, "trials": {}, "bins": [], "bin_expected": []}
    for s in summaries:
        for name, (calls, total, own) in s["spans"].items():
            acc = out["spans"].setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        for key in ("points", "trials"):
            for col, values in s[key].items():
                out[key].setdefault(col, []).extend(values)
        out["bins"].extend(s["bins"])
        out["bin_expected"].extend(s["bin_expected"])
    return out


def counts(job: dict) -> dict:
    """Everything in a job's summary that is a count; it must repeat exactly
    when the same inputs run again."""
    return {
        "spans": {name: v[0] for name, v in sorted(job["spans"].items())},
        "points": {k: v for k, v in job["points"].items() if k != "ms"},
        "trials": {k: job["trials"][k] for k in ("hashes", "pairs", *_TRIAL_COUNTS)},
        "bins": job["bins"],
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(jobs) -> dict:
    """Per-layer metrics (name -> (value, unit)) over traced jobs that ran
    identical inputs.  Layers a workload never calls report 0."""
    merged = merge(jobs)
    spans, pts, trials = merged["spans"], merged["points"], merged["trials"]
    bins, expected = merged["bins"], merged["bin_expected"]

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total_s(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    n_points = len(pts.get("ms", ()))
    n_trials = len(trials.get("ms", ()))
    rt = spans.get("sim.run_trials", (0, 0.0, 0.0))

    def per_point(name):
        return _ratio(sum(pts.get(name, ())), n_points)

    def per_trial(col):
        return _ratio(sum(trials.get(col, ())), n_trials)

    def pct(values, q):
        return percentile(values, q) if values else 0.0

    hashes = sum(trials.get("hashes", ()))
    return {
        "cli.io_ms": (statistics.median(j["spans"].get("cli.io", (0, 0.0))[1]
                                        for j in jobs) * 1e3, "ms"),
        "info_core.log_sum_calls_per_point": (per_point("info_core.log_sum"), "count"),
        "info_core.log_sum_us": (_ratio(total_s("info_core.log_sum"),
                                        calls("info_core.log_sum")) * 1e6, "us"),
        "info_core.wse_calls_per_trial": (per_trial("info_core.wse"), "count"),
        "info_core.wse_us": (_ratio(total_s("info_core.wse"),
                                    calls("info_core.wse")) * 1e6, "us"),
        "exponents.points": (_ratio(n_points, len(jobs)), "count"),
        "exponents.point_ms.p50": (pct(pts.get("ms", ()), 50), "ms"),
        "exponents.point_ms.max": (max(pts.get("ms", ()), default=0.0), "ms"),
        "exponents.gamma_evals_per_point": (per_point("exponents.gamma"), "count"),
        "exponents.bracket_evals_per_point": (per_point("exponents.bracket"), "count"),
        "exponents.outside_share": (per_point("outside"), "ratio"),
        "sim.trials": (_ratio(n_trials, len(jobs)), "count"),
        "codec.replay_ms_per_trial": (_ratio(total_s("codec.replay") * 1e3, n_trials), "ms"),
        "codec.hashes_per_trial": (_ratio(hashes, n_trials), "count"),
        "codec.hashes_per_s": (_ratio(hashes, total_s("codec.replay")), "1/s"),
        "codec.bin_mean": (_ratio(sum(bins), len(bins)), "count"),
        "codec.bin_ratio": (_ratio(sum(bins), sum(expected)), "ratio"),
        "codec.decode_ms_per_trial.p50": (pct(trials.get("decode_ms", ()), 50), "ms"),
        "codec.decode_ms_per_trial.p99": (pct(trials.get("decode_ms", ()), 99), "ms"),
        "codec.pairs_per_trial": (per_trial("pairs"), "count"),
        "codec.score_calls_per_trial": (per_trial("codec.score"), "count"),
        "sim.seed_sample_ms_per_trial": (per_trial("seed_sample_ms"), "ms"),
        "sim.trial_ms.p50": (pct(trials.get("ms", ()), 50), "ms"),
        "sim.trial_ms.p99": (pct(trials.get("ms", ()), 99), "ms"),
        "sim.fit_export_ms": (statistics.median(
            j["spans"].get("sim.fit_export", (0, 0.0))[1] for j in jobs) * 1e3, "ms"),
        "sim.untraced_share": (_ratio(rt[2], rt[1]), "ratio"),
    }
