"""Correctness checks on the outputs of swstream CLI jobs.

Pure functions of the output text, so `selftest.py` can feed them corrupted
outputs.  Each returns a list of failure messages; an empty list passes.
None of them byte-compares Monte Carlo output with a committed file: a new
PRF legitimately changes every seeded bin, so the MC checks are statistical.
"""

from __future__ import annotations

import csv
import io
import math

EXPONENT_TOL = 1e-6      # nats, against the committed reference
ORDER_SLACK = 1e-9       # nats, streaming exponent <= block exponent
Z = 4.0                  # band half-width in standard errors; a false alarm
                         # at 4 sigma is ~6e-5 per check

EXPONENT_COLUMNS = ("e_sw_x", "e_sw_y", "e_sw_xy", "e_block_x", "e_block_y")
CURVE_COLUMNS = ("rx", "ry", *EXPONENT_COLUMNS, "e_pp_x")


def _h(probs) -> float:
    return -sum(p * math.log(p) for p in probs if p > 0)


def region(probs):
    """(H(x|y), H(y|x), H(x,y), H(x)) of a joint pmf given as rows x of
    columns y, computed here so the region test does not trust the program."""
    flat = [p for row in probs for p in row]
    hxy = _h(flat)
    hx = _h([sum(row) for row in probs])
    hy = _h([sum(col) for col in zip(*probs)])
    return hxy - hy, hxy - hx, hxy, hx


def parse_csv(text: str):
    return list(csv.DictReader(io.StringIO(text)))


def _num(field):
    """The cell as a float; None if it is empty, missing (DictReader gives
    None for the cells of a short row), non-numeric or NaN."""
    if not isinstance(field, str) or field == "":
        return None
    try:
        value = float(field)
    except ValueError:
        return None
    return None if math.isnan(value) else value


def check_curve(text: str, probs, grid, symmetric: bool):
    """Checks that hold at every seed: the rows are the requested (rx, ry)
    grid; every exponent is zero outside the Slepian-Wolf region and positive
    inside; streaming never beats block coding; on a symmetric source the
    x streaming exponent equals the block one."""
    rows = parse_csv(text)
    fails = []
    if len(rows) != len(grid):
        return [f"expected {len(grid)} rows, got {len(rows)}"]
    hx_y, hy_x, hxy, hx = region(probs)
    for i, (row, (rx, ry)) in enumerate(zip(rows, grid)):
        v = {k: _num(row.get(k)) for k in CURVE_COLUMNS}
        where = f"row {i} (rx={rx:g}, ry={ry:g})"
        missing = [k for k, x in v.items() if x is None]
        if missing:
            fails.append(f"{where}: no number in {', '.join(missing)}")
            continue
        if abs(v["rx"] - rx) > 1e-9 or abs(v["ry"] - ry) > 1e-9:
            fails.append(f"{where}: wrong rate pair {row['rx']},{row['ry']}")
            continue
        inside = rx > hx_y and ry > hy_x and rx + ry > hxy
        for col in EXPONENT_COLUMNS:
            if (v[col] > 0) != inside:
                fails.append(f"{where}: {col}={v[col]} but inside={inside}")
        if (v["e_pp_x"] > 0) != (rx > hx):
            fails.append(f"{where}: e_pp_x={v['e_pp_x']} but rx>H(x) is {rx > hx}")
        for s in ("x", "y"):
            if v[f"e_sw_{s}"] > v[f"e_block_{s}"] + ORDER_SLACK:
                fails.append(f"{where}: e_sw_{s} exceeds e_block_{s}")
        if symmetric and abs(v["e_sw_x"] - v["e_block_x"]) > EXPONENT_TOL:
            fails.append(f"{where}: e_sw_x != e_block_x on a symmetric source")
    return fails


def compare_reference(text: str, reference: str):
    """Every column within EXPONENT_TOL of the committed reference rows."""
    rows, ref = parse_csv(text), parse_csv(reference)
    if len(rows) != len(ref):
        return [f"expected {len(ref)} rows as in the reference, got {len(rows)}"]
    fails = []
    for i, (row, want) in enumerate(zip(rows, ref)):
        for col, expected in want.items():
            got, exp = _num(row.get(col)), _num(expected)
            if (got is None) != (exp is None) or (
                    got is not None and abs(got - exp) > EXPONENT_TOL):
                fails.append(f"row {i}: {col}={row.get(col)!r}, reference {expected!r}")
    return fails


def check_stats(text: str, trials: int, reference: dict):
    """Monte Carlo stats.csv: no aborted trials (stats count completed
    trials only), error counts non-increasing in delay, and the delay-0 error
    counts inside a binomial band around the reference rates.

    `reference` is {"trials": N, "errors": {column: delay-0 count}} from an
    independent large run."""
    rows = parse_csv(text)
    if not rows:
        return ["stats.csv has no rows"]
    fails = []
    if any(int(r["trials"]) != trials for r in rows):
        fails.append(f"completed trials {rows[0]['trials']} != {trials}: aborts")
    rows.sort(key=lambda r: int(r["delta"]))
    for col in ("errors_x", "errors_y", "errors_joint"):
        counts = [int(r[col]) for r in rows]
        if any(b > a for a, b in zip(counts, counts[1:])):
            fails.append(f"{col} increases with delay: {counts}")
    if int(rows[0]["delta"]) != 0:
        return fails + ["no delay-0 row"]
    n_ref = reference["trials"]
    for col, k_ref in reference["errors"].items():
        p = k_ref / n_ref
        rate = int(rows[0][col]) / trials
        half = Z * math.sqrt(p * (1 - p) * (1 / trials + 1 / n_ref)) + 0.5 / trials
        if abs(rate - p) > half:
            fails.append(f"delay-0 {col} rate {rate:.5f} outside "
                         f"{p:.5f} +- {half:.5f}")
    return fails


def check_bin_mean(sizes, expected: float):
    """Mean final bin size within Z standard errors of its closed form, i.e.
    bin_ratio = mean / expected within its confidence interval of 1."""
    m = len(sizes)
    if m < 2:
        return ["fewer than two bins to check"]
    mean = sum(sizes) / m
    sd = math.sqrt(sum((s - mean) ** 2 for s in sizes) / (m - 1))
    half = Z * sd / math.sqrt(m)
    if abs(mean - expected) > half:
        return [f"bin mean {mean:.4f} outside closed form {expected:.4f} "
                f"+- {half:.4f} (ratio {mean / expected:.4f})"]
    return []
