"""Correctness gates applied to each run's output directory.

Every check adds one to ``attempted``; a failed one records what failed.
The benchmark's ``failed`` count and ``failed_share`` come from here.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import math
import os

import numpy as np
from scipy.special import ndtr

PARAMETERS = ("sigma_x", "sigma_h", "rho")
ORACLE_Z = 5.0


class Gate:
    """Running tally of checks attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self):
        return len(self.failures)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def tree_digests(root):
    """sha256 of every file under ``root``, keyed by relative path."""
    digests = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                digests[os.path.relpath(path, root)] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def compare_digests(gate, reference, digests, label):
    """One check per file: present in both runs with identical bytes."""
    for name in sorted(set(reference) | set(digests)):
        gate.check(reference.get(name) == digests.get(name),
                   f"determinism: {name} differs ({label})")


def oracle_moments(draws, strikes, maturities, spots, r_d, r_f, h_fix):
    """``closed_form_v3`` averaged over draws, and the mean conditional
    variance of one simulated F3 payoff, for every (strike, maturity, spot).

    Given (sigma_x, sigma_h, rho), X_T is lognormal with the quanto forward
    F = X0 * exp((r_f - rho*sigma_x*sigma_h) * s) and log-variance
    v = sigma_x^2 * s. The discounted payoff D * (X_T - K)+, with
    D = exp(-r_d * s) * h_fix, has mean D * (F*N(d1) - K*N(d2)) and second
    moment D^2 * (F^2*e^v*N(d2 + 2*sqrt(v)) - 2*K*F*N(d1) + K^2*N(d2)).
    Strikes are positive in every priced row.
    """
    sx, sh, rho = (draws[:, i][None, :] for i in range(3))
    s = maturities[:, None]
    k = strikes[:, None]
    disc = np.exp(-r_d * s) * h_fix
    fwd = spots[:, None] * np.exp((r_f - rho * sx * sh) * s)
    sd = sx * np.sqrt(s)
    d2 = (np.log(fwd / k) - 0.5 * sd * sd) / sd
    d1 = d2 + sd
    mean = disc * (fwd * ndtr(d1) - k * ndtr(d2))
    second = disc * disc * (fwd * fwd * np.exp(sd * sd) * ndtr(d2 + 2.0 * sd)
                            - 2.0 * k * fwd * ndtr(d1) + k * k * ndtr(d2))
    return mean.mean(axis=1), np.maximum(second - mean * mean, 0.0).mean(axis=1)


def _check_price_rows(gate, rows, label):
    for row in rows:
        price = _number(row["model_price"])
        gate.check(math.isfinite(price) and price >= 0.0,
                   f"price {row['model_price']} at strike {row['strike']} ({label})")


def _check_row_count(gate, out_dir, priced, chain_path, label):
    """Priced rows plus filter rejects cover the whole option chain."""
    rejected = len(read_rows(os.path.join(out_dir, "filter_report.csv")))
    quotes = len(read_rows(chain_path))
    gate.check(priced > 0 and priced + rejected == quotes,
               f"{priced} priced + {rejected} rejected != {quotes} quotes ({label})")


def check_grid(gate, out_dir, cfg):
    """Experiment grid: no failed cell, and every price agrees with the oracle.

    Returns the largest |z| of the gate and the largest |model_price -
    oracle| / mc_std_error.
    """
    r_d = float(cfg["r_d_annual"]) / float(cfg["periods_per_year"])
    r_f = float(cfg["r_f_annual"]) / float(cfg["periods_per_year"])
    h_fix = float(cfg["h_fix"])
    families = [f.strip() for f in cfg["families"].split(",")]
    windows = [w.strip() for w in cfg["windows"].split(",")]
    fx_names = [os.path.splitext(os.path.basename(p.strip()))[0]
                for p in cfg["fx_series"].split(",")]

    failed_cells = read_rows(os.path.join(out_dir, "failures.csv"))
    for fx in fx_names:
        for window in windows:
            for family in families:
                bad = [r for r in failed_cells if (r["fx"], r["window"]) == (fx, window)
                       and r["family"] in (family, "*")]
                gate.check(not bad, f"cell {fx}/w{window}/{family} failed: "
                           + "; ".join(r["error"] for r in bad))

    z_max = z_reported = 0.0
    for fx in fx_names:
        for window in windows:
            cell = os.path.join(out_dir, "cells", fx, f"w{window}")
            for family in families:
                if family == "mle":
                    continue
                label = f"{fx}/w{window}/{family}"
                path = os.path.join(cell, f"pricing_{family}.csv")
                if not gate.check(os.path.exists(path), f"missing {path}"):
                    continue
                rows = read_rows(path)
                _check_price_rows(gate, rows, label)
                _check_row_count(gate, out_dir, len(rows), cfg["option_chain"], label)
                draws = np.loadtxt(os.path.join(cell, f"draws_{family}.csv"),
                                   delimiter=",", skiprows=1, ndmin=2)
                col = {k: np.array([_number(r[k]) for r in rows])
                       for k in ("strike", "maturity_days", "spot", "model_price",
                                 "mc_std_error")}
                oracle, cond_var = oracle_moments(draws, col["strike"], col["maturity_days"],
                                                  col["spot"], r_d, r_f, h_fix)
                # The sample error of a rare-event row shrinks with its price
                # when few paths end in the money, so the tolerance is never
                # below the exact error of a plain path estimate.
                path_se = np.sqrt(cond_var / float(cfg["n_paths"]))
                diff = np.abs(col["model_price"] - oracle)
                z = diff / np.maximum(col["mc_std_error"], path_se)
                for row, zi in zip(rows, z):
                    gate.check(bool(zi <= ORACLE_Z),
                               f"oracle |z| {zi:.2f} > {ORACLE_Z} at strike "
                               f"{row['strike']} ({label})")
                z_max = max(z_max, float(np.nanmax(z)))
                z_reported = max(z_reported, float(np.nanmax(diff / col["mc_std_error"])))
    return {"oracle_max_abs_z": z_max, "oracle_max_abs_z_mc_std_error": z_reported}


def check_estimate(gate, out_dir, cfg):
    """Every sampled family's posterior mean lies within one posterior
    standard deviation of the MLE, and every acceptance rate is positive."""
    rows = read_rows(os.path.join(out_dir, "estimate_summary.csv"))
    mle = {r["parameter"]: _number(r["mean"]) for r in rows if r["family"] == "mle"}
    families = [f.strip() for f in cfg["families"].split(",") if f.strip() != "mle"]
    for family in families:
        gate.check(os.path.exists(os.path.join(out_dir, f"draws_{family}.csv")),
                   f"missing draws_{family}.csv")
        for name in PARAMETERS:
            found = [r for r in rows if (r["family"], r["parameter"]) == (family, name)]
            if not gate.check(len(found) == 1, f"no summary row {family}/{name}"):
                continue
            row = found[0]
            mean, sd = _number(row["mean"]), _number(row["std_dev"])
            gate.check(abs(mean - mle.get(name, math.nan)) <= sd,
                       f"{family}/{name} mean {mean:.6g} more than one sd "
                       f"({sd:.3g}) from mle {mle.get(name)}")
            gate.check(_number(row["acceptance_rate"]) > 0.0,
                       f"{family}/{name} acceptance rate {row['acceptance_rate']}")


def check_sequential(gate, out_dir, cfg):
    """Finite, non-negative prices and one row per retained quote."""
    rows = read_rows(os.path.join(out_dir, "pricing.csv"))
    _check_price_rows(gate, rows, "sequential")
    _check_row_count(gate, out_dir, len(rows), cfg["option_chain"], "sequential")


CHECKS = {
    "grid-static": check_grid,
    "estimate-long": check_estimate,
    "sequential-refresh": check_sequential,
}


def smallest_ess(out_dir):
    """Smallest (std_dev / nse)^2 over sampled chains and parameters, or None."""
    ess = []
    for path in glob.glob(os.path.join(out_dir, "**", "estimate_summary.csv"), recursive=True):
        for row in read_rows(path):
            sd, nse = _number(row["std_dev"]), _number(row["nse"])
            if math.isfinite(sd) and math.isfinite(nse) and nse > 0.0:
                ess.append((sd / nse) ** 2)
    return min(ess) if ess else None


def price_rse_quantiles(out_dir):
    """(p50, p90) of mc_std_error / model_price over every priced row, or None."""
    values = []
    paths = glob.glob(os.path.join(out_dir, "pricing.csv")) + glob.glob(
        os.path.join(out_dir, "cells", "*", "*", "pricing_*.csv"))
    for path in paths:
        for row in read_rows(path):
            price, se = _number(row["model_price"]), _number(row["mc_std_error"])
            if price > 0.0 and math.isfinite(se):
                values.append(se / price)
    if not values:
        return None
    p50, p90 = np.percentile(values, [50, 90])
    return float(p50), float(p90)
