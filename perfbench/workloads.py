"""The benchmark's workloads: one generated config and one CLI command each.

Every workload is a closed loop with one client: the benchmark starts the
next command only after the previous one has exited. The workload seed goes
into the config's ``seed`` key and nothing else; the program sees only the
generated config and the shipped fixture files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

# Settings shared by every workload; each workload overrides some of them.
_BASE = {
    "asset_series": "sp500_synthetic.csv",
    "fx_series": "eur_usd_synthetic.csv",
    "option_chain": "option_chain_synthetic.csv",
    "r_d_annual": "0.015",
    "r_f_annual": "0.025",
    "h_fix": "1.0",
    "periods_per_year": "252",
    "families": "ttn, tnn, ign, mnc, mle",
    "mode": "static",
    "refresh_interval": "10",
    "refresh_draws": "2000",
    "refresh_burn_in": "500",
    "rho_step": "0.1",
    "tt_df": "5",
    "ig_shape": "0",
    "vol_scale_multiplier": "2",
    "mnc_kappa": "1",
    "mnc_df": "4",
    "mnc_scale": "1e-4",
}
_FIXTURE_KEYS = ("asset_series", "fx_series", "option_chain")


@dataclass(frozen=True)
class Workload:
    """One workload: why it exists, its config and the CLI command it times.

    ``argv`` may name ``{config}``, ``{out}`` and ``{draws}``; the benchmark
    fills them in. ``prepare`` is an untimed command whose output directory
    becomes ``{draws}``'s directory (the sequential workload needs a draws
    file before timing).
    """

    name: str
    why: str
    settings: dict
    argv: tuple
    prepare: dict = field(default_factory=dict)

    def config(self, seed, fixtures_dir):
        """Config values for one seed, fixture names resolved to paths."""
        values = dict(_BASE)
        values.update(self.settings)
        values["seed"] = str(int(seed))
        for key in _FIXTURE_KEYS:
            values[key] = ", ".join(os.path.join(fixtures_dir, part.strip())
                                    for part in values[key].split(","))
        return values


def config_text(values):
    return "".join(f"{key} = {value}\n" for key, value in values.items())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid-static",
            why=("the paper's experiment grid on one fx series: windows 140 and "
                 "1840 x {tnn, mle}, 47 quotes per chain at 20000 paths; static "
                 "pricing dominates it"),
            settings={
                "families": "tnn, mle",
                "draws": "10000",
                "burn_in": "2500",
                "n_paths": "20000",
                "windows": "140, 1840",
            },
            argv=("experiment", "--config", "{config}", "--out", "{out}"),
        ),
        Workload(
            name="estimate-long",
            why=("long chains for every family at window 1840 and no pricing, "
                 "so MwG sweeps, conjugate draws and draws-CSV writing show "
                 "and pricing changes do not"),
            settings={
                "draws": "40000",
                "burn_in": "10000",
                "n_paths": "1000",
                "windows": "1840",
            },
            argv=("estimate", "--config", "{config}", "--out", "{out}"),
        ),
        Workload(
            name="sequential-refresh",
            why=("sequential-update pricing of all 47 quotes from a tnn draws "
                 "file: many short refresh chains and panel extensions instead "
                 "of long chains and vectorised paths"),
            settings={
                "draws": "4000",
                "burn_in": "1000",
                "families": "tnn",
                "n_paths": "3",
                "mode": "sequential-update",
                "refresh_draws": "400",
                "refresh_burn_in": "100",
                "windows": "1840",
            },
            argv=("price", "--config", "{config}", "--out", "{out}",
                  "--draws", "{draws}", "--mode", "sequential"),
            prepare={"argv": ("estimate", "--config", "{config}", "--out", "{prep}"),
                     "draws": "draws_tnn.csv"},
        ),
    )
}
