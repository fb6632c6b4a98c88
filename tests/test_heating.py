"""Heating sweeps: the CSV read back through `serialize.read_heating`, crossed-point fits,
seed layout."""

import dataclasses
import json
import math

import numpy as np
import pytest

from rondeau import serialize
from rondeau.analysis import fit_power_law
from rondeau.runner import ConfigError, FullSystem, RunConfig, _block_set, derive_seed, run

from conftest import realization_rate

SMALL = dict(pulses_per_block=12, kick_plus=8, kick_minus=4)
EPS_GRID = tuple(float(e) for e in np.geomspace(0.02, 0.2, 6) * math.pi)
TAU_GRID = tuple(float(t) for t in np.geomspace(0.02, 0.2, 6))

# kind -> (CSV file, x column, seed index of point j of order k)
LAYOUT = {
    "heating-eps": ("heating_eps.csv", "epsilon", lambda k, j: 1000 * k + 1 + j),
    "heating-period": ("heating_period.csv", "period", lambda k, j: 2000 * k + j),
    "heating-highfreq": ("heating_highfreq.csv", "period", lambda k, j: 3000 * k + j),
}


def pooled_rate(config, spec, order, index):
    """Mean and std of the dephasing engine's rates at ``spec`` over the drive
    realizations of seed index ``index``, and whether all of them crossed 1/e."""
    props = _block_set(None, config.plan(), spec)
    fits = [realization_rate(None, props, config, order, derive_seed(config.seed, index, 0, r),
                             offset=r if order == "inf" else 0)
            for r in range(config.realizations)]
    rates = np.array([f.rate for f in fits])
    return float(rates.mean()), float(rates.std()), all(f.crossed for f in fits)


def heating_config(out_dir, kind, **overrides):
    base = dict(kind=kind, out_dir=str(out_dir), engine="dephasing", seed=1,
                sweep_slope=0.05, tau=0.05, gamma_0=0.001, realizations=2, **SMALL)
    base.update(overrides)
    return RunConfig(**base)


def heating_rows(path, xname):
    """The rows of a heating table as `serialize.read_heating` reads it, each a dict; the
    header must name ``xname`` the swept column."""
    meta, columns = serialize.read_heating(path)
    assert meta["swept"] == xname
    return [dict(zip(("order", "x", "rate", "std", "y", "crossed"), row))
            for row in zip(*columns)]


@pytest.mark.parametrize("kind, overrides", [
    ("heating-eps", dict(eps_grid=EPS_GRID, n_orders=("0", "inf"), max_cycles=128)),
    ("heating-period", dict(tau_grid=TAU_GRID, n_orders=("1", "inf"), max_cycles=512)),
    ("heating-highfreq", dict(tau_grid=TAU_GRID, max_cycles=512)),
])
def test_csv_round_trips_and_agrees_with_fits(tmp_path, kind, overrides):
    config = heating_config(tmp_path, kind, **overrides)
    summary = run(config)
    filename, xname, point_index = LAYOUT[kind]
    rows = heating_rows(tmp_path / filename, xname)
    meta, columns = serialize.read_heating(tmp_path / filename)
    assert meta == {"swept": xname, "engine": "dephasing", "seed": 1,
                    "max_cycles": config.max_cycles, "config_hash": config.hash()}
    assert set(columns[-1]) <= {0, 1}
    serialize.write_heating(tmp_path / "again.csv", meta, columns)
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / filename).read_bytes()
    fits = json.loads((tmp_path / "fits.json").read_text())
    assert fits == summary["fits"]
    grid = config.eps_grid or config.tau_grid
    assert len(rows) == len(fits) * len(grid)
    base = config.spec()
    for k, order in enumerate(fits):
        mine = [r for r in rows if r["order"] == order]
        entry = fits[order]
        assert entry["uncrossed"] == sum(1 - r["crossed"] for r in mine)
        if kind == "heating-eps":
            reference = pooled_rate(config, dataclasses.replace(base, gamma_y=math.pi),
                                    order, 1000 * k)
            # an uncrossed reference rate is the argmin fallback, so none is reported
            assert (entry["rate_at_pi"], entry["reference_crossed"]) == \
                (reference[0] if reference[2] else None, reference[2])
        # an eps order whose reference never crossed 1/e is not fitted at all
        use = [r for r in mine if r["crossed"] and r["y"] > 0
               and entry.get("reference_crossed", True)]
        assert entry["points_used"] == len(use)
        if len(use) >= 3 and len({r["rate"] for r in use}) > 1:
            fit = fit_power_law([abs(r["x"]) for r in use], [r["y"] for r in use])
            assert (entry["exponent"], entry["stderr"]) == (fit.exponent, fit.stderr)
        else:
            assert "exponent" not in entry and entry["error"]
        for j, (value, row) in enumerate(zip(grid, mine)):
            if kind == "heating-eps":
                spec = dataclasses.replace(base, gamma_y=math.pi + value)
                assert row["x"] == value
            else:
                spec = dataclasses.replace(base, tau=value)
                spec = dataclasses.replace(
                    spec, gamma_y=math.pi + config.sweep_slope * spec.block_duration)
                assert row["x"] == spec.block_duration
            rate, std, crossed = pooled_rate(config, spec, order, point_index(k, j))
            assert (row["rate"], row["std"], row["crossed"]) == (rate, std, int(crossed))
            reference = entry.get("rate_at_pi", 0.0)
            if reference is None:
                assert math.isnan(row["y"])
            else:
                assert row["y"] == rate - reference
    if kind == "heating-eps":
        assert all(fits[o]["uncrossed"] > 0 for o in fits)


def test_eps_sweep_fits_nothing_without_a_crossed_reference(tmp_path):
    short = run(heating_config(tmp_path / "short", "heating-eps", eps_grid=EPS_GRID,
                               max_cycles=512))["fits"]["0"]
    assert short["reference_crossed"] is False
    assert short["points_used"] == 0
    assert "exponent" not in short and "reference" in short["error"]
    full = run(heating_config(tmp_path / "full", "heating-eps", eps_grid=EPS_GRID))["fits"]["0"]
    assert full["reference_crossed"] is True
    assert full["points_used"] == 6
    assert full["exponent"] == pytest.approx(2.0, abs=0.05)


def test_eps_sweep_does_not_fit_rates_unresolved_below_one_block(tmp_path):
    """Kicks that each keep less than 1/e of the polarization decay within the first block
    at every eps: one rate, 1/T, whose power law would read exponent 0."""
    config = heating_config(tmp_path, "heating-eps", eps_grid=(1.25, 1.35, 1.45),
                            gamma_0=0.05)
    entry = run(config)["fits"]["0"]
    rows = heating_rows(tmp_path / "heating_eps.csv", "epsilon")
    assert [r["rate"] for r in rows] == [1.0 / config.spec().block_duration] * 3
    assert entry["reference_crossed"] and entry["points_used"] == 3
    assert "exponent" not in entry and "share the rate" in entry["error"]


def test_full_engine_sweep_pools_every_graph(tmp_path):
    """A G = 2 full-engine row pools the rates of graphs graph_seed + g, realization r of
    point j of order k seeded derive_seed(seed, 1000 k + j, g, r), j = 0 the reference."""
    config = RunConfig(kind="heating-eps", out_dir=str(tmp_path), engine="full", num_spins=4,
                       seed=3, graph_seed=5, graph_realizations=2, realizations=2, tau=0.1,
                       eps_grid=(0.3, 0.6), n_orders=("0", "inf"), max_cycles=256, **SMALL)
    fits = run(config)["fits"]
    rows = heating_rows(tmp_path / "heating_eps.csv", "epsilon")
    specs = [dataclasses.replace(config.spec(), gamma_y=math.pi + eps)
             for eps in (0.0, *config.eps_grid)]
    plan = config.plan()
    graphs = config.validate(plan)
    for k, order in enumerate(config.n_orders):
        rates = [[] for _ in specs]
        for g in range(config.graph_realizations):
            system = FullSystem(config, graphs[g])
            for j, spec in plan.points:  # the reference j = 0 last
                props = _block_set(system, plan, spec)
                for r in range(config.realizations):
                    seed = derive_seed(config.seed, 1000 * k + j, g, r)
                    rates[j].append(realization_rate(system, props, config, order, seed,
                                                     offset=r if order == "inf" else 0).rate)
        (reference, *points), mine = rates, [r for r in rows if r["order"] == order]
        assert fits[order]["reference_crossed"]
        assert fits[order]["rate_at_pi"] == float(np.mean(reference))
        for row, point in zip(mine, points, strict=True):
            assert (row["rate"], row["std"]) == (float(np.mean(point)), float(np.std(point)))


@pytest.mark.parametrize("orders", [("0", "0"), ("inf", "tm"), ("1", "3", " 1")])
def test_repeated_order_is_rejected(orders):
    with pytest.raises(ConfigError, match=f"repeats multipole order {orders[-1]!r}"):
        RunConfig(kind="heating-period", out_dir="x", tau_grid=(0.1,),
                  n_orders=orders).validate()


@pytest.mark.parametrize("kind", ["heating-period", "heating-highfreq"])
def test_smallest_period_rate_for_descending_grid(tmp_path, kind):
    up = run(heating_config(tmp_path / "up", kind, tau_grid=TAU_GRID, n_orders=("0",)))
    down = run(heating_config(tmp_path / "down", kind, tau_grid=TAU_GRID[::-1],
                              n_orders=("0",)))
    assert down["fits"]["0"]["smallest_period_rate"] == \
        up["fits"]["0"]["smallest_period_rate"]
    rows = heating_rows(tmp_path / "down" / LAYOUT[kind][0], "period")
    smallest = min(rows, key=lambda r: r["x"])
    assert down["fits"]["0"]["smallest_period_rate"] == smallest["rate"]
    assert down["fits"]["0"]["exponent"] == pytest.approx(up["fits"]["0"]["exponent"])


def test_period_sweep_excludes_uncrossed_points(tmp_path):
    config = heating_config(tmp_path, "heating-period", tau_grid=TAU_GRID,
                            realizations=1, max_cycles=64)
    entry = run(config)["fits"]["0"]
    assert "exponent" not in entry and "stderr" not in entry
    assert entry["points_used"] == 0
    assert entry["uncrossed"] == 6
    assert entry["error"]


def test_highfreq_keeps_orders_it_cannot_fit(tmp_path):
    config = heating_config(tmp_path, "heating-highfreq", tau_grid=TAU_GRID,
                            max_cycles=128)
    fits = run(config)["fits"]
    assert sorted(fits) == ["0", "1", "3", "inf"]
    assert all("error" in entry and entry["points_used"] < 3 for entry in fits.values())


@pytest.mark.parametrize("kind, grid", [("heating-eps", "eps_grid"),
                                        ("heating-period", "tau_grid"),
                                        ("heating-highfreq", "tau_grid")])
def test_each_sweep_requires_its_grid(kind, grid):
    with pytest.raises(ConfigError, match=grid):
        RunConfig(kind=kind, out_dir="x").validate()
    RunConfig(kind=kind, out_dir="x", **{grid: (0.1,)}).validate()
