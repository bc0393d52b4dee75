"""Scenario files, CSV output, experiments, and the CLI."""

import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from femtogame import (
    TopologyConfig,
    _csv,
    cli,
    default_topology,
    discrete,
    experiments,
    generate_topology,
    pricing,
    scenario,
    solve_equilibria,
)
from femtogame._csv import format_cell, write_rows
from femtogame.defaults import default_constants
from femtogame.discrete import LearnerConfig, PowerLawSchedule, default_action_sets
from femtogame.experiments import (
    EXPERIMENT_IDS,
    STUDIES,
    ExperimentSpec,
    config_hash,
    run_experiment,
)

README = Path(__file__).resolve().parents[1] / "README.md"
from femtogame.scenario import (
    ScenarioError,
    load_scenario,
    network_from_scenario,
    parse_power,
    parse_ratio,
    save_network,
)

from conftest import traced_peak


# --------------------------------------------------------------- config hash


def test_config_hash_ignores_key_order():
    assert config_hash({"a": 1, "b": [2, 3]}) == config_hash({"b": [2, 3], "a": 1})


def test_config_hash_sees_value_changes():
    assert config_hash({"a": 1}) != config_hash({"a": 2})
    digest = config_hash({"a": 1})
    assert len(digest) == 12
    assert all(c in "0123456789abcdef" for c in digest)


# ------------------------------------------------------------------ scenarios


def test_parse_power_accepts_watts_and_dbm():
    assert parse_power(0.1) == 0.1
    assert parse_power("0.25") == 0.25
    assert parse_power("27 dBm") == pytest.approx(0.5011872336272722, rel=1e-15)
    assert parse_power("-40dBm") == pytest.approx(1e-7, rel=1e-12)


def test_parse_power_rejects_junk():
    with pytest.raises(ScenarioError):
        parse_power("eleven")
    with pytest.raises(ScenarioError):
        parse_power("x dBm")
    with pytest.raises(ScenarioError):
        parse_power(True)


def test_parse_ratio_accepts_linear_and_db():
    assert parse_ratio(2.0) == 2.0
    assert parse_ratio("3 dB") == pytest.approx(10**0.3, rel=1e-15)
    with pytest.raises(ScenarioError):
        parse_ratio([1.0])


def test_saved_network_round_trips_exactly(tmp_path):
    generated = generate_topology(default_topology(), 3, **default_constants())
    shadowed = generate_topology(TopologyConfig(shadowing_sigma_db=6.0, rng_seed=4), 5, **default_constants())
    for net in (generated, replace(generated, positions={}), shadowed):
        path = tmp_path / "net.json"
        save_network(net, path)
        loaded = network_from_scenario(load_scenario(path))
        assert np.array_equal(loaded.gain, net.gain)
        assert np.array_equal(loaded.noise, net.noise)
        assert np.array_equal(loaded.power_max, net.power_max)
        assert loaded.mu_power == net.mu_power
        assert loaded.circuit_power == net.circuit_power
        assert loaded.bandwidth == net.bandwidth
        assert loaded.mu_sinr_threshold == net.mu_sinr_threshold
        assert loaded.num_followers == net.num_followers
        assert loaded.positions == net.positions
        assert ("positions" in json.loads(path.read_text())["network"]) == bool(net.positions)


def test_readme_scenario_example_lists_every_key_and_loads(tmp_path):
    section = README.read_text().split("## Scenario JSON", 1)[1]
    example = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    tables = {
        "network": scenario._NETWORK,
        "topology": scenario._TOPOLOGY,
        "constants": scenario._CONSTANTS,
        "learner": scenario._LEARNER,
    }
    assert {name: sorted(example[name]) for name in example} == {name: sorted(t) for name, t in tables.items()}
    path = tmp_path / "example.json"
    path.write_text(json.dumps(example))
    sc = load_scenario(path)
    assert sc.network.num_followers == 2
    assert sc.learner == LearnerConfig(alpha1=PowerLawSchedule(c=0.6), alpha2=PowerLawSchedule(c=1.0))


@pytest.mark.parametrize("config", [TopologyConfig, LearnerConfig])
@pytest.mark.parametrize("seed", [-3, 1.5, True, "0", None])
def test_configs_refuse_an_unusable_seed(config, seed):
    with pytest.raises(ValueError, match="rng_seed"):
        config(rng_seed=seed)
    assert config(rng_seed=np.int64(3)).rng_seed == 3


def test_missing_config_yields_defaults():
    sc = load_scenario(None)
    assert sc.network is None
    assert sc.constants == default_constants()
    net = network_from_scenario(sc, seed=5, num_followers=2)
    assert net.num_followers == 2


def test_scenario_rejects_unknown_constant(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"constants": {"warp_factor": 9}}')
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_scenario_rejects_non_object_root(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ScenarioError):
        load_scenario(path)


@pytest.mark.parametrize("block", ["network", "topology", "constants", "learner"])
def test_scenario_rejects_non_object_block(tmp_path, block):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({block: 5}))
    with pytest.raises(ScenarioError, match="must be a JSON object"):
        load_scenario(path)


def test_scenario_missing_file():
    with pytest.raises(ScenarioError):
        load_scenario("/nonexistent/scenario.json")


def test_explicit_network_cannot_be_reseeded(tmp_path):
    net = generate_topology(default_topology(), 2, **default_constants())
    path = tmp_path / "net.json"
    save_network(net, path)
    sc = load_scenario(path)
    with pytest.raises(ScenarioError):
        network_from_scenario(sc, seed=9)
    with pytest.raises(ScenarioError):
        network_from_scenario(sc, num_followers=5)


# ------------------------------------------------------------------ CSV layer


def test_format_cell_values():
    assert format_cell(True) == "1"
    assert format_cell(np.bool_(False)) == "0"
    assert format_cell(np.bool_(True)) == "1"
    assert format_cell(np.float64(1.5)) == "1.5"
    assert format_cell(np.float64(0.1)) == "0.1"
    assert format_cell(np.float32(0.5)) == "0.5"
    assert format_cell(np.int64(3)) == "3"
    assert format_cell(0.1) == "0.1"
    assert format_cell(-0.0) == "-0.0"
    assert format_cell(1e-300) == "1e-300"
    assert format_cell(7) == "7"
    assert format_cell("ok") == "ok"
    for bad in (float("inf"), float("-inf"), float("nan"), np.float64("inf"), np.float64("nan")):
        with pytest.raises(ValueError, match="non-finite"):
            format_cell(bad)


def test_format_cell_rejects_non_finite():
    with pytest.raises(ValueError):
        format_cell(float("inf"))
    with pytest.raises(ValueError):
        format_cell(float("nan"))


def test_write_rows_produces_frozen_bytes(tmp_path):
    path = tmp_path / "t.csv"
    write_rows(path, ("a", "b"), [(1, 0.5), (True, np.float64(2.0))])
    assert path.read_bytes() == b"a,b\n1,0.5\n1,2.0\n"


def test_write_rows_writes_a_str_row_as_its_line(tmp_path):
    path = tmp_path / "t.csv"
    write_rows(path, ("a", "b"), ["1,0.5", (2, -0.0), "x;y,z"])
    assert path.read_bytes() == b"a,b\n1,0.5\n2,-0.0\nx;y,z\n"


def test_write_rows_refusing_a_row_mid_stream_keeps_the_file_it_would_replace(tmp_path, monkeypatch):
    monkeypatch.setattr(_csv, "CHUNK_ROWS", 3)  # four chunks reach the temporary file before the NaN row
    path = tmp_path / "t.csv"
    path.write_bytes(b"earlier,run\n1,2\n")
    rows = [(i, 0.5 * i) for i in range(12)] + [(12, float("nan")), (13, 1.0)]
    with pytest.raises(ValueError, match="non-finite value in CSV row: nan"):
        write_rows(path, ("a", "b"), rows)
    assert path.read_bytes() == b"earlier,run\n1,2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
    write_rows(path, ("a", "b"), rows[:12])
    assert path.read_bytes() == ("a,b\n" + "".join(f"{i},{0.5 * i!r}\n" for i in range(12))).encode()
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_write_rows_keeps_the_permissions_of_the_file_it_rewrites(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"earlier,run\n")
    path.chmod(0o640)
    write_rows(path, ("a", "b"), [(1, 0.5)])
    assert path.read_bytes() == b"a,b\n1,0.5\n"
    assert path.stat().st_mode & 0o7777 == 0o640


# ---------------------------------------------------------------- experiments


def test_experiment_spec_rejects_unknown_id():
    with pytest.raises(ValueError):
        ExperimentSpec("fig9-imaginary")
    with pytest.raises(ValueError):
        ExperimentSpec("fig1-sweep", trials=0)


@pytest.mark.parametrize(
    "sizes",
    [
        {"num_followers": 0},
        {"k_values": ()},
        {"k_values": (2, 0)},
        {"grid_count": 1},
        {"search_grid_count": 1},
        {"num_actions": 1},
        {"num_actions": 2.5},  # wrote 40 fig4 rows with the menu [0, 0.4, 0.8] * p_max
        {"num_actions": True},
        {"seed_base": -1},
        {"learn_max_iters": 0},
    ],
)
def test_experiment_spec_rejects_out_of_range_sizes(sizes):
    with pytest.raises(ValueError):
        ExperimentSpec("fig2-3-se-compare", **sizes)


@pytest.mark.parametrize(
    "field", ["trials", "seed_base", "num_followers", "grid_count", "search_grid_count", "learn_max_iters"]
)
@pytest.mark.parametrize("value", [4.5, True, np.float64(3.0), "3"])
def test_experiment_spec_refuses_a_count_that_is_not_an_integer(field, value):
    # grid_count=4.5 wrote a failed row per trial, trials=1.5 ended in a bare TypeError inside the run, and a bool
    # was taken as 0 or 1.
    with pytest.raises(ValueError, match=rf"{field} must be an integer"):
        ExperimentSpec("fig2-3-se-compare", **{field: value})


def test_experiment_spec_accepts_a_numpy_integer_action_count():
    assert ExperimentSpec("fig4-discrete-sweep", num_actions=np.int32(3)).num_actions == 3


def test_sweep_experiment_summary_and_rows(tmp_path):
    out = tmp_path / "f1.csv"
    spec = ExperimentSpec(
        "fig1-sweep", trials=2, num_followers=2, grid_count=16, output_path=out
    )
    summary = run_experiment(spec)
    assert summary["rows"] == 2 * 16
    assert summary["interior_max_fraction"] == 1.0
    for entry in summary["per_seed"]:
        assert entry["plateau_decades"] > 1.0
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "experiment,seed,config_hash,lambda_per_watt,revenue,"
        "mean_efficiency_per_joule,mu_sinr_linear,converged,status"
    )
    assert len(lines) == 1 + summary["rows"]


def test_sweep_grid_warns_on_unconverged_zero_price_equilibrium(monkeypatch):
    net = generate_topology(default_topology(), 6, **default_constants())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        experiments.sweep_grid(net, 5)
    monkeypatch.setattr(pricing, "solve_equilibria", partial(solve_equilibria, max_rounds=1))
    # A new network object with the same seed: zero_price_equilibrium keeps its
    # last result for the object it was given, which would skip the patched solver.
    net = generate_topology(default_topology(), 6, **default_constants())
    with pytest.warns(RuntimeWarning, match="did not converge in 1 rounds"):
        experiments.sweep_grid(net, 5)


def test_experiment_rerun_is_byte_identical(tmp_path):
    outs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        run_experiment(
            ExperimentSpec("fig1-sweep", trials=1, num_followers=2, grid_count=10, output_path=out)
        )
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_convergence_experiment_writes_both_phases(tmp_path):
    out = tmp_path / "f67.csv"
    spec = ExperimentSpec(
        "fig6-7-convergence",
        trials=1,
        num_followers=2,
        num_actions=3,
        learn_max_iters=150,
        output_path=out,
    )
    summary = run_experiment(spec)
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == "experiment,seed,config_hash,phase,iteration,k,expected_power_w,pi_row,status"
    assert summary["rows"] == len(lines) - 1
    phases = {line.split(",")[3] for line in lines[1:]}
    assert phases == {"zero-price", "algorithm2-price"}


def _unreachable_target() -> dict:
    """Default constants with a macro SINR target Algorithm 2 cannot meet."""
    return {**default_constants(), "mu_sinr_threshold": 1e12}


def _statuses(path) -> list[tuple[str, str]]:
    """(scheme or phase, status) per data row of a fig5 or fig6-7 CSV."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    key = header.index("scheme" if "scheme" in header else "phase")
    return [(cells[key], cells[-1]) for cells in (line.split(",") for line in lines[1:])]


def test_discrete_compare_marks_unconverged_algorithm2_row(tmp_path):
    out = tmp_path / "f5.csv"
    spec = ExperimentSpec(
        "fig5-discrete-compare",
        k_values=(2,),
        num_actions=3,
        search_grid_count=6,
        constants=_unreachable_target(),
        learner=LearnerConfig(max_iters=100),
        output_path=out,
    )
    summary = run_experiment(spec)
    assert _statuses(out) == [("se-search", "ok"), ("asymptote", "ok"), ("algorithm2", "unconverged")]
    (trial,) = summary["per_trial"]
    assert trial["converged"] is False and trial["outer_iterations"] == 20
    assert summary["rows_not_ok"] == 1


def test_se_compare_marks_boundary_search_rows(tmp_path):
    # A two-point search grid has no interior point, so every search ends on its boundary.
    out = tmp_path / "f23.csv"
    summary = run_experiment(
        ExperimentSpec(experiment_id="fig2-3-se-compare", search_grid_count=2, output_path=out)
    )
    statuses = _statuses(out)
    assert [s for name, s in statuses if name == "se-search"] == ["boundary"] * 3
    assert {s for name, s in statuses if name != "se-search"} == {"ok"}
    assert summary["rows_not_ok"] == 3


@pytest.mark.parametrize("field", ["pi_trace", "expected_power_trace"])
def test_convergence_experiment_records_a_non_finite_trace_as_a_failed_trial(tmp_path, monkeypatch, field):
    run = LearnerConfig.run

    def poisoned(self, net, action_sets, prices):
        report = run(self, net, action_sets, prices)
        getattr(report, field)[-1, 0] = np.nan
        return report

    monkeypatch.setattr(LearnerConfig, "run", poisoned)
    out = tmp_path / "f67.csv"
    spec = ExperimentSpec(
        "fig6-7-convergence",
        trials=2,
        num_followers=2,
        num_actions=3,
        learn_max_iters=60,
        output_path=out,
    )
    summary = run_experiment(spec)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[-1] for row in rows] == ["failed:ValueError"] * 2
    assert [f["error"] for f in summary["failures"]] == ["ValueError: non-finite value in learning trace"] * 2
    assert summary["per_seed"] == []


def _cell_by_cell_fig67_trial(spec, net, seed):
    """``experiments._fig67_trial`` as it stood when each trace row went to ``write_rows`` as separate cells."""
    actions = default_action_sets(net, spec.num_actions)
    learner = replace(spec.learner, rng_seed=seed)
    alg2 = pricing.run_algorithm2(net, actions, learner=learner)
    phases = {
        "zero-price": (np.zeros(net.num_followers), "ok"),
        "algorithm2-price": (alg2.prices, experiments._alg2_status(alg2)),
    }
    entry = {"seed": seed, "outer_iterations": alg2.outer_iterations, "converged": alg2.converged}
    phase_learner = replace(learner, max_iters=spec.learn_max_iters)
    tails = []
    for phase, (prices, status) in phases.items():
        report = phase_learner.run(net, actions, prices)
        entry[phase] = {"converged": report.converged, "iterations": report.iterations}
        traces = zip(report.expected_power_trace.tolist(), report.pi_trace.tolist())
        tails += [
            (phase, t, k, power, ";".join(map(repr, pi)), status)
            for t, (powers, pis) in enumerate(traces, start=1)
            for k, (power, pi) in enumerate(zip(powers, pis), start=1)
        ]
    return tails, entry


@pytest.mark.parametrize("block_cells", [discrete.BLOCK_CELLS, 7])
@pytest.mark.parametrize(
    "learner",
    [LearnerConfig(), LearnerConfig(alpha1=PowerLawSchedule(c=0.6), alpha2=PowerLawSchedule(c=1.0))],
    ids=["stock", "adapting"],
)
def test_convergence_experiment_csv_matches_its_cell_by_cell_rows(tmp_path, monkeypatch, learner, block_cells):
    # block_cells 7 puts one slot in each draw chunk and expected-power block (K * M = 12 cells a slot).
    monkeypatch.setattr(discrete, "BLOCK_CELLS", block_cells)
    spec = ExperimentSpec("fig6-7-convergence", trials=2, num_followers=3, num_actions=4, learn_max_iters=200,
                          learner=learner, output_path=tmp_path / "new.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        new = run_experiment(spec)
        study = replace(experiments.STUDIES["fig6-7-convergence"], trial=_cell_by_cell_fig67_trial)
        monkeypatch.setitem(experiments.STUDIES, "fig6-7-convergence", study)
        old = run_experiment(replace(spec, output_path=tmp_path / "old.csv"))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert {**new, "output_path": None} == {**old, "output_path": None}
    assert new["rows"] > 2 * 3 * 2


def test_convergence_experiment_memory_does_not_grow_with_trials(tmp_path):
    # Each trial's rows (up to 2 phases * 300 slots * 6 followers) go to the file before the next trial runs; holding
    # every trial's rows until one final write made the peak grow with the trial count.
    def peak(trials):
        spec = ExperimentSpec(
            "fig6-7-convergence",
            trials=trials,
            learn_max_iters=300,
            learner=LearnerConfig(alpha1=PowerLawSchedule(c=0.6), alpha2=PowerLawSchedule(c=1.0), max_iters=300),
            output_path=tmp_path / f"f67-{trials}.csv",
        )
        summaries = []
        used = traced_peak(lambda: summaries.append(run_experiment(spec)))
        assert summaries[0]["rows"] == len((tmp_path / f"f67-{trials}.csv").read_text().splitlines()) - 1
        return used

    peak(1)  # first-call allocations stay out of the count
    assert peak(4) <= 1.25 * peak(1)  # 2.7x when every trial's rows waited for one final write


def test_convergence_experiment_marks_unconverged_algorithm2_phase(tmp_path):
    out = tmp_path / "f67.csv"
    spec = ExperimentSpec(
        "fig6-7-convergence",
        num_followers=2,
        num_actions=3,
        learn_max_iters=60,
        constants=_unreachable_target(),
        learner=LearnerConfig(max_iters=100),
        output_path=out,
    )
    summary = run_experiment(spec)
    statuses = dict(_statuses(out))
    assert statuses == {"zero-price": "ok", "algorithm2-price": "unconverged"}
    (seed_info,) = summary["per_seed"]
    assert seed_info["converged"] is False
    assert summary["rows_not_ok"] == sum(1 for _, s in _statuses(out) if s != "ok") > 0


def test_readme_csv_schemas_match_headers():
    section = README.read_text().split("## CSV schemas", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for bullet in section.split("\n- ")[1:]:
        match = re.match(r"((?:`[\w-]+`(?: / )?)+): `([^`]+)`", " ".join(bullet.split()))
        if match:
            columns = tuple(c.strip() for c in match.group(2).split(","))
            for name in re.findall(r"`([\w-]+)`", match.group(1)):
                documented[name] = columns
    assert {i: documented.get(i) for i in EXPERIMENT_IDS} == {i: study.header for i, study in STUDIES.items()}


def test_readme_sweep_schema_matches_cli_header():
    section = " ".join(README.read_text().split("## CSV schemas", 1)[1].split())
    documented = re.search(r"- `sweep` \(both games\): `([^`]+)`", section).group(1)
    assert tuple(c.strip() for c in documented.split(",")) == STUDIES["fig1-sweep"].header[3:8]


# ------------------------------------------------------------------------ CLI


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "femtogame.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


def test_cli_generate_then_sweep(tmp_path):
    net_path = tmp_path / "net.json"
    res = run_cli("generate", "--seed", "3", "--followers", "2", "--out", str(net_path))
    assert res.returncode == 0, res.stderr
    assert net_path.exists()

    sweep_path = tmp_path / "sweep.csv"
    res = run_cli("sweep", "--config", str(net_path), "--points", "8", "--out", str(sweep_path))
    assert res.returncode == 0, res.stderr
    lines = sweep_path.read_text().splitlines()
    assert lines[0] == "lambda_per_watt,revenue,mean_efficiency_per_joule,mu_sinr_linear,converged"
    assert len(lines) == 9


def test_cli_discrete_sweep_alias(tmp_path):
    out = tmp_path / "d.csv"
    res = run_cli(
        "price-sweep", "--seed", "1", "--followers", "2", "--game", "discrete",
        "--points", "6", "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    assert len(out.read_text().splitlines()) == 7


def test_cli_search_reports_json(tmp_path):
    out = tmp_path / "search.json"
    res = run_cli("search", "--seed", "4", "--followers", "1", "--points", "25", "--out", str(out))
    assert res.returncode == 0, res.stderr
    payload = json.loads(out.read_text())
    assert set(payload) == {
        "mode", "prices_per_watt", "revenue", "boundary_max", "equilibrium_powers_w",
    }
    assert payload["revenue"] > 0
    assert not payload["boundary_max"]


def test_cli_asymptote_stdout():
    res = run_cli("asymptote", "--seed", "2", "--followers", "2")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert len(payload["asymptote_prices_per_watt"]) == 2
    assert all(x > 0 for x in payload["asymptote_prices_per_watt"])


def test_cli_learn_writes_trace(tmp_path):
    out = tmp_path / "learn.csv"
    res = run_cli("learn", "--seed", "0", "--followers", "2", "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0].startswith("iteration,k,expected_power")
    assert len(lines) > 50


@pytest.mark.parametrize(
    "argv, solver",
    [
        (["learn", "--followers", "2"], (LearnerConfig, "run")),
        (["sweep", "--followers", "2"], (cli, "continuous_sweep_rows")),
        (["search", "--followers", "2"], (cli, "se_price_search")),
        (["asymptote", "--followers", "2"], (cli, "zero_price_equilibrium")),
        (["experiment", "--id", "fig1-sweep"], (cli, "run_experiment")),
    ],
    ids=["learn", "sweep", "search", "asymptote", "experiment"],
)
def test_cli_refuses_an_output_in_a_missing_directory_before_computing(tmp_path, capsys, monkeypatch, argv, solver):
    def never(*args, **kwargs):
        raise AssertionError("computed before checking --out")

    monkeypatch.setattr(*solver, never)
    out = tmp_path / "nodir" / "x.csv"
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert str(out) in err and ".tmp" not in err
    assert not out.parent.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["generate"],
        ["sweep"],
        ["search"],
        ["asymptote"],
        ["learn"],
        ["learn", "--algorithm2"],
        ["experiment", "--id", "fig1-sweep"],
    ],
    ids=["generate", "sweep", "search", "asymptote", "learn", "learn-algorithm2", "experiment"],
)
def test_cli_refuses_an_output_that_is_a_directory_before_computing(tmp_path, capsys, monkeypatch, argv):
    def never(path):
        raise AssertionError("computed before checking --out")

    monkeypatch.setattr(cli, "load_scenario", never)  # main loads the scenario before any subcommand runs
    assert cli.main([*argv, "--followers", "2", "--out", str(tmp_path)]) == cli.EXIT_BAD_INPUT
    assert f"cannot write {tmp_path}: it is a directory" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_every_subcommand_and_alias_parses_to_its_handler():
    (subparsers,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    handlers = {name: sub.get_default("run") for name, sub in subparsers.choices.items()}
    assert set(handlers) == {"generate", "sweep", "price-sweep", "search", "price-search", "asymptote", "learn",
                             "experiment"}
    assert all(run.__name__ == f"cmd_{name}" for name, run in handlers.items() if "-" not in name)
    assert (handlers["price-sweep"], handlers["price-search"]) == (cli.cmd_sweep, cli.cmd_search)
    args = cli.build_parser().parse_args(["price-sweep", "--out", "x.csv"])
    assert args.run is cli.cmd_sweep


@pytest.mark.parametrize("experiment_id", EXPERIMENT_IDS)
def test_every_study_header_starts_with_the_cells_run_experiment_writes(experiment_id):
    study = experiments.STUDIES[experiment_id]
    lead = ("experiment", "k", "seed", "config_hash") if study.per_k else ("experiment", "seed", "config_hash")
    assert study.header[: len(lead)] == lead
    assert study.header[-1] == "status"  # run_experiment counts a row not ok by its last cell
    assert study.points is None or study.points in ExperimentSpec.__dataclass_fields__


def test_cli_seed_help_says_what_each_subcommand_seeds():
    (subparsers,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    helps = {
        name: next(a.help for a in sub._actions if a.dest == "seed") for name, sub in subparsers.choices.items()
    }
    for name in ("generate", "sweep", "search", "asymptote"):
        assert helps[name] == "topology RNG seed (overrides the scenario's)"
    assert "learner RNG seed" in helps["learn"]
    assert helps["experiment"].startswith("first trial seed")


def test_cli_rejects_bad_scenario(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"constants": {"nonsense": 1}}')
    res = run_cli("asymptote", "--config", str(bad))
    assert res.returncode == 2


_NETWORK_BLOCK = {
    "num_followers": 2,
    "bandwidth_hz": 1e6,
    "gain": [[1.0e-6, 2.0e-7, 3.0e-8], [1.1e-7, 4.0e-6, 9.0e-8], [2.5e-8, 7.0e-8, 5.0e-6]],
    "noise": [1e-7, 1e-7, 1e-7],
    "mu_power": "27 dBm",
    "power_max": [0.1, 0.1],
    "circuit_power": "3 dBm",
    "mu_sinr_threshold": "3 dB",
}


@pytest.mark.parametrize(
    "command, block, key, body",
    [
        ("generate", "topology", "macro_radius_m", {"macro_radius_m": "300"}),
        ("generate", "topology", "rng_seed", {"rng_seed": 1.5}),
        ("asymptote", "network", "noise", {**_NETWORK_BLOCK, "noise": 5}),
        ("asymptote", "network", "bandwidth_hz", {**_NETWORK_BLOCK, "bandwidth_hz": [1e6]}),
        ("asymptote", "network", "num_followers", {**_NETWORK_BLOCK, "num_followers": [2]}),
        ("generate", "constants", "bandwidth", {"bandwidth": [1]}),
        ("asymptote", "network", "bandwith_hz", {**_NETWORK_BLOCK, "bandwith_hz": 1e6}),
        ("asymptote", "network", "positions", {**_NETWORK_BLOCK, "positions": 7}),
        ("learn", "learner", "window", {"window": 50.7}),
        ("learn", "learner", "max_iters", {"max_iters": 99.9}),
        ("learn", "learner", "rng_seed", {"rng_seed": 1.5}),
        ("experiment", "learner", "M", {"M": 6.9}),
        ("asymptote", "network", "num_followers", {**_NETWORK_BLOCK, "num_followers": 2.7}),
        ("asymptote", "network", "gain", {k: v for k, v in _NETWORK_BLOCK.items() if k != "gain"}),
        ("learn", "learner", "alpha1", {"alpha1": 0.6}),
        ("learn", "learner", "tau", {"tau": "1.0"}),
        ("experiment", "learner", "tau", {"tau": True}),
    ],
)
def test_cli_refuses_every_bad_scenario_field_naming_block_and_key(tmp_path, capsys, command, block, key, body):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({block: body}))
    out = tmp_path / "out.file"
    argv = [command, "--config", str(path), "--out", str(out)]
    if command == "experiment":
        argv += ["--id", "fig4-discrete-sweep", "--followers", "2"]
    elif command != "asymptote":
        argv += ["--followers", "2"]
    assert cli.main(argv) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {block} ") or err.startswith(f"error: unknown {block} field"), err
    assert repr(key) in err and "Traceback" not in err
    assert not out.exists()


def test_cli_price_search_alias_matches_search(tmp_path):
    a = run_cli("search", "--seed", "4", "--followers", "1", "--points", "12")
    b = run_cli("price-search", "--seed", "4", "--followers", "1", "--points", "12")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_import_does_not_load_scipy():
    code = "import sys, femtogame; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_price_search_runs_without_scipy():
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "import femtogame as fg\n"
        "net = fg.generate_topology(fg.default_topology(), 3, **fg.default_constants())\n"
        "for mode in ('uniform-price', 'per-link'):\n"
        "    assert fg.se_price_search(net, fg.PriceSearchConfig(mode=mode, grid_count=12)).revenue > 0\n"
        "print('done')"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "done"


def test_cli_learn_rejects_nan_price():
    res = run_cli("learn", "--seed", "0", "--followers", "2", "--price", "nan")
    assert res.returncode == 2, res.stdout + res.stderr
    assert "prices must be finite" in res.stderr


def test_cli_learn_refuses_a_price_with_algorithm2(tmp_path, capsys):
    out = tmp_path / "outer.csv"
    argv = ["learn", "--algorithm2", "--price", "5e12", "--followers", "2", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_BAD_INPUT
    assert "--price does not apply to --algorithm2" in capsys.readouterr().err
    assert not out.exists()


# Adapting step sizes: with them Algorithm 2 meets the default SINR target.
_ADAPTING_LEARNER = {"max_iters": 100, "M": 3, "alpha1": {"c": 0.6}, "alpha2": {"c": 1.0}}


def _experiment(tmp_path, capsys, scenario, *flags):
    """Run ``femtogame experiment`` in-process; returns (exit code, summary, CSV path)."""
    out = tmp_path / "experiment.csv"
    argv = ["experiment", *flags, "--out", str(out)]
    if scenario is not None:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        argv += ["--config", str(path)]
    code = cli.main(argv)
    printed = capsys.readouterr().out
    return code, (json.loads(printed) if printed else None), out


def _fig67_exit(tmp_path, capsys, scenario):
    code, summary, out = _experiment(
        tmp_path, capsys, scenario, "--id", "fig6-7-convergence", "--followers", "2"
    )
    return code, summary["per_seed"][0]["converged"], dict(_statuses(out))["algorithm2-price"]


def test_cli_experiment_exits_3_after_writing_unconverged_rows(tmp_path, capsys):
    scenario = {"learner": _ADAPTING_LEARNER, "constants": {"mu_sinr_threshold": 1e12}}
    assert _fig67_exit(tmp_path, capsys, scenario) == (cli.EXIT_NO_CONVERGENCE, False, "unconverged")


def test_cli_experiment_exits_0_when_algorithm2_meets_target(tmp_path, capsys):
    scenario = {"learner": _ADAPTING_LEARNER}
    assert _fig67_exit(tmp_path, capsys, scenario) == (cli.EXIT_OK, True, "ok")


def _sweep_cells(path, *columns) -> list[tuple[str, ...]]:
    """The named cells of every data row of a sweep CSV."""
    header, *rows = (line.split(",") for line in Path(path).read_text().splitlines())
    return [tuple(row[header.index(c)] for c in columns) for row in rows]


def test_discrete_sweeps_name_a_cycling_price_row(tmp_path, capsys):
    # Default K = 200 topology 0: the round robin 2-cycles at point 12 of the 40-point grid.
    code, summary, out = _experiment(
        tmp_path, capsys, None, "--id", "fig4-discrete-sweep", "--followers", "200", "--seed", "0"
    )
    assert code == cli.EXIT_NO_CONVERGENCE
    expected = [("1", "ok")] * 12 + [("0", "cycle")] + [("1", "ok")] * 27
    assert _sweep_cells(out, "converged", "status") == expected
    assert summary["rows_not_ok"] == 1
    sweep = tmp_path / "sweep.csv"
    argv = ["sweep", "--game", "discrete", "--followers", "200", "--seed", "0", "--out", str(sweep)]
    assert cli.main(argv) == cli.EXIT_NO_CONVERGENCE
    assert "cycle [12], round cap []" in capsys.readouterr().err
    assert _sweep_cells(sweep, "converged") == [(c,) for c, _ in expected]
    assert {len(line.split(",")) for line in sweep.read_text().splitlines()} == {5}


def test_continuous_sweep_experiment_marks_unconverged_rows(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "solve_equilibria", partial(solve_equilibria, max_rounds=1))
    out = tmp_path / "f1.csv"
    summary = run_experiment(ExperimentSpec("fig1-sweep", grid_count=8, output_path=out))
    cells = _sweep_cells(out, "converged", "status")
    assert ("0", "unconverged") in cells
    assert set(cells) <= {("1", "ok"), ("0", "unconverged")}
    assert summary["rows_not_ok"] == cells.count(("0", "unconverged"))


def test_default_config_hashes_are_stable():
    pinned = {
        "fig1-sweep": "2f81fbd8bd6c",
        "fig2-3-se-compare": "7940d481219d",
        "fig4-discrete-sweep": "64bdf6598e6f",
        "fig5-discrete-compare": "080704d7e756",
        "fig6-7-convergence": "aebc0ef8c6c9",
    }
    assert {i: experiments._spec_config(ExperimentSpec(i))[2] for i in EXPERIMENT_IDS} == pinned


@pytest.mark.parametrize("experiment_id", EXPERIMENT_IDS)
def test_config_hash_covers_the_learner_where_rows_depend_on_it(experiment_id):
    learners = (
        LearnerConfig(max_iters=50),
        LearnerConfig(tau=3.0, alpha2=PowerLawSchedule(c=1.0), max_iters=50),
        LearnerConfig(max_iters=50, rng_seed=9),  # each trial learns with its own seed
    )
    hashes = [experiments._spec_config(ExperimentSpec(experiment_id, learner=learner))[2] for learner in learners]
    learning = experiment_id in ("fig5-discrete-compare", "fig6-7-convergence")
    assert len(set(hashes)) == (2 if learning else 1)
    assert hashes[0] == hashes[2]


def test_cli_experiment_honours_topology_and_constants(tmp_path, capsys):
    flags = ("--id", "fig1-sweep", "--followers", "2", "--points", "6")
    runs = {}
    for name, scenario in {
        "none": None,
        "topology": {"topology": {"macro_radius_m": 50}},
        "constants": {"constants": {"circuit_power": "10 dBm"}},
    }.items():
        code, summary, out = _experiment(tmp_path, capsys, scenario, *flags)
        assert code == cli.EXIT_OK
        runs[name] = (summary["config_hash"], out.read_text().split("\n", 1)[1])
    assert len({h for h, _ in runs.values()}) == 3
    assert len({rows for _, rows in runs.values()}) == 3


def test_cli_experiment_takes_k_and_first_seed_from_topology_block(tmp_path, capsys):
    scenario = {"topology": {"num_followers": 3, "rng_seed": 7, "min_distance_m": 2.0}}
    code, summary, out = _experiment(tmp_path, capsys, scenario, "--id", "fig1-sweep", "--points", "5")
    assert code == cli.EXIT_OK
    expected = tmp_path / "expected.csv"
    spec = ExperimentSpec(
        "fig1-sweep",
        seed_base=7,
        topology=TopologyConfig(min_distance=2.0),
        num_followers=3,
        grid_count=5,
        output_path=expected,
    )
    assert run_experiment(spec)["config_hash"] == summary["config_hash"]
    assert out.read_bytes() == expected.read_bytes()
    assert [entry["seed"] for entry in summary["per_seed"]] == [7]


def test_cli_comparison_takes_followers_and_points(tmp_path, capsys):
    code, summary, out = _experiment(
        tmp_path, capsys, None, "--id", "fig2-3-se-compare", "--followers", "2", "--points", "5"
    )
    assert code == cli.EXIT_OK
    assert {row.split(",")[1] for row in out.read_text().splitlines()[1:]} == {"2"}
    spec = ExperimentSpec("fig2-3-se-compare", k_values=(2,), search_grid_count=5)
    assert summary["config_hash"] == experiments._spec_config(spec)[2]


def test_cli_experiment_refuses_network_block_and_trace_points(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    save_network(generate_topology(default_topology(), 2, **default_constants()), net_path)
    assert cli.main(["experiment", "--id", "fig1-sweep", "--config", str(net_path),
                     "--out", str(tmp_path / "a.csv")]) == cli.EXIT_BAD_INPUT
    assert "network block" in capsys.readouterr().err
    code, _, out = _experiment(tmp_path, capsys, None, "--id", "fig6-7-convergence", "--points", "5")
    assert code == cli.EXIT_BAD_INPUT
    assert not out.exists()


@pytest.mark.parametrize("flags", [("--followers", "0", "--points", "4"), ("--points", "1")])
def test_cli_experiment_rejects_out_of_range_sizes(tmp_path, capsys, flags):
    code, summary, out = _experiment(tmp_path, capsys, None, "--id", "fig1-sweep", *flags)
    assert code == cli.EXIT_BAD_INPUT
    assert summary is None
    assert not out.exists()


@pytest.mark.parametrize(
    "scenario, flags",
    [
        ({"learner": {"M": 1}}, ("--id", "fig4-discrete-sweep")),
        (None, ("--id", "fig1-sweep", "--seed", "-1")),
    ],
)
def test_cli_experiment_refuses_a_one_action_menu_and_a_negative_seed(tmp_path, capsys, scenario, flags):
    code, summary, out = _experiment(tmp_path, capsys, scenario, *flags)
    assert code == cli.EXIT_BAD_INPUT
    assert summary is None
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, scenario",
    [
        (("generate", "--followers", "0"), None),
        (("sweep", "--followers", "0"), None),
        (("sweep", "--game", "discrete", "--followers", "0"), None),
        (("asymptote", "--followers", "0"), None),
        (("sweep",), {"topology": {"num_followers": 0}}),
        (("sweep", "--points", "0"), None),
        (("sweep", "--points", "1"), None),
        (("sweep", "--game", "discrete", "--points", "1"), None),
    ],
)
def test_cli_rejects_zero_followers_and_degenerate_sweeps(tmp_path, capsys, argv, scenario):
    out = tmp_path / "out.file"
    config = ()
    if scenario is not None:
        (tmp_path / "scenario.json").write_text(json.dumps(scenario))
        config = ("--config", str(tmp_path / "scenario.json"))
    assert cli.main([*argv, *config, "--out", str(out)]) == cli.EXIT_BAD_INPUT
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "block",
    [
        {"max_iter": 5},
        {"alpah2": {"c": 1.0}},
        {"alpha2": {"cc": 1.0}},
        {"alpha1": 0.6},
        {"alpha1": {"c": -1.0}},
        {"window": "fifty"},
    ],
)
def test_scenario_rejects_bad_learner_block(tmp_path, block):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"learner": block}))
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_cli_learn_rejects_unknown_learner_fields(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"learner": {"max_iter": 5, "alpah2": {"c": 1.0}}}))
    res = run_cli("learn", "--config", str(path), "--followers", "2")
    assert res.returncode == 2, res.stdout + res.stderr
    assert "unknown learner field" in res.stderr


def test_cli_learn_runs_a_step_schedule_whose_power_overflows(tmp_path):
    # 1/t^1100 passes the float range at slot 2; the step is then 0.0, so the run finishes instead of dying
    path = tmp_path / "steep.json"
    path.write_text(json.dumps({"learner": {"alpha2": {"c": 1100}}}))
    out = tmp_path / "learn.csv"
    res = run_cli("learn", "--followers", "2", "--config", str(path), "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr and len(out.read_text().splitlines()) > 1


@pytest.mark.parametrize("target", ["inf", "inf dB"])
def test_cli_learn_algorithm2_refuses_an_infinite_macro_sinr_target(tmp_path, capsys, target):
    # a target no price can meet used to run all outer iterations and exit 3
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"constants": {"mu_sinr_threshold": target}}))
    assert cli.main(["learn", "--algorithm2", "--followers", "3", "--config", str(path)]) == cli.EXIT_BAD_INPUT
    assert "mu_sinr_threshold must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [{"max_iters": 0}, {"tol": -1.0}])
def test_cli_learn_rejects_empty_run_and_negative_tol(tmp_path, capsys, bad):
    path = tmp_path / "learner.json"
    path.write_text(json.dumps({"learner": {**_ADAPTING_LEARNER, **bad}}))
    out = tmp_path / "learn.csv"
    assert cli.main(["learn", "--config", str(path), "--followers", "2", "--out", str(out)]) == cli.EXIT_BAD_INPUT
    assert "max_iters >= 1 and tol >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_cli_learn_refuses_a_misspelt_scenario_block(tmp_path, capsys):
    path = tmp_path / "learner.json"
    path.write_text(json.dumps({"learnr": {"max_iters": 5}}))
    out = tmp_path / "learn.csv"
    assert cli.main(["learn", "--config", str(path), "--followers", "2", "--out", str(out)]) == cli.EXIT_BAD_INPUT
    assert "'learnr'" in capsys.readouterr().err
    assert not out.exists()


# Values the learner block parses but LearnerConfig or PowerLawSchedule must
# refuse; Python's json reads NaN and Infinity.
_BAD_LEARNER_VALUES = [
    {"tau": float("nan")},
    {"tau": 0.0},
    {"tau": float("inf")},
    {"tol": float("nan")},
    {"tol": float("inf")},
    {"tol": -1.0},
    {"window": 1},
    {"max_iters": 0},
    {"alpha1": {"a": float("nan")}},
    {"alpha1": {"b": float("nan")}},
    {"alpha2": {"c": float("nan")}},
    {"alpha2": {"a": float("inf")}},
]


@pytest.mark.parametrize("bad", _BAD_LEARNER_VALUES)
def test_scenario_rejects_bad_learner_values(tmp_path, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"learner": {**_ADAPTING_LEARNER, **bad}}))
    with pytest.raises(ScenarioError):
        load_scenario(path)


@pytest.mark.parametrize("bad", [{"tau": float("nan")}, {"alpha1": {"a": float("nan")}}, {"window": 1}])
def test_cli_learn_refuses_bad_learner_values_before_learning(tmp_path, capsys, bad):
    path = tmp_path / "learner.json"
    path.write_text(json.dumps({"learner": {**_ADAPTING_LEARNER, **bad}}))
    out = tmp_path / "learn.csv"
    assert cli.main(["learn", "--config", str(path), "--followers", "2", "--out", str(out)]) == cli.EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert "need" in captured.err and "iterations" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("bad", [{"max_iters": 0}, {"tau": float("nan")}, {"alpha2": {"c": float("nan")}}])
def test_cli_experiment_refuses_bad_learner_values_before_any_trial(tmp_path, capsys, bad):
    code, summary, out = _experiment(
        tmp_path, capsys, {"learner": {**_ADAPTING_LEARNER, **bad}}, "--id", "fig6-7-convergence", "--followers", "2"
    )
    assert code == cli.EXIT_BAD_INPUT
    assert summary is None
    assert not out.exists()


def test_learner_block_keeps_defaults_of_absent_fields(tmp_path):
    path = tmp_path / "learner.json"
    path.write_text(json.dumps({"learner": {"tau": 2, "alpha2": {"c": 1.0}, "M": 4}}))
    sc = load_scenario(path)
    assert sc.learner == LearnerConfig(tau=2.0, alpha2=PowerLawSchedule(c=1.0))
    assert sc.num_actions == 4
    assert load_scenario(None).learner == LearnerConfig()


@pytest.mark.parametrize(
    "experiment_id", ["fig4-discrete-sweep", "fig5-discrete-compare", "fig6-7-convergence"]
)
def test_failed_trials_keep_their_rows_and_messages(tmp_path, monkeypatch, experiment_id):
    # Every trial asks for a one-action menu, which default_action_sets refuses.
    monkeypatch.setattr(experiments, "default_action_sets", lambda net, M: default_action_sets(net, 1))
    out = tmp_path / "failed.csv"
    spec = ExperimentSpec(
        experiment_id,
        trials=2,
        num_followers=2,
        k_values=(2, 3),
        grid_count=4,
        search_grid_count=4,
        output_path=out,
    )
    summary = run_experiment(spec)
    per_k = STUDIES[experiment_id].per_k
    trials = 2 * (2 if per_k else 1)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == trials
    assert all(len(row) == len(STUDIES[experiment_id].header) for row in rows)
    assert {row[-1] for row in rows} == {"failed:ValueError"}
    assert summary["rows_not_ok"] == trials
    assert summary["per_trial" if per_k else "per_seed"] == []
    keys = [(f.get("k"), f["seed"]) for f in summary["failures"]]
    assert keys == [(k if per_k else None, s) for k in ((2, 3) if per_k else (2,)) for s in (0, 1)]
    assert all(f["error"] == "ValueError: M must be >= 2" for f in summary["failures"])


@pytest.mark.parametrize("demo", sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py")),
                         ids=lambda p: p.stem)
def test_demo_runs(tmp_path, demo):
    src = Path(__file__).resolve().parents[1] / "src"
    res = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert res.returncode == 0, res.stdout + res.stderr
