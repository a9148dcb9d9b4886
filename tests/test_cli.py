import json
import math
from pathlib import Path

import pytest

from vnfcmap.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_VALIDATION, main
from vnfcmap.infra import VmPlacement
from vnfcmap.metrics import CSV_COLUMNS
from vnfcmap.model import PhysicalMachine
from vnfcmap.oracle import AssignmentProblem, ObjectiveMode, solve_exact_matching
from vnfcmap.scenario import GenerationParams, Scenario, generate, load, save, scenario_to_dict

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def small_scenario(tmp_path_factory):
    path = tmp_path_factory.mktemp("scen") / "small.json"
    save(generate(7, GenerationParams(num_vms=15)), path)
    return path


def test_generate_scenario_writes_file(tmp_path, capsys):
    out = tmp_path / "scenario.json"
    code = main(["generate-scenario", "--seed", "3", "--vms", "12", "--out", str(out)])
    assert code == EXIT_OK
    assert "12 vms" in capsys.readouterr().out
    assert load(out).num_vms == 12


def test_generate_scenario_custom_ranges(tmp_path):
    out = tmp_path / "scenario.json"
    code = main(
        [
            "generate-scenario", "--seed", "3", "--vms", "10",
            "--req-range", "1", "3", "--cap-range", "2", "6", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    scenario = load(out)
    assert scenario.params.req_range == (1, 3)
    assert all(vm.compute_cap <= 6 for vm in scenario.vms)


def test_train_writes_run_artifacts(small_scenario, tmp_path):
    run_dir = tmp_path / "run"
    code = main(
        ["train", "--scenario", str(small_scenario), "--episodes", "40", "--out-dir", str(run_dir)]
    )
    assert code == EXIT_OK
    csv_lines = (run_dir / "episodes.csv").read_text().splitlines()
    assert csv_lines[0] == ",".join(CSV_COLUMNS)
    assert len(csv_lines) == 41
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["variant"] == "off-tab"
    assert summary["episodes"] == 40
    model = json.loads((run_dir / "model.json").read_text())
    assert model["kind"] == "tabular"


def test_identical_invocations_are_byte_identical(small_scenario, tmp_path):
    flags = ["train", "--scenario", str(small_scenario), "--episodes", "50", "--seed", "4"]
    dirs = [tmp_path / "first", tmp_path / "second"]
    for out_dir in dirs:
        assert main(flags + ["--out-dir", str(out_dir)]) == EXIT_OK
    assert (dirs[0] / "episodes.csv").read_bytes() == (dirs[1] / "episodes.csv").read_bytes()
    assert (dirs[0] / "summary.json").read_bytes() == (dirs[1] / "summary.json").read_bytes()


def test_epsilon_out_of_range_is_validation_error(small_scenario, tmp_path, capsys):
    code = main(
        [
            "train", "--scenario", str(small_scenario), "--epsilon", "1.5",
            "--out-dir", str(tmp_path / "x"),
        ]
    )
    assert code == EXIT_VALIDATION
    assert "epsilon" in capsys.readouterr().err


def test_bad_scenario_file_is_validation_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{}")
    assert main(["oracle", "--scenario", str(path)]) == EXIT_VALIDATION
    assert "version" in capsys.readouterr().err


def test_non_finite_capacity_in_scenario_file_is_validation_error(small_scenario, tmp_path, capsys):
    doc = json.loads(small_scenario.read_text())
    doc["vms"][2]["storage_cap"] = math.nan
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    assert main(["oracle", "--scenario", str(path)]) == EXIT_VALIDATION
    assert "vms[2].storage_cap" in capsys.readouterr().err


def test_oracle_json_matches_library(small_scenario, capsys):
    code = main(["oracle", "--scenario", str(small_scenario), "--json"])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    scenario = load(small_scenario)
    expected = solve_exact_matching(AssignmentProblem(scenario.subnet.components, scenario.vms))
    assert doc["objective_value"] == expected.objective_value
    assert doc["pairs"] == {str(c): v for c, v in expected.pairs.items()}


def test_oracle_normalized_mode(small_scenario, capsys):
    code = main(
        ["oracle", "--scenario", str(small_scenario), "--objective", "normalized_surplus", "--json"]
    )
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    scenario = load(small_scenario)
    expected = solve_exact_matching(
        AssignmentProblem(scenario.subnet.components, scenario.vms, ObjectiveMode.NORMALIZED_SURPLUS)
    )
    assert doc["objective_value"] == expected.objective_value


def test_oracle_infeasible_exit_code(tmp_path, capsys):
    doc = scenario_to_dict(generate(7, GenerationParams(num_vms=15)))
    for vm in doc["vms"]:
        vm["compute_cap"] = 1
        vm["storage_cap"] = 1
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(doc))
    assert main(["oracle", "--scenario", str(path)]) == EXIT_INFEASIBLE
    assert "capacity-fit" in capsys.readouterr().err


def test_sweep_sequential_and_parallel_match(small_scenario, tmp_path):
    base = [
        "sweep", "--scenario", str(small_scenario), "--episodes", "30", "--seeds", "2",
    ]
    solo = tmp_path / "solo"
    multi = tmp_path / "multi"
    assert main(base + ["--workers", "1", "--out-dir", str(solo)]) == EXIT_OK
    assert main(base + ["--workers", "2", "--out-dir", str(multi)]) == EXIT_OK
    for seed in (0, 1):
        a = (solo / f"seed-{seed}" / "episodes.csv").read_bytes()
        b = (multi / f"seed-{seed}" / "episodes.csv").read_bytes()
        assert a == b
    assert (solo / "cross_seed_summary.json").read_bytes() == (
        multi / "cross_seed_summary.json"
    ).read_bytes()


def test_compare_prints_metric_table(small_scenario, tmp_path, capsys):
    runs = []
    for variant in ("on-tab", "off-tab", "on-lin", "off-lin"):
        run_dir = tmp_path / variant
        main(
            [
                "train", "--scenario", str(small_scenario), "--variant", variant,
                "--episodes", "30", "--out-dir", str(run_dir),
            ]
        )
        runs.append(str(run_dir))
    capsys.readouterr()
    out_json = tmp_path / "comparison.json"
    code = main(["compare", "--runs", *runs, "--out", str(out_json)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    for column in ("Algorithm", "Average Reward", "Standard Deviation", "Convergence Episode"):
        assert column in out
    assert len([line for line in out.splitlines() if line.strip()]) == 5
    comparison = json.loads(out_json.read_text())
    assert set(comparison["variants"]) == {"on-tab", "off-tab", "on-lin", "off-lin"}


def test_check_infra_reports(small_scenario, capsys):
    assert main(["check-infra", "--scenario", str(small_scenario)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "no substrate placement" in out
    assert "f1 -> vm" in out


def test_unknown_variant_rejected(small_scenario, tmp_path):
    with pytest.raises(SystemExit) as err:
        main(
            [
                "train", "--scenario", str(small_scenario), "--variant", "dqn",
                "--out-dir", str(tmp_path / "x"),
            ]
        )
    assert err.value.code == 2


def _substrate_doc():
    base = generate(4, GenerationParams(num_vms=8, cap_range=(3, 5)))
    scenario = Scenario(
        subnet=base.subnet,
        vms=base.vms,
        seed=4,
        params=base.params,
        pms=(PhysicalMachine(id=1, compute_cap=100, storage_cap=100, max_vm_count=8),),
        placement=VmPlacement(x=((1,),) * 8, pm_active=(True,)),
    )
    return scenario_to_dict(scenario)


@pytest.mark.parametrize(
    "command,section,key,value,field",
    [
        ("oracle", "params", "num_vms", "8", "params.num_vms"),
        ("check-infra", "pms", 0, {"compute_cap": "100"}, "pms[0].compute_cap"),
        ("check-infra", "pms", 0, {"compute_cap": math.nan}, "pms[0].compute_cap"),
        ("check-infra", "placement", "x", 5, "placement.x"),
    ],
    ids=["string-num-vms", "string-pm-capacity", "nan-pm-capacity", "x-not-a-list"],
)
def test_malformed_substrate_fields_are_validation_errors(
    tmp_path, capsys, command, section, key, value, field
):
    doc = _substrate_doc()
    if isinstance(value, dict):
        doc[section][key].update(value)
    else:
        doc[section][key] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--scenario", str(path)]) == EXIT_VALIDATION
    assert field in capsys.readouterr().err


def test_compare_names_a_missing_summary_field(small_scenario, tmp_path, capsys):
    run_dir = tmp_path / "run"
    train = ["train", "--scenario", str(small_scenario), "--episodes", "20"]
    assert main(train + ["--out-dir", str(run_dir)]) == EXIT_OK
    summary = json.loads((run_dir / "summary.json").read_text())
    del summary["average_reward"]
    (run_dir / "summary.json").write_text(json.dumps(summary))
    capsys.readouterr()
    assert main(["compare", "--runs", str(run_dir)]) == EXIT_VALIDATION
    assert "average_reward" in capsys.readouterr().err


def test_capacity_above_the_bound_is_validation_error(small_scenario, tmp_path, capsys):
    doc = json.loads(small_scenario.read_text())
    doc["vms"][4]["compute_cap"] = 1e308
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["oracle", "--scenario", str(path)]) == EXIT_VALIDATION
    assert "vms[4].compute_cap" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_diverging_sweep_exits_3_with_one_error_line(tmp_path, capsys, workers):
    # In a worker process the DivergenceError has to survive pickling back.
    scenario = tmp_path / "scenario.json"
    main(["generate-scenario", "--seed", "81", "--vms", "20", "--out", str(scenario)])
    capsys.readouterr()
    code = main(
        [
            "sweep", "--scenario", str(scenario), "--variant", "off-lin", "--alpha", "1",
            "--epsilon", "0", "--seeds", "2", "--workers", workers,
            "--out-dir", str(tmp_path / "sweep"),
        ]
    )
    assert code == EXIT_INFEASIBLE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: weight magnitude exceeded")


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--scenario", "s.json", "--out-dir", "out", "--seeds", "0"],
        ["sweep", "--scenario", "s.json", "--out-dir", "out", "--workers", "0"],
        ["serve", "--port", "70000"],
        ["serve", "--port", "-1"],
    ],
    ids=["zero-seeds", "zero-workers", "port-above-65535", "negative-port"],
)
def test_out_of_range_counts_and_ports_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "must be" in capsys.readouterr().err
