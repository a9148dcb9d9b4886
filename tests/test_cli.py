import contextlib
import io
import json
import math
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vnfcmap
from vnfcmap import agents, cli
from vnfcmap.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_VALIDATION, main
from vnfcmap.infra import VmPlacement
from vnfcmap.metrics import CSV_COLUMNS
from vnfcmap.model import PhysicalMachine, VirtualMachine, make_slice
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


@pytest.mark.parametrize(
    "command, flag, target",
    [
        ("generate-scenario", "--out", "missing/s.json"),
        ("generate-scenario", "--out", "."),
        ("train", "--out-dir", "a-file"),
        ("sweep", "--out-dir", "a-file"),
    ],
    ids=["missing-directory", "a-directory", "train-into-a-file", "sweep-into-a-file"],
)
def test_unwritable_output_path_is_validation_error(
    small_scenario, tmp_path, capsys, monkeypatch, command, flag, target
):
    (tmp_path / "a-file").write_text("")
    path = str(tmp_path / target)
    if command in ("train", "sweep"):
        # Refused before the first episode.
        monkeypatch.setattr(agents, "train", pytest.fail)
        argv = [command, "--scenario", str(small_scenario), flag, path]
        argv += ["--workers", "1"] if command == "sweep" else []
    else:
        argv = [command, "--seed", "3", "--vms", "12", flag, path]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(tmp_path) in err


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


# Runs in a fresh interpreter, which has loaded nothing the test process has.
_LIGHT_THEN_ORACLE = """
import contextlib, io, json, sys
from vnfcmap import cli

codes = []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(cli.main(["generate-scenario", "--seed", "1", "--out", "scenario.json"]))
    codes.append(cli.main(["train", "--scenario", "scenario.json", "--episodes", "20", "--out-dir", "run"]))
    codes.append(cli.main(["compare", "--runs", "run"]))
    try:
        cli.main(["--help"])
    except SystemExit as exc:
        codes.append(exc.code)
def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy" or m == "http.server")

light = loaded()
with contextlib.redirect_stdout(io.StringIO()) as out:
    codes.append(cli.main(["oracle", "--scenario", "scenario.json", "--json"]))
print(json.dumps({
    "codes": codes,
    "light": light,
    "oracle_loads": loaded(),
    "oracle": json.loads(out.getvalue()),
}))
"""


def test_only_solving_commands_load_scipy(tmp_path):
    # The light commands load no scipy module at all, and oracle loads only
    # the solver's extension module, not scipy.optimize or even scipy.
    src = str(Path(vnfcmap.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", _LIGHT_THEN_ORACLE],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    run = json.loads(result.stdout)
    assert run["codes"] == [EXIT_OK] * 5
    assert run["light"] == []
    assert run["oracle_loads"] == ["scipy.optimize._lsap"]
    inst = load(tmp_path / "scenario.json")
    expected = solve_exact_matching(AssignmentProblem(inst.subnet.components, inst.vms))
    assert run["oracle"]["objective_value"] == expected.objective_value
    assert run["oracle"]["pairs"] == {str(c): v for c, v in expected.pairs.items()}


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


def _usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def test_sweep_sequential_and_parallel_match(small_scenario, tmp_path, monkeypatch):
    _usable_cpus(monkeypatch, 2)
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


def test_sweep_starts_no_more_workers_than_usable_cpus(small_scenario, tmp_path, monkeypatch):
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("one usable CPU must not start a worker process")

    _usable_cpus(monkeypatch, 1)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", NoPool)
    base = ["sweep", "--scenario", str(small_scenario), "--episodes", "20", "--seeds", "3"]
    capped, solo = tmp_path / "capped", tmp_path / "solo"
    assert main(base + ["--workers", "3", "--out-dir", str(capped)]) == EXIT_OK
    assert main(base + ["--workers", "1", "--out-dir", str(solo)]) == EXIT_OK
    written = sorted(p.relative_to(solo) for p in solo.rglob("*"))
    assert written == sorted(p.relative_to(capped) for p in capped.rglob("*"))
    for name in written:
        if (solo / name).is_file():
            assert (solo / name).read_bytes() == (capped / name).read_bytes()


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
    path = tmp_path / "huge.json"
    # Beyond 2**53 an integer has no exact float.
    for capacity in (1e308, 2**53 + 1):
        doc["vms"][4]["compute_cap"] = capacity
        path.write_text(json.dumps(doc))
        assert main(["oracle", "--scenario", str(path)]) == EXIT_VALIDATION
        assert "vms[4].compute_cap" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_diverging_sweep_exits_3_with_one_error_line(tmp_path, capsys, monkeypatch, workers):
    # In a worker process the DivergenceError has to survive pickling back.
    _usable_cpus(monkeypatch, 2)
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


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_too_few_episodes_is_a_usage_error_before_training(
    small_scenario, tmp_path, capsys, command
):
    out_dir = tmp_path / "run"
    with pytest.raises(SystemExit) as err:
        main(
            [
                command, "--scenario", str(small_scenario), "--episodes", "19",
                "--out-dir", str(out_dir),
            ]
        )
    assert err.value.code == 2
    assert "--episodes: must be in 20.." in capsys.readouterr().err
    assert not out_dir.exists()


_ADDRESS_LIMITED_CLI = """
import resource, sys
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from vnfcmap.cli import main
sys.exit(main(sys.argv[2:]))
"""


def _cli_with_address_limit(argv, cwd, limit=512 * 2**20):
    """Run the CLI in a child process whose address space is capped at
    ``limit`` bytes, so that an allocation the CLI should have refused fails
    there at once instead of taking gigabytes. One BLAS thread keeps numpy's
    own reservation small on a host with many CPUs."""
    src = str(Path(vnfcmap.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", _ADDRESS_LIMITED_CLI, str(limit), *argv],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("vms", [cli.MAX_GENERATED_VMS + 1, 10**8], ids=["bound-plus-one", "1e8"])
def test_generating_more_vms_than_the_bound_is_a_usage_error(tmp_path, vms):
    result = _cli_with_address_limit(
        ["generate-scenario", "--seed", "1", "--vms", str(vms), "--out", "big.json"], tmp_path
    )
    assert result.returncode == EXIT_VALIDATION, result.stderr
    assert f"--vms: must be in 8..{cli.MAX_GENERATED_VMS}, got {vms}" in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "big.json").exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_tabular_tables_beyond_the_budget_are_refused_before_allocation(tmp_path, command):
    # 8 x 4,000 x 4,000 entries: 977 MiB a table, far above the child's limit.
    save(generate(3, GenerationParams(num_vms=4000)), tmp_path / "big.json")
    argv = [command, "--scenario", "big.json", "--episodes", "20", "--out-dir", "run"]
    result = _cli_with_address_limit(argv, tmp_path)
    assert result.returncode == EXIT_VALIDATION, result.stderr
    assert result.stderr.startswith("error: --variant off-tab: a scenario of 4000 vms ")
    assert result.stderr.count("\n") == 1, result.stderr
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("variant", ["on-tab", "off-tab", "on-lin", "off-lin"])
def test_the_table_budget_binds_tabular_variants_only(
    small_scenario, tmp_path, capsys, monkeypatch, variant
):
    # small_scenario has 15 machines: 8 x 15 x 15 = 1,800 entries a table.
    argv = ["train", "--scenario", str(small_scenario), "--variant", variant, "--episodes", "20"]
    monkeypatch.setattr(cli, "MAX_TABLE_ENTRIES", 1800)
    assert main(argv + ["--out-dir", str(tmp_path / "at")]) == EXIT_OK
    monkeypatch.setattr(cli, "MAX_TABLE_ENTRIES", 1799)
    code = main(argv + ["--out-dir", str(tmp_path / "above")])
    if variant.endswith("-tab"):
        assert code == EXIT_VALIDATION
        assert f"error: --variant {variant}: a scenario of 15 vms " in capsys.readouterr().err
        assert not (tmp_path / "above").exists()
    else:
        assert code == EXIT_OK


def test_linear_training_runs_on_15000_machines(tmp_path):
    save(generate(1, GenerationParams(num_vms=15000)), tmp_path / "big.json")
    argv = ["train", "--scenario", str(tmp_path / "big.json"), "--variant", "off-lin"]
    assert main(argv + ["--episodes", "20", "--out-dir", str(tmp_path / "run")]) == EXIT_OK
    assert json.loads((tmp_path / "run" / "model.json").read_text())["num_vms"] == 15000


def test_serve_on_a_port_in_use_is_a_validation_error():
    # A fresh interpreter with a timeout: a server that did bind would serve forever.
    src = str(Path(vnfcmap.__file__).resolve().parents[1])
    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen()
        result = subprocess.run(
            [sys.executable, "-m", "vnfcmap.cli", "serve", "--port", str(holder.getsockname()[1])],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
    assert result.returncode == EXIT_VALIDATION, result.stderr
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, result.stderr
    assert result.stdout == ""


def _two_pm_scenario(tmp_path, pm_of_vm):
    """Nine machines on two PMs, of which PM 2 may host one; machine 1 exactly
    fits f1, so the slice has a saturated placement."""
    subnet = make_slice([4, 3, 3, 2, 2, 2, 2, 2], [3, 3, 3, 2, 2, 2, 1, 1])
    vms = (VirtualMachine(1, 4, 3),) + tuple(VirtualMachine(j, 5, 5) for j in range(2, 10))
    pms = (PhysicalMachine(1, 40, 40, max_vm_count=8), PhysicalMachine(2, 9, 9, max_vm_count=1))
    placement = VmPlacement(
        x=tuple((int(pm == 1), int(pm == 2)) for pm in pm_of_vm), pm_active=(True, True)
    )
    path = tmp_path / "substrate.json"
    save(Scenario(subnet=subnet, vms=vms, pms=pms, placement=placement), path)
    return path


_SLICE_REPORT = """\
f1 -> vm 1: saturated (a resource axis at 100%)
f2 -> vm 2: workload 6.2500
f3 -> vm 3: workload 6.2500
f4 -> vm 4: workload 2.7778
f5 -> vm 5: workload 2.7778
f6 -> vm 6: workload 2.7778
f7 -> vm 7: workload 2.0833
f8 -> vm 8: workload 2.0833
slice workload skipped: 1 saturated placement(s)
"""


@pytest.mark.parametrize(
    "pm_of_vm,report",
    [
        (
            (1,) * 8 + (2,),
            "placement violations: none\n"
            "pm 1: 8 vms, workload 800.0000, idle fraction 0.0375\n"
            "pm 2: 1 vms, workload 5.0625, idle fraction 0.4444\n",
        ),
        (
            (1,) * 7 + (2, 2),
            "placement violations (3):\n"
            "  [pm-vm-count] #2: 2 vms exceed limit 1\n"
            "  [pm-compute-capacity] #2: compute demand 10 exceeds 9\n"
            "  [pm-storage-capacity] #2: storage demand 10 exceeds 9\n"
            "pm 1: 7 vms, workload 38.0952, idle fraction 0.1625\n"
            "pm 2: overloaded (compute load 1.1111111111111112 is at or above 100%)\n",
        ),
    ],
    ids=["rules-kept", "pm-2-overloaded"],
)
def test_check_infra_reports_the_substrate(tmp_path, capsys, pm_of_vm, report):
    path = _two_pm_scenario(tmp_path, pm_of_vm)
    assert main(["check-infra", "--scenario", str(path)]) == EXIT_OK
    expected = "scenario: 9 vms, 2 pms\n" + report + _SLICE_REPORT
    assert capsys.readouterr().out == expected


def test_check_infra_reports_a_pm_overcommitted_by_rounding(tmp_path, capsys):
    # PM 1's four machines sum to compute 3.0000000000000004 against a
    # capacity of 3, while their load fractions sum to 0.9999999999999999:
    # below 100%, so only the summed amounts show the overcommitment.
    caps = (0.6864106804389194, 0.5549792526936609, 1.155163064285101, 0.6034470025823188)
    vms = tuple(VirtualMachine(j + 1, c, 1) for j, c in enumerate(caps))
    vms += tuple(VirtualMachine(j, 4, 4) for j in range(5, 13))
    pms = (PhysicalMachine(1, 3, 8, max_vm_count=4), PhysicalMachine(2, 100, 100, max_vm_count=8))
    placement = VmPlacement(
        x=tuple((int(j < 4), int(j >= 4)) for j in range(12)), pm_active=(True, True)
    )
    path = tmp_path / "overcommitted.json"
    subnet = make_slice([2, 2, 2, 1, 1, 1, 1, 1], [2, 2, 2, 1, 1, 1, 1, 1])
    save(Scenario(subnet=subnet, vms=vms, pms=pms, placement=placement), path)
    assert main(["check-infra", "--scenario", str(path)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:6] == [
        "placement violations (1):",
        "  [pm-compute-capacity] #1: compute demand 3.0000000000000004 exceeds 3",
        "pm 1: overloaded (compute demand 3.0000000000000004 exceeds 3)",
        "pm 2: 8 vms, workload 2.1626, idle fraction 0.6800",
        "f1 -> vm 5: workload 4.0000",
    ]
    assert lines[-1] == "slice workload skipped: 1 saturated placement(s)"


# Keys and strings a scenario file holds, so that drawn documents reach past
# the first missing or unknown field.
_SCENARIO_KEYS = (
    "version", "seed", "params", "num_vms", "req_range", "cap_range", "slice", "components",
    "id", "kind", "compute_req", "storage_req", "vms", "compute_cap", "storage_cap", "pms",
    "max_vm_count", "active", "placement", "x", "pm_active",
)
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from(["RRC", "PHY_HIGH"])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_SCENARIO_KEYS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)
_SCENARIO_DOCUMENTS = _JSON_VALUES | st.fixed_dictionaries(
    {"version": st.just(1) | _JSON_VALUES},
    optional={key: _JSON_VALUES for key in ("seed", "params", "slice", "vms", "pms", "placement")},
)


@st.composite
def _near_valid_scenario_files(draw):
    """A scenario with 8 or 9 machines, one or two PMs and a placement, which
    keeps the substrate rules when the PMs are roomy and active, with up to three of its
    values, at any depth, deleted or replaced by any JSON value."""
    base = generate(draw(st.integers(0, 3)), GenerationParams(num_vms=draw(st.integers(8, 9))))
    roomy = draw(st.booleans())
    pms = tuple(
        PhysicalMachine(
            id=k + 1,
            compute_cap=100 if roomy else draw(st.integers(1, 80)),
            storage_cap=100 if roomy else draw(st.integers(1, 80)),
            max_vm_count=9 if roomy else draw(st.integers(1, 9)),
            active=draw(st.booleans()),
        )
        for k in range(draw(st.integers(1, 2)))
    )
    hosts = [draw(st.integers(0, len(pms) - 1)) for _ in base.vms]
    placement = VmPlacement(
        x=tuple(tuple(int(k == host) for k in range(len(pms))) for host in hosts),
        pm_active=tuple(roomy or draw(st.booleans()) for _ in pms),
    )
    doc = scenario_to_dict(
        Scenario(base.subnet, base.vms, base.seed, base.params, pms=pms, placement=placement)
    )
    for _ in range(draw(st.integers(0, 3))):
        target = doc
        while True:
            keys = list(target) if isinstance(target, dict) else list(range(len(target)))
            key = draw(st.sampled_from(keys))
            descend = draw(st.integers(0, 3)) > 0
            if isinstance(target[key], (dict, list)) and target[key] and descend:
                target = target[key]
            elif draw(st.booleans()):
                del target[key]
                break
            else:
                target[key] = draw(_JSON_VALUES)
                break
    return doc


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("scenario-file")


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_near_valid_scenario_files() | _SCENARIO_DOCUMENTS)
def test_any_scenario_file_exits_0_2_or_3(scenario_dir, doc):
    path = scenario_dir / "scenario.json"
    path.write_text(json.dumps(doc))
    for command in ("oracle", "check-infra"):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--scenario", str(path)])
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_INFEASIBLE), command
