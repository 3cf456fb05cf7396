import json
import subprocess
import sys

import pytest

PY = [sys.executable, "-m", "hurwitztau.cli"]


def run_cli(*argv):
    return subprocess.run(PY + list(argv), capture_output=True, text=True)


def test_hurwitz_belyi_verify_routes_exit_zero():
    proc = run_cli("hurwitz", "--family", "belyi", "--N", "3", "--dmax", "2", "--verify-routes")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["result"]["route_verification"]["ok"] is True


def test_hurwitz_exp_contains_benchmark_entry():
    proc = run_cli("hurwitz", "--family", "exp", "--N", "2", "--dmax", "3")
    payload = json.loads(proc.stdout)
    rows = payload["result"]["entries"]
    match = [r for r in rows if r["mu"] == [2] and r["nu"] == [1, 1] and r["d"] == 1]
    assert match and match[0]["value"] == "1/2"


def test_weight_mismatch_entries_absent():
    proc = run_cli("hurwitz", "--family", "belyi", "--N", "2", "--dmax", "2")
    payload = json.loads(proc.stdout)
    for row in payload["result"]["entries"]:
        assert sum(row["mu"]) == sum(row["nu"]) == 2


def test_curve_belyi():
    proc = run_cli("curve", "--family", "belyi", "--s", "1", "--format", "json")
    payload = json.loads(proc.stdout)
    entries = {tuple(e["key"]): e["value"] for e in payload["result"]["polynomial"]}
    assert entries == {(1, 1): "1", (1, 0): "-1", (2, 1): "-1"}


def test_kernel_finiteness_flag():
    proc = run_cli(
        "kernel", "--family", "belyi", "--beta", "1/21", "--s", "1/21",
        "--check-finiteness", "--format", "csv",
    )
    assert proc.returncode == 0
    assert "cd,True" in proc.stdout


def test_cutjoin_resolve_index():
    proc = run_cli("cutjoin", "--family", "exp", "--resolve-index", "--wmax", "3")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["result"]["exponential_index"]["matching_index"] == [1]


def test_config_error_exit_code():
    proc = run_cli("hurwitz", "--family", "quantum", "--N", "2")  # missing --q
    assert proc.returncode == 1


def test_basis_beta_zero_is_config_error():
    proc = run_cli("basis", "--family", "belyi", "--beta", "0")
    assert proc.returncode == 1
    assert proc.stderr.strip().splitlines() == ["configuration error: beta must be nonzero"]


def test_resource_error_exit_code():
    proc = run_cli("hurwitz", "--family", "belyi", "--N", "11", "--dmax", "1")
    assert proc.returncode == 2


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"N": 2, "dmax": 1, "family": "exp"}))
    # flag overrides the file; file fills the rest
    proc = run_cli("hurwitz", "--config", str(cfg), "--dmax", "2")
    payload = json.loads(proc.stdout)
    assert payload["config"]["N"] == 2
    assert payload["config"]["dmax"] == 2
    assert payload["config"]["family"] == "exp"


@pytest.mark.parametrize(
    "argv",
    [
        ("hurwitz", "--family", "belyi", "--N", "3", "--dmax", "2"),
        ("tau", "--family", "exp", "--wmax", "4", "--dmax", "2", "--probe", "2"),
        ("basis", "--family", "belyi"),
        ("curve", "--family", "finite", "--c", "1,1/2", "--s", "1,1/3"),
        ("cutjoin", "--family", "belyi", "--wmax", "3", "--dmax", "2"),
    ],
    ids=["hurwitz", "tau", "basis", "curve", "cutjoin"],
)
def test_golden_determinism(argv, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    p1 = run_cli(*argv, "--out", str(out1))
    p2 = run_cli(*argv, "--out", str(out2))
    assert p1.returncode == 0 and p2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
