import argparse
import errno
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hurwitztau
from hurwitztau import cli, correlators
from hurwitztau.exactalg import BRing

PY = [sys.executable, "-m", "hurwitztau.cli"]


def run_cli(*argv):
    return subprocess.run(PY + list(argv), capture_output=True, text=True)


def test_hurwitz_belyi_verify_routes_exit_zero():
    proc = run_cli("hurwitz", "--family", "belyi", "--N", "3", "--dmax", "2", "--verify-routes")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["result"]["route_verification"]["ok"] is True


def test_route_verification_reports_its_window():
    # at N 5, d_max 4 the routes are compared only on N <= 4, d <= 3
    proc = run_cli("hurwitz", "--family", "exp", "--N", "5", "--dmax", "4", "--verify-routes")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)["result"]["route_verification"]
    assert (report["ok"], report["n_max"], report["d_max"]) == (True, 4, 3)


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
    assert proc.returncode == 0
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


def test_cutjoin_single_hurwitz_rep_for_cubic_g(capsys):
    assert cli.main(["cutjoin", "--family", "finite", "--c", "1,1/2,1/3"]) == 0
    rep = json.loads(capsys.readouterr().out)["result"]["single_hurwitz_rep"]
    assert rep == {"M": 3, "failing_sectors": [], "ok": True}


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


def _load_bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_bench_job_runs():
    # bench/tracing.py wraps src hooks it finds by name (symfun._character and
    # _h_list_cached, LaurentWindow.mul, GradedPoly.log): a rename fails here
    root = Path(__file__).resolve().parents[1]
    job = {"kind": "cli",
           "argv": ["hurwitz", "--family", "exp", "--N", "3", "--dmax", "2", "--verify-routes"]}
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "tracing.py"), json.dumps(job)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout)
    assert traced["exit"] == 0 and traced["ok"] is True


# SHA-256 of each report's canonical ``result``, as the benchmark digests it,
# recorded from an earlier commit: a change to any report's content fails here
PINNED_RESULT_DIGESTS = {
    "basis --family belyi":
        "64338464189b407a77e1c8f7ee259c892f92e7a652854bc0738a2de34842793d",
    "basis --family finite --c 1,1/2 --beta 1/23 --s 1/23":
        "f187d0b758f5c7722bc9f7e1cb64a26d9e6c98fbcd0015753ad9659aac607075",
    "basis --family signed --beta 1/21 --s 1/21":
        "a98f2e75749c9a727e756ed8597592aa3df09f74278a1cec028e81db44306f10",
    "basis --family exp --beta series --sigma 1/2 --k-lo -2 --k-hi 3 --depth -8 --dmax 4":
        "c85fa8180ac874afca69db2770cc7d5b18042b7f9b257fe843de58813711b414",
    "kernel --family belyi --beta 1/21 --s 1/21 --check-finiteness":
        "c63e79f3a5e931db1c6f77a362557caa896823009d203aec709385c003973440",
    "kernel --family belyi --beta series --sigma 1/2 --dmax 3 --check-finiteness":
        "dd406fab8719e77627a7b44c30d4272712bdceca184815b8fdd0df6871c75f11",
    "kernel --family signed --beta 1/19 --s 1/19 --window=-6,-1,-5,5":
        "b3225ab86c1f5b78d2f39cd6a6282e030ffdb558fefa9197ee3cc093e3f2db88",
    "kernel --family quantum --q 1/3 --beta series --sigma 1/5 --gamma 2 --dmax 3":
        "83143efbe64ff40a9762d8929d9675f296b1660b0504fad86e7d0360abc85922",
    "kernel --family finite --c 1,1/2 --beta series --sigma 2,1/3 --dmax 2 --check-finiteness":
        "ffae077360d19f1643cf2aa4d4969cde673766d6ea779ab30f497747b26ceea5",
    "kernel --family exp --beta series --sigma 1/2 --dmax 3":
        "4e5e6055ec43ce170ebddcb13933fbe12ea2abfc31198947684a2780bbd7f8b3",
    "hurwitz --family exp --N 6 --dmax 4":
        "d3edcde65ca33370d9328774dee013d2f9ff0f135f2c03bd8403ed699fc110c8",
    "hurwitz --family quantum --q 1/2 --N 5 --dmax 3 --connected":
        "cfcb97fbeefb69a1ac24b34d29c87b9712f337826ab29e351eea838b8f6395ff",
    "tau --family belyi --wmax 6 --dmax 3 --probe 3":
        "5b593e8f8cedd9eb164c42987d830c78ce3e5edfed387d5f21b2c5ee2fa59b5b",
    "cutjoin --family finite --c 1,1/2 --wmax 5 --dmax 4":
        "90ffcb93d9ff73bf6174259cc8d45e325b88bb829ab9ef37c0b4db88594a59a6",
    "cutjoin --family exp --wmax 4 --dmax 3 --resolve-index":
        "9704ee607479f99c0604daeed4fbabddb76a31661206f8d2b35e26012774613e",
}


@pytest.mark.parametrize("command", list(PINNED_RESULT_DIGESTS))
def test_pinned_result_digest(command, capsys):
    assert cli.main(command.split()) == 0
    digest = _load_bench_workloads().result_digest(capsys.readouterr().out)
    assert digest == PINNED_RESULT_DIGESTS[command]


# canonical digest of the verify sweep's report for each of its parameter
# sets, keyed by the set's q and recorded from an earlier commit
PINNED_SWEEP_DIGESTS = {
    "1/2": "f0ea8b1b0fc03e0334553d6c1274c7a0a62ebc597fb971e7fd86ea39abdb365f",
    "1/3": "f09af50f713bc0b1d196bb4116eb0b8a9594b40e510db859a1a0099522861a39",
    "2/3": "517976d865afed67f33b780e81319a2adf98a594c7c0f5c056399ef1fa3df1fd",
    "1/4": "c27ee64c201a6a2d9dd1f2a281ccb2c654f1c191337d9d1ca81d752366bc7d11",
}


@pytest.mark.parametrize(
    "params", _load_bench_workloads().SWEEP_PARAMS, ids=lambda p: f"q={p['q']}"
)
def test_pinned_sweep_digest(params):
    workloads = _load_bench_workloads()
    report = workloads.run_sweep(params)
    assert workloads.all_ok(report)
    assert workloads.canonical_digest(report) == PINNED_SWEEP_DIGESTS[params["q"]]


def test_series_kernel_compares_gen_A_in_series(monkeypatch, capsys):
    # a series-mode A_11 off by beta^dmax must fail the gen_A comparison
    cd_matrix = correlators.cd_matrix

    def off_by_beta_power(family, beta_val, sigma, bounds, d_max=None):
        A = cd_matrix(family, beta_val, sigma, bounds, d_max=d_max)
        if beta_val is None:
            A[(1, 1)] = A[(1, 1)] + BRing(d_max).beta_power(d_max)
        return A

    argv = ["kernel", "--family", "belyi", "--beta", "series", "--sigma", "1/2",
            "--dmax", "3", "--check-finiteness"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"]["gen_A_matches"]["ok"] is True
    monkeypatch.setattr(correlators, "cd_matrix", off_by_beta_power)
    assert cli.main(argv) == 3
    assert json.loads(capsys.readouterr().out)["result"]["gen_A_matches"]["ok"] is False


def assert_config_error(proc):
    assert proc.returncode == 1
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error: "), proc.stderr


def test_kernel_bad_window_is_config_error():
    # zlo > zhi or wlo > whi: an empty window would compare no cell at all
    for window in ("a,b,c,d", "0,-5,3,-3", "-1,-5,-4,4", "-5,-1,4,-4"):
        assert_config_error(run_cli("kernel", f"--window={window}"))


@pytest.mark.parametrize("argv", [
    ("--window=1,1,1,1",),
    ("--window=1,1,1,1", "--check-finiteness"),
    ("--family", "finite", "--c", "1,1/2", "--s", "1/21,1/50", "--window=-1,-1,-1,-1"),
    ("--family", "finite", "--c", "1,1/2", "--s", "1/21,1/50", "--window=-1,-1,-1,-1",
     "--check-finiteness"),
    ("--window=0,2,0,2", "--check-finiteness"),
    ("--window=-5,-1,5,6", "--check-finiteness"),
], ids=["above-zero", "above-zero-cd", "finite-pole", "finite-pole-cd", "z-positive-cd",
        "w-high-cd"])
def test_kernel_accepts_every_nonempty_window(argv, monkeypatch, capsys):
    # the basis window follows the kernel window and, under --check-finiteness,
    # the CD rank; the CD identity is checked on a nonempty window, and the
    # basis is built once, already reaching k = 1 - LM (finite-pole-cd)
    cd_windows, k_ranges = [], []
    cd_kernel, build_basis = correlators.cd_kernel, cli.adaptedbasis.build_basis

    def recording_cd_kernel(b, window):
        cd_windows.append(window)
        return cd_kernel(b, window)

    def recording_build_basis(*args, **kw):
        k_ranges.append(kw["k_range"])
        return build_basis(*args, **kw)

    monkeypatch.setattr(correlators, "cd_kernel", recording_cd_kernel)
    monkeypatch.setattr(cli.adaptedbasis, "build_basis", recording_build_basis)
    assert cli.main(["kernel", *argv]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["kernel_routes_equal"]["ok"] is True
    assert len(k_ranges) == 1
    if "--check-finiteness" in argv:
        assert result["cd"]["ok"] is True
        [(zlo, zhi, wlo, whi)] = cd_windows
        assert zlo <= zhi and wlo <= whi


@pytest.mark.parametrize(
    "argv", [("--s", ""), ("--family", "finite", "--c", "")], ids=["no-s", "no-c"]
)
def test_basis_band_zero(argv, capsys):
    # L M = 0: the recursion z w_{1-i} = gamma Q_{i,i-1} w_{2-i} has one term
    assert cli.main(["basis", *argv]) == 0
    recursion = json.loads(capsys.readouterr().out)["result"]["recursion_Q"]
    assert recursion["band"] == 0 and recursion["ok"] and recursion["checks"] > 0


@pytest.mark.parametrize(
    "content",
    ['{"N": "3"}', '{"dmax": 1.5}', '{"N": -1}', "[1, 2]", '{"family": "nope"}',
     '{"connected": 1}', '{"func": "x"}', "{not json"],
    ids=["string-int", "float-int", "negative", "list", "bad-choice", "int-switch",
         "unknown-key", "not-json"],
)
def test_bad_config_file_is_config_error(content, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(content)
    assert_config_error(run_cli("hurwitz", "--config", str(cfg)))


def test_missing_config_file_is_config_error(tmp_path):
    assert_config_error(run_cli("hurwitz", "--config", str(tmp_path / "absent.json")))


def test_out_into_missing_directory_is_config_error(tmp_path):
    out = tmp_path / "absent" / "report.json"
    assert_config_error(run_cli("hurwitz", "--N", "2", "--out", str(out)))


@pytest.mark.parametrize(
    "argv",
    [("hurwitz", "--N", "-1"), ("tau", "--wmax", "-1"), ("tau", "--dmax", "-1"),
     ("tau", "--probe", "-1")],
    ids=["N", "wmax", "dmax", "probe"],
)
def test_negative_flag_is_config_error(argv):
    assert_config_error(run_cli(*argv))


@pytest.mark.parametrize("wmax", ["0", "1"])
def test_cutjoin_below_weight_two_is_config_error(wmax):
    # Q_1 and Q_2 act only from weight 2: a smaller window would check nothing
    proc = run_cli("cutjoin", "--family", "belyi", "--wmax", wmax)
    assert_config_error(proc)
    assert "--wmax >= 2" in proc.stderr


@pytest.mark.parametrize(
    "argv,needs",
    [(("--wmax", "0"), "--wmax >= 1"), (("--wmax", "4", "--probe", "3"), "--wmax >= 6")],
    ids=["weight-0", "probe-too-deep"],
)
def test_tau_vacuous_window_is_config_error(argv, needs, monkeypatch, capsys):
    # refused before any compute: build_tau must not run
    def refuse(*args, **kw):
        raise AssertionError("build_tau ran")

    monkeypatch.setattr(cli.taufn, "build_tau", refuse)
    assert cli.main(["tau", *argv]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: ") and needs in err[0]


def test_out_replaces_target_whole(tmp_path):
    target = tmp_path / "report.json"
    target.write_text("x" * 100000)
    assert cli.main(["hurwitz", "--N", "2", "--dmax", "1", "--out", str(target)]) == 0
    assert json.loads(target.read_text())["config"]["N"] == 2
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_failed_replace_keeps_old_out_and_no_temporary(tmp_path, monkeypatch, capsys):
    target = tmp_path / "report.json"
    target.write_text("old report\n")

    def refuse(src, dst):
        raise OSError(errno.EACCES, "Permission denied")

    monkeypatch.setattr(cli.os, "replace", refuse)
    assert cli.main(["hurwitz", "--N", "2", "--dmax", "1", "--out", str(target)]) == 1
    assert target.read_text() == "old report\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    assert capsys.readouterr().err == (
        f"configuration error: cannot write --out {target}: Permission denied\n"
    )


def test_out_through_symlink_keeps_the_link(tmp_path):
    real = tmp_path / "real.json"
    real.write_text("old\n")
    link = tmp_path / "link.json"
    link.symlink_to(real)
    assert cli.main(["hurwitz", "--N", "1", "--dmax", "1", "--out", str(link)]) == 0
    assert link.is_symlink()
    assert json.loads(real.read_text())["config"]["N"] == 1


# one cheap run of every subcommand
CHEAP_RUNS = {
    "hurwitz": ["--N", "1", "--dmax", "1"],
    "tau": ["--wmax", "1", "--dmax", "0"],
    "basis": ["--k-lo", "0", "--k-hi", "1", "--depth", "-2"],
    "kernel": ["--window=-2,-1,-2,1"],
    "curve": [],
    "cutjoin": ["--wmax", "2", "--dmax", "1"],
}


def test_config_records_every_flag_and_the_version(capsys):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(CHEAP_RUNS)
    for command, argv in CHEAP_RUNS.items():
        assert cli.main([command, *argv]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        flags = {a.dest for a in sub.choices[command]._actions}
        flags -= {"help", "format", "out", "config"}
        assert flags <= set(config), (command, flags - set(config))
        assert config["version"] == hurwitztau.__version__


def test_version_has_one_source():
    # pyproject.toml reads the package version off hurwitztau.__version__, the
    # version every report's config carries, so the two cannot drift apart
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        pyproject = tomllib.load(fh)
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    dynamic = pyproject["tool"]["setuptools"]["dynamic"]
    assert dynamic["version"] == {"attr": "hurwitztau.__version__"}
    # a plain string literal, which setuptools reads without importing the package
    init = (root / "src" / "hurwitztau" / "__init__.py").read_text(encoding="utf-8")
    assert f'__version__ = "{hurwitztau.__version__}"\n' in init


def test_series_basis_runs_differ_in_config_hash(capsys):
    hashes = set()
    for sigma, dmax in (("1/2", "4"), ("1/3", "2")):
        argv = ["basis", "--family", "exp", "--beta", "series", "--sigma", sigma,
                "--dmax", dmax, "--k-lo", "-2", "--k-hi", "3", "--depth", "-8"]
        assert cli.main(argv) == 0
        hashes.add(json.loads(capsys.readouterr().out)["config_hash"])
    assert len(hashes) == 2


def test_format_text_is_refused():
    proc = run_cli("hurwitz", "--N", "1", "--format", "text")
    assert proc.returncode == 1 and proc.stdout == ""


def _refuse(name):
    def refuse(*args, **kw):
        raise AssertionError(f"{name} ran")

    return refuse


def test_cutjoin_dmax_zero_refused_before_compute(monkeypatch, capsys):
    # cut-and-join needs beta, and d_max 0 cannot represent it
    for name in ("schur_eigen_check", "build_tau"):
        monkeypatch.setattr(cli.cutjoin, name, _refuse(name))
    assert cli.main(["cutjoin", "--wmax", "3", "--dmax", "0"]) == 1
    assert capsys.readouterr().err == "configuration error: cutjoin needs --dmax >= 1, got 0\n"


@pytest.mark.parametrize("family", ["signed", "exp"])
def test_kernel_finiteness_of_non_polynomial_family_refused_before_compute(
    family, monkeypatch, capsys
):
    monkeypatch.setattr(cli.adaptedbasis, "build_basis", _refuse("build_basis"))
    assert cli.main(["kernel", "--family", family, "--check-finiteness"]) == 1
    assert capsys.readouterr().err == (
        "configuration error: --check-finiteness needs a polynomial family\n"
    )


def test_route_verification_at_weight_zero_refused_before_compute(monkeypatch, capsys):
    # at N 0 verify_routes would compare no entry and report ok
    for name in ("build_table", "verify_routes"):
        monkeypatch.setattr(cli.hurwitz, name, _refuse(name))
    assert cli.main(["hurwitz", "--N", "0", "--verify-routes"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: ")
    assert "--verify-routes needs --N >= 1, got 0" in err[0]


def test_dmax_above_cap_refused_before_compute(monkeypatch, capsys):
    # every beta-series holds d_max + 1 coefficients: 10^8 would never finish
    monkeypatch.setattr(cli.hurwitz, "build_table", _refuse("build_table"))
    assert cli.main(["hurwitz", "--family", "exp", "--N", "3", "--dmax", "100000000"]) == 2
    assert capsys.readouterr().err == (
        f"resource error: --dmax cap exceeded: 100000000 > {cli.DMAX_CAP}\n"
    )
    monkeypatch.undo()
    assert cli.main(["hurwitz", "--N", "1", "--dmax", str(cli.DMAX_CAP)]) == 0


# the compute entry points of each command, none of which may run on a refused flag
ENTRY_POINTS = {
    "hurwitz": [(cli.hurwitz, "build_table"), (cli.hurwitz, "H_via_characters")],
    "tau": [(cli.taufn, "build_tau"), (cli.taufn, "hirota_residual")],
    "basis": [(cli.adaptedbasis, "build_basis")],
    "kernel": [(cli.adaptedbasis, "build_basis"), (cli.correlators, "K2_via_tau")],
    "cutjoin": [(cli.cutjoin, name) for name in
                ("schur_eigen_check", "reconstruct_tau", "pde_check",
                 "build_Vk_and_single_rep")],
}


@pytest.mark.parametrize(
    "argv,message",
    [
        (["hurwitz", "--N", "80"], "--N cap exceeded: 80 > 10"),
        (["tau", "--wmax", "100000"], "--wmax cap exceeded: 100000 > 12"),
        (["tau", "--wmax", "12", "--probe", "6"], "--probe cap exceeded: 6 > 5"),
        (["tau", "--dmax", "65"], "--dmax cap exceeded: 65 > 64"),
        (["basis", "--k-lo", "-41", "--depth", "-50"], "--k-lo cap exceeded: |-41| > 40"),
        (["basis", "--k-hi", "41"], "--k-hi cap exceeded: 41 > 40"),
        (["basis", "--depth", "-100000000"], "--depth cap exceeded: |-100000000| > 100"),
        (["basis", "--dmax", "65"], "--dmax cap exceeded: 65 > 64"),
        (["kernel", "--window=-100000000,0,-3,3"],
         "--window cap exceeded: |-100000000| > 40"),
        (["kernel", "--window=-5,-1,-4,41"], "--window cap exceeded: 41 > 40"),
        (["kernel", "--dmax", "65"], "--dmax cap exceeded: 65 > 64"),
        (["cutjoin", "--wmax", "100000"], "--wmax cap exceeded: 100000 > 10"),
        (["cutjoin", "--dmax", "65"], "--dmax cap exceeded: 65 > 64"),
        # the single-Hurwitz check runs at beta-order M * min(wmax, 3)
        (["cutjoin", "--family", "finite", "--c", ",".join(["1"] * 22)],
         "--c cap exceeded: 22 entries need single-Hurwitz beta-order 66 > 64"),
        (["cutjoin", "--family", "finite", "--wmax", "2", "--c", ",".join(["1"] * 33)],
         "--c cap exceeded: 33 entries need single-Hurwitz beta-order 66 > 64"),
    ],
    ids=["hurwitz-N", "tau-wmax", "tau-probe", "tau-dmax", "basis-k-lo", "basis-k-hi",
         "basis-depth", "basis-dmax", "kernel-window-lo", "kernel-window-hi", "kernel-dmax",
         "cutjoin-wmax", "cutjoin-dmax", "cutjoin-c", "cutjoin-c-wmax-2"],
)
def test_flag_above_cap_refused_before_compute(argv, message, monkeypatch, capsys):
    for module, name in ENTRY_POINTS[argv[0]]:
        monkeypatch.setattr(module, name, _refuse(name))
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"resource error: {message}\n"


def test_cutjoin_c_list_at_cap_runs(capsys):
    # 32 entries at weight 2 need beta-order 64, the cap itself
    argv = ["cutjoin", "--family", "finite", "--wmax", "2", "--dmax", "1",
            "--c", ",".join(["1"] * 32)]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"]["single_hurwitz_rep"]["M"] == 32


def test_singular_a_window_refused_before_the_other_checks(monkeypatch, capsys):
    # G(-21 beta) = 0 at the default beta 1/21: a* on w*_k divides by it, and
    # the Kac-Schwarz check, run first, raises before any slower check starts
    for name in ("euler_P", "pairing_check", "ladder_R"):
        monkeypatch.setattr(cli.adaptedbasis, name, _refuse(name))
    assert cli.main(["basis", "--family", "belyi", "--depth", "-100"]) == 1
    assert capsys.readouterr().err == "error: a* undefined: gamma G(-21 beta) = 0\n"


def test_every_integer_flag_has_a_cap():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, p in sub.choices.items():
        flags = {a.dest for a in p._actions}
        integers = {a.dest for a in p._actions if a.type is int}
        bounds = cli.FLAG_BOUNDS.get(command, {})
        assert integers <= set(bounds) <= flags, command
        assert all(cap is not None for _, cap in bounds.values()), command


def _bound_argv(flag, value):
    if flag == "window":  # each entry is bounded: set whi
        return [f"--window=-5,-1,-4,{value}"]
    if flag == "probe":  # --probe needs --wmax >= 2 probe, a relation checked before any cap
        return ["--wmax", "12", "--probe", str(value)]
    return [f"--{flag.replace('_', '-')}", str(value)]


BOUNDED_FLAGS = [(command, flag) for command, bounds in cli.FLAG_BOUNDS.items()
                 for flag in bounds]


@pytest.mark.parametrize("command,flag", BOUNDED_FLAGS,
                         ids=[f"{c}-{f}" for c, f in BOUNDED_FLAGS])
def test_flag_outside_its_bounds_refused_before_compute(command, flag, monkeypatch, capsys):
    least, cap = cli.FLAG_BOUNDS[command][flag]
    for module, name in ENTRY_POINTS[command]:
        monkeypatch.setattr(module, name, _refuse(name))
    name = flag.replace("_", "-")
    if least is not None:
        assert cli.main([command, *_bound_argv(flag, least - 1)]) == 1
        assert capsys.readouterr().err == (
            f"configuration error: {command} needs --{name} >= {least}, got {least - 1}\n"
        )
    assert cli.main([command, *_bound_argv(flag, cap + 1)]) == 2
    assert capsys.readouterr().err == (
        f"resource error: --{name} cap exceeded: {cap + 1} > {cap}\n"
    )


# one run per WORK_BUDGETS command with every flag within its cap: the tau run
# took 42-49 s, each other ran past 90 s, before the budget refused it.  The
# quantum runs at q = 1 - 10^-9 weigh G(beta)'s size: with the same flags exp
# takes 2.8 s and 0.37 s, quantum ran past 60 s and took 28 s
OVER_BUDGET_RUNS = {
    "hurwitz": ["--family", "exp", "--N", "10", "--dmax", "64"],
    "tau": ["--family", "exp", "--wmax", "12", "--dmax", "64", "--probe", "5"],
    "basis": ["--family", "belyi", "--beta", "1/1001", "--s", "1/1001", "--k-lo", "-40",
              "--k-hi", "40", "--depth", "-100"],
    "kernel": ["--family", "exp", "--beta", "series", "--sigma", "1/2", "--dmax", "64",
               "--window=-40,-1,-40,40"],
    "cutjoin": ["--family", "belyi", "--wmax", "10", "--dmax", "64"],
    "hurwitz-quantum": ["--family", "quantum", "--q", "999999999/1000000000", "--N", "6",
                        "--dmax", "20"],
    "tau-quantum": ["--family", "quantum", "--q", "999999999/1000000000", "--wmax", "10",
                    "--dmax", "40"],
}


@pytest.mark.parametrize("run", ["hurwitz-quantum", "tau-quantum"])
def test_work_weighs_the_size_of_g(run):
    # the same flags on exp, whose G(beta) has 158 and 254 times fewer bits at
    # orders 20 and 40, are admitted
    command = run.split("-")[0]
    argv = [command, *OVER_BUDGET_RUNS[run]]
    exp = [command, "--family", "exp", *argv[5:]]
    predict, _, budget = cli.WORK_BUDGETS[command]
    parser = cli.build_parser()
    assert predict(parser.parse_args(exp)) <= budget < predict(parser.parse_args(argv))


def test_every_work_budget_has_a_run_over_it():
    assert {run.split("-")[0] for run in OVER_BUDGET_RUNS} == set(cli.WORK_BUDGETS)


@pytest.mark.parametrize("run", list(OVER_BUDGET_RUNS))
def test_run_over_its_work_budget_refused_before_compute(run, monkeypatch, capsys):
    command = run.split("-")[0]
    argv = [command, *OVER_BUDGET_RUNS[run]]
    predict, formula, budget = cli.WORK_BUDGETS[command]
    work = predict(cli.build_parser().parse_args(argv))
    for module, name in ENTRY_POINTS[command]:
        monkeypatch.setattr(module, name, _refuse(name))
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"resource error: {command} predicted work exceeded: {formula} = {work} > {budget}\n"
    )


# the runs named with their cost in FLAG_BOUNDS, WORK_BUDGETS and README's caps
# table, each at its command's defaults otherwise, and the bench's kp job
COSTED_RUNS = [
    "hurwitz --family exp --N 10 --dmax 3", "hurwitz --dmax 64",
    "tau --wmax 12 --dmax 3", "tau --wmax 10 --probe 5", "tau --wmax 12 --dmax 3 --probe 5",
    "tau --family exp --wmax 12 --dmax 64", "tau --family exp --wmax 12 --dmax 24 --probe 5",
    "tau --family exp --wmax 8 --dmax 3 --probe 4",
    "basis --beta 1/1001 --s 1/1001 --k-hi 40", "basis --beta 1/1001 --s 1/1001 --depth -100",
    "basis --beta 1/1001 --s 1/1001 --depth -100 --k-hi 12",
    "basis --family exp --beta series --sigma 1/2 --dmax 64",
    "kernel --beta 1/1001 --s 1/1001 --window=-40,-1,-40,40",
    "kernel --family exp --beta series --sigma 1/2 --window=-40,-1,-40,40",
    "kernel --family exp --beta series --sigma 1/2 --dmax 16 --window=-40,-1,-40,40",
    "kernel --family exp --beta series --sigma 1/2 --dmax 64 --window=-10,-1,-10,10",
    "cutjoin --wmax 10", "cutjoin --dmax 64",
    "cutjoin --family finite --c " + ",".join(["1"] * 21),
    "cutjoin --family finite --wmax 10 --c " + ",".join(["1"] * 21),
]


def test_every_costed_run_is_within_its_work_budget():
    parser = cli.build_parser()
    assert {run.split()[0] for run in COSTED_RUNS} >= set(cli.WORK_BUDGETS)
    for run in COSTED_RUNS:
        args = parser.parse_args(run.split())
        predict, _, budget = cli.WORK_BUDGETS[args.command]
        assert predict(args) <= budget, run


def _basis_argv(*flags):
    return ["basis", "--beta", "1/1001", "--s", "1/1001", *flags]


def _basis_work(*flags):
    return cli.WORK_BUDGETS["basis"][0](cli.build_parser().parse_args(_basis_argv(*flags)))


def test_basis_work_weighs_depth():
    # --depth -100 --k-hi 12 takes about 12 s at beta = s = 1/1001, more than
    # twice --k-hi 40 (5.0 s) or --depth -100 (4.3 s): it predicts more than both
    deep = _basis_work("--depth", "-100", "--k-hi", "12")
    assert deep > max(_basis_work("--k-hi", "40"), _basis_work("--depth", "-100"))
    # and --depth -100 --k-lo -10 --k-hi 10 (21 s) more again
    assert _basis_work("--depth", "-100", "--k-lo", "-10", "--k-hi", "10") > deep


# the basis budget is the predicted work of --depth -100 --k-hi 12
AT_BUDGET = ("--depth", "-100", "--k-hi", "12")


def test_basis_run_at_its_budget_is_admitted(monkeypatch):
    monkeypatch.setattr(cli.adaptedbasis, "build_basis", _refuse("build_basis"))
    assert _basis_work(*AT_BUDGET) == cli.WORK_BUDGETS["basis"][2]
    with pytest.raises(AssertionError, match="build_basis ran"):
        cli.main(_basis_argv(*AT_BUDGET))


@pytest.mark.parametrize("extra", [("--k-lo", "-4"), ("--k-hi", "13")],
                         ids=["k-lo-one-lower", "k-hi-one-higher"])
def test_basis_run_one_k_over_its_budget_is_refused(extra, monkeypatch, capsys):
    monkeypatch.setattr(cli.adaptedbasis, "build_basis", _refuse("build_basis"))
    flags = (*AT_BUDGET, *extra)  # a repeated flag: the last one counts
    _, formula, budget = cli.WORK_BUDGETS["basis"]
    work = _basis_work(*flags)
    assert work > budget
    assert cli.main(_basis_argv(*flags)) == 2
    assert capsys.readouterr().err == (
        f"resource error: basis predicted work exceeded: {formula} = {work} > {budget}\n"
    )


def test_series_basis_weighs_the_size_of_g(monkeypatch, capsys):
    # quantum(1/2) at --dmax 64 ran past 150 s, exp there takes about 20 s: the
    # same flags, but quantum's G(beta) holds eight times the bits
    argv = ["basis", "--family", "quantum", "--q", "1/2", "--beta", "series", "--sigma", "1/2",
            "--dmax", "64"]
    exp = ["basis", "--family", "exp", *argv[5:]]
    predict, _, budget = cli.WORK_BUDGETS["basis"]
    parser = cli.build_parser()
    assert predict(parser.parse_args(exp)) <= budget < predict(parser.parse_args(argv))
    monkeypatch.setattr(cli.adaptedbasis, "build_basis", _refuse("build_basis"))
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("resource error: basis predicted work exceeded: ")


@pytest.mark.parametrize("argv", [
    ["--window=-6,-1,-5,5"],
    ["--window=-2,-1,-9,3"],
    ["--family", "finite", "--c", "1,1/2,1/3", "--s", "1/21,1/21", "--window=-3,-1,-2,2",
     "--check-finiteness"],
], ids=["wide", "deep-w", "finiteness"])
def test_kernel_predicts_the_basis_window_it_builds(argv, monkeypatch):
    args = cli.build_parser().parse_args(["kernel", *argv])
    built = {}

    def build_basis(*a, k_range, depth, **kw):
        built.update(k_range=k_range, depth=depth)
        raise AssertionError("build_basis ran")

    monkeypatch.setattr(cli.adaptedbasis, "build_basis", build_basis)
    with pytest.raises(AssertionError, match="build_basis ran"):
        cli.main(["kernel", *argv])
    k_lo, k_hi, depth = cli._kernel_basis_window(args)
    assert built == {"k_range": (k_lo, k_hi), "depth": depth}
    assert cli.WORK_BUDGETS["kernel"][0](args) == cli._window_work(k_lo, k_hi, depth)


def test_negative_window_after_a_space():
    # argparse alone takes "-6,-1,-6,5" after a space for an unknown flag (exit 1)
    spaced = run_cli("kernel", "--window", "-6,-1,-6,5")
    joined = run_cli("kernel", "--window=-6,-1,-6,5")
    assert spaced.returncode == joined.returncode == 0
    assert spaced.stdout == joined.stdout


def test_csv_keeps_connected_only_entries(capsys):
    # H_0((1),(1)) = 1 is connected only: no disconnected entry at N 2 carries it
    argv = ["hurwitz", "--N", "2", "--dmax", "2", "--connected"]
    assert cli.main(argv) == 0
    extra = json.loads(capsys.readouterr().out)["result"]["connected_only_entries"]
    assert extra == [{"mu": [1], "nu": [1], "d": 0, "connected": "1"}]
    assert cli.main([*argv, "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "mu,nu,d,value,connected"
    assert rows[-1] == "1,1,0,,1"
    assert len(rows) == 6  # header, four table rows, one connected-only row


def test_every_minimum_is_checked_before_any_cap(capsys):
    # a config error (exit 1) outranks a resource error (exit 2)
    assert cli.main(["tau", "--wmax", "100", "--probe", "-1"]) == 1
    assert capsys.readouterr().err == "configuration error: tau needs --probe >= 0, got -1\n"


# runs that break a relation between flags and exceed a cap or a budget: the
# relation, a config error, is reported first
RELATION_BEFORE_CAP_RUNS = [
    (["tau", "--wmax", "2", "--probe", "6"],
     "tau --probe 6 needs --wmax >= 12, got 2: the Hirota residual reads tau up to weight "
     "2 * probe"),
    (["hurwitz", "--N", "0", "--verify-routes", "--dmax", "65"],
     "hurwitz --verify-routes needs --N >= 1, got 0"),
    (["kernel", "--family", "exp", "--beta", "series", "--sigma", "1/2", "--check-finiteness",
      "--window=-41,-1,-4,4"],
     "--check-finiteness needs a polynomial family"),
    (["basis", "--k-lo", "5", "--k-hi", "5", "--depth", "4", "--dmax", "65"],
     "basis window k in [5, 5], depth 4 has no ladder check: needs --k-hi > --k-lo"),
    (["hurwitz", "--family", "quantum", "--dmax", "65"], "--family quantum needs --q"),
]


@pytest.mark.parametrize("argv,message", RELATION_BEFORE_CAP_RUNS,
                         ids=["tau-probe", "hurwitz-verify-routes", "kernel-finiteness",
                              "basis-window", "quantum-q"])
def test_every_relation_is_checked_before_any_cap(argv, message, monkeypatch, capsys):
    for module, name in ENTRY_POINTS[argv[0]]:
        monkeypatch.setattr(module, name, _refuse(name))
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize("command,entry,report", [
    (["hurwitz", "--N", "2", "--dmax", "1", "--verify-routes"], (cli.hurwitz, "verify_routes"),
     {"ok": False, "mu": [2], "nu": [1, 1], "d": 1}),
    (["basis", "--k-lo", "0", "--k-hi", "2", "--depth", "-3"], (cli.adaptedbasis, "ladder_R"),
     {"ok": False, "checks": 1, "failures": [{"op": "R", "k": 1}]}),
    (["cutjoin", "--wmax", "2", "--dmax", "1"], (cli.cutjoin, "pde_check"),
     {"ok": False, "failures": ["beta-Euler identity"]}),
], ids=["hurwitz", "basis", "cutjoin"])
def test_failed_check_writes_its_report_and_exits_3(command, entry, report, monkeypatch,
                                                    capsys):
    monkeypatch.setattr(*entry, lambda *args, **kw: report)
    assert cli.main(command) == cli.EXIT_VERIFY
    assert report in json.loads(capsys.readouterr().out)["result"].values()


@pytest.mark.parametrize("command", ["basis", "kernel"])
@pytest.mark.parametrize("order", [("--s", "7", "--sigma", "1"), ("--sigma", "1", "--s", "7")],
                         ids=["s-first", "sigma-first"])
def test_s_beside_sigma_refused_before_compute(command, order, monkeypatch, capsys):
    # sigma = s/beta: given both, one of them would be silently dropped
    monkeypatch.setattr(cli.adaptedbasis, "build_basis", _refuse("build_basis"))
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, *order])
    assert exit_.value.code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "not allowed with argument" in err[0]


@pytest.mark.parametrize("command", ["basis", "kernel"])
def test_s_beside_sigma_in_config_file_refused_before_compute(command, tmp_path, monkeypatch,
                                                              capsys):
    monkeypatch.setattr(cli.adaptedbasis, "build_basis", _refuse("build_basis"))
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"s": "7", "sigma": "1"}))
    assert cli.main([command, "--config", str(cfg)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "configuration error: config keys 's' and 'sigma' cannot be given together\n"
    )


@pytest.mark.parametrize("command", ["basis", "kernel"])
@pytest.mark.parametrize("in_file,on_line", [("s", "--sigma"), ("sigma", "--s")])
def test_s_or_sigma_in_config_file_beside_the_other_flag_refused_before_compute(
        command, in_file, on_line, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli.adaptedbasis, "build_basis", _refuse("build_basis"))
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({in_file: "7"}))
    assert cli.main([command, "--config", str(cfg), on_line, "1/2"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"configuration error: config key {in_file!r} cannot be given with {on_line}\n"
    )
    # the flag the file gives, given again on the command line, overrides it
    with pytest.raises(AssertionError, match="build_basis ran"):
        cli.main([command, "--config", str(cfg), f"--{in_file}", "1/2"])


# windows on which a basis check would compare nothing, each with the nearest
# window on which it compares something; L = 2 for --s 1/21,1/50
VACUOUS_BASIS_WINDOWS = [
    ("ladder", ["--k-lo", "5", "--k-hi", "5", "--depth", "4"],
     ["--k-lo", "5", "--k-hi", "6", "--depth", "-6"]),
    ("Euler", ["--s", "1/21,1/50", "--k-lo", "0", "--k-hi", "1", "--depth", "-2"],
     ["--s", "1/21,1/50", "--k-lo", "0", "--k-hi", "2", "--depth", "-2"]),
    ("pairing", ["--k-lo", "3", "--k-hi", "6", "--depth", "2"],
     ["--k-lo", "3", "--k-hi", "6", "--depth", "-3"]),
    # the recursion band LM = L M = 4 for two sigma and two c
    ("recursion_Q", ["--family", "finite", "--c", "1,1/2", "--s", "1/21,1/50",
                     "--k-lo", "0", "--k-hi", "2", "--depth", "-3"],
     ["--family", "finite", "--c", "1,1/2", "--s", "1/21,1/50",
      "--k-lo", "0", "--k-hi", "4", "--depth", "-3"]),
]


@pytest.mark.parametrize("check,vacuous,nearest", VACUOUS_BASIS_WINDOWS,
                         ids=[w[0] for w in VACUOUS_BASIS_WINDOWS])
def test_vacuous_basis_window_refused_before_compute(check, vacuous, nearest, monkeypatch,
                                                     capsys):
    monkeypatch.setattr(cli.adaptedbasis, "build_basis", _refuse("build_basis"))
    assert cli.main(["basis", *vacuous]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: basis window ")
    assert f"has no {check} check" in err[0]
    monkeypatch.undo()
    assert cli.main(["basis", *nearest]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["ladder"]["checks"] and result["euler"]["checks"]
    assert result["pairing"]["tested"]
    if check == "recursion_Q":
        # more checks than the band vanishing alone: i in [-3, 1], both sides
        assert result["recursion_Q"]["checks"] > 5 * 2 * cli.adaptedbasis.Q_BAND_MARGIN


def test_serialize_refuses_a_type_it_has_no_form_for():
    with pytest.raises(TypeError, match="cannot serialize a set"):
        cli.serialize({"mu": {2, 1}})
