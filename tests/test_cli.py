import json
import os
from pathlib import Path

import pytest

from ddlab import cli

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def run(args):
    return cli.run(args)


def test_regions_reference_output(tmp_path):
    out = tmp_path / "r"
    rc = run(["regions", "--m", "4", "--n", "6", "--kind", "delta_m",
              "--out", str(out)])
    assert rc == 0
    data = json.loads((out / "regions.json").read_text())
    assert data["vertices"] == [["1/2", "1/2"], ["1/1", "1/3"],
                                ["1/1", "0/1"], ["2/3", "0/1"]]
    assert (out / "regions.svg").read_text().startswith("<svg")


def test_check_symbol_beam(tmp_path):
    out = tmp_path / "c"
    rc = run(["check-symbol", "--poly", "1+|x|^4", "--n", "2", "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "report.json").read_text())
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["H1"]["verdict"] == "pass"
    assert by_name["H2"]["verdict"] == "pass"
    assert by_name["H2"]["details"]["sphere_min_abs_det"] == pytest.approx(48.0, abs=1e-9)


def test_check_symbol_failure_exit_code(tmp_path):
    rc = run(["check-symbol", "--poly", "x1^4 + x2^4", "--n", "2",
              "--out", str(tmp_path / "f")])
    assert rc == 1


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2


def test_m_expect_mismatch_exits_2(tmp_path):
    rc = run(["check-symbol", "--poly", "1+|x|^4", "--n", "2",
              "--m-expect", "6", "--out", str(tmp_path / "m")])
    assert rc == 2


@pytest.mark.parametrize("args, ini, field", [
    (["check-symbol", "--m-expect", "abc"], None, "symbol.m_expect"),
    (["decay-verify", "--p", "abc"], None, "decay.p"),
    (["decay-verify", "--q", "abc"], None, "decay.q"),
    (["decay-verify"], "[decay]\np = abc\n", "decay.p"),
    (["decay-verify"], "[decay]\nq = 1/0\n", "decay.q"),
    (["kernel-scan"], "[kernel]\nsign = garbage\n", "kernel.sign"),
    (["solve"], "[solve]\nq = abc\n", "solve.q"),
    (["regions", "--a", "abc"], None, "regions.a"),
    (["decay-verify", "--part", "X"], None, "decay.part"),
    (["decay-verify", "--regime", "medium"], None, "decay.regime"),
    (["decay-verify"], "[decay]\nroute = direct\n", "decay.route"),
    (["kernel-scan"], "[kernel]\nmethod = foo\n", "kernel.method"),
    (["solve", "--t-list", "0.5,abc"], None, "solve.t_list"),
])
def test_bad_field_value_exits_2_naming_field(tmp_path, capsys, args, ini, field):
    if ini is not None:
        cfg = tmp_path / "bad.ini"
        cfg.write_text(ini)
        args = args + ["--config", str(cfg)]
    assert run(args + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err


def test_nonpositive_lattice_symbol_exits_2(tmp_path, capsys):
    rc = run(["solve", "--poly", "x1^4+x2^4", "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: field symbol.poly:")
    assert "(0.0, 0.0)" in err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[symbol]\nfrobnicator = 1\n")
    rc = run(["check-symbol", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "frobnicator" in capsys.readouterr().err


def test_config_file_layering(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[symbol]\npoly = 1 + 2*|x|^2 + |x|^4\nn = 2\n")
    out = tmp_path / "layer"
    rc = run(["check-symbol", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["config"]["symbol"]["poly"] == "1 + 2*|x|^2 + |x|^4"
    # flag overrides file
    rc = run(["check-symbol", "--config", str(cfg), "--poly", "1+|x|^4",
              "--out", str(out)])
    rep = json.loads((out / "report.json").read_text())
    assert rep["config"]["symbol"]["poly"] == "1+|x|^4"


def test_solve_writes_norm_series(tmp_path):
    out = tmp_path / "s"
    rc = run(["solve", "--grid-N", "32", "--grid-L", "10", "--t-list", "0.5,1.0",
              "--out", str(out)])
    assert rc == 0
    lines = (out / "norms.csv").read_text().splitlines()
    assert lines[0] == "t,l2,lq,linf"
    assert len(lines) == 3


def test_kernel_scan_outputs(tmp_path):
    out = tmp_path / "k"
    rc = run(["kernel-scan", "--out", str(out)])
    assert rc == 0
    header = (out / "samples.csv").read_text().splitlines()[0]
    assert header == "kind,sign,t,x1,x2,re,im,err"
    bounds = json.loads((out / "kernel_bounds.json").read_text())
    assert bounds["mu"] == "2/1"


def test_decay_verify_consistent(tmp_path):
    out = tmp_path / "d"
    rc = run(["decay-verify", "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "decay_report.json").read_text())
    assert rep["verdict"] == "consistent"
    assert rep["theoretical_exponent"] == "1/1"


def test_all_runs_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a1", tmp_path / "a2"
    assert run(["all", "--out", str(out1)]) == 0
    assert run(["all", "--out", str(out2)]) == 0
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_all_with_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[run]\nseed = 7\n\n"
        "[grid]\nN = 32\nL = 10.0\n\n"
        "[solve]\nt_list = 0.5,1.0\nq = inf\n\n"
        "[kernel]\nt_list = 0.5\nx_list = 0.0\n\n"
        "[decay]\nN = 32\nL = 12.0\n")
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    assert run(["all", "--config", str(cfg), "--out", str(out1)]) == 0
    assert run(["all", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in sorted(os.listdir(out1)):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    rep = json.loads((out1 / "report.json").read_text())
    assert rep["config"]["run"]["seed"] == "7"
    assert rep["config"]["solve"]["q"] == "inf"


def test_checked_in_manifests_run_clean(tmp_path):
    rc = run(["all", "--config", str(CONFIGS / "beam2d.ini"),
              "--out", str(tmp_path / "beam")])
    assert rc == 0
    rc = run(["kernel-scan", "--config", str(CONFIGS / "anisotropic2d.ini"),
              "--out", str(tmp_path / "aniso")])
    assert rc == 0


def test_report_json_schema(tmp_path):
    out = tmp_path / "schema"
    run(["all", "--out", str(out)])
    rep = json.loads((out / "report.json").read_text())
    for key in ("tool", "version", "command", "config", "checks", "artifacts"):
        assert key in rep
    for check in rep["checks"]:
        assert {"name", "verdict", "details"} <= set(check)
        assert check["verdict"] in ("pass", "fail", "consistent",
                                    "inconclusive", "contradicted")
