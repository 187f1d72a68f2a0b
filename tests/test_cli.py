import ast
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ddlab import cli, kernel, symbol

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"


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


@pytest.mark.parametrize("poly, rc", [("1e300*|x|^4 + 1", 0), ("x1^4 + 1", 1)])
def test_check_symbol_report_holds_finite_numbers(tmp_path, poly, rc):
    # P_m = 1e300 |x|^4 once overflowed det Hess to NaN, and det Hess x1^4 = 0
    # met the floor 1e-8 * 0: both passed H2
    out = tmp_path / "c"
    assert run(["check-symbol", "--poly", poly, "--n", "2", "--out", str(out)]) == rc

    def refuse(name):
        raise ValueError(f"{name} in report.json")

    rep = json.loads((out / "report.json").read_text(), parse_constant=refuse)
    h2 = {c["name"]: c for c in rep["checks"]}["H2"]
    assert h2["verdict"] == ("pass" if rc == 0 else "fail")


def test_write_json_refuses_non_finite_numbers(tmp_path):
    path = tmp_path / "r.json"
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            cli._write_json(path, {"value": [1.0, bad]})
        assert not path.exists()


def test_samples_csv_header(tmp_path):
    s = kernel.KernelSample("I1", +1, 0.5, (0.0, 0.0), 1 + 2j, 1e-9)
    path = tmp_path / "samples.csv"
    cli._write_csv(path, *cli._samples_table([s], 2))
    lines = path.read_text().splitlines()
    assert lines[0] == "kind,sign,t,x1,x2,re,im,err"
    assert lines[1].startswith("I1,+1,0.5,")


@pytest.mark.parametrize("field, bad", [("value", complex(math.nan, 0.0)), ("err", math.inf),
                                        ("x", (0.0, -math.inf))])
def test_samples_csv_refuses_non_finite_numbers(tmp_path, field, bad):
    s = dataclasses.replace(kernel.KernelSample("I1", +1, 0.5, (0.0, 0.0), 1 + 2j, 1e-9),
                            **{field: bad})
    path = tmp_path / "samples.csv"
    with pytest.raises(ValueError, match="non-finite"):
        cli._write_csv(path, *cli._samples_table([s], 2))
    assert not path.exists()


def test_norm_series_csv(tmp_path):
    path = tmp_path / "norms.csv"
    cli._write_csv(path, cli.NORM_COLUMNS, [(0.1, 1.0, 2.0, 3.0), (0.2, 0.5, 0.25, 0.125)])
    lines = path.read_text().splitlines()
    assert lines[0] == "t,l2,lq,linf"
    assert len(lines) == 3


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_norm_series_csv_refuses_non_finite_numbers(tmp_path, bad):
    path = tmp_path / "norms.csv"
    with pytest.raises(ValueError, match="non-finite"):
        cli._write_csv(path, cli.NORM_COLUMNS, [(0.1, 1.0, 2.0, 3.0), (0.2, 0.5, bad, 0.125)])
    assert not path.exists()


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
    (["solve", "--grid-N", "63"], None, "grid.N"),
    (["decay-verify"], "[decay]\nN = 63\n", "decay.N"),
    (["decay-verify", "--p", "3"], None, "decay.p"),
    (["decay-verify", "--q", "1"], None, "decay.q"),
    (["decay-verify", "--route", "convolution", "--regime", "large",
      "--p", "1", "--q", "2"], None, "decay.route"),
    (["check-symbol", "--n", "4", "--seed", "-1"], None, "run.seed"),
    (["kernel-scan"], "[kernel]\neps_list = 0.1,0.2\n", "kernel.eps_list"),
    (["kernel-scan"], "[kernel]\neps_list = 0.2,-0.1\n", "kernel.eps_list"),
    (["kernel-scan"], "[kernel]\nN = 0\n", "kernel.N"),
    (["kernel-scan"], "[kernel]\nN = -4\n", "kernel.N"),
    (["kernel-scan"], "[kernel]\nN = 63\n", "kernel.N"),
    (["kernel-scan"], "[kernel]\norder = -1\n", "kernel.order"),
    (["kernel-scan", "--poly", "1 + |x|^4 + x1^2", "--n", "4"], None,
     "field symbol.poly, symbol.n:"),
    (["kernel-scan", "--t-list", "0"], None, "kernel.t_list"),
    (["kernel-scan", "--poly", "|x|^4", "--n", "4"], "[kernel]\nkind = I2\n",
     "field symbol.poly, kernel.kind:"),
    (["kernel-scan", "--poly", "1+|x|^2"], None, "field symbol.poly:"),
    (["all", "--poly", "1+|x|^2"], None, "field symbol.poly:"),
    (["kernel-scan", "--poly", "3"], None, "field symbol.poly:"),
    (["kernel-scan", "--poly", "1 - 3*|x|^2 + |x|^4", "--n", "4"], None, "field symbol.poly:"),
    (["kernel-scan", "--poly", "1 - 3*|x|^2 + |x|^4"], None, "field symbol.poly:"),
    (["kernel-scan", "--t-list", "nan"], None, "field kernel.t_list:"),
    (["kernel-scan", "--t-list", "inf"], None, "field kernel.t_list:"),
    (["kernel-scan", "--x-list", "inf"], None, "field kernel.x_list:"),
    (["kernel-scan"], "[kernel]\neps_list = 0.2,nan\n", "field kernel.eps_list:"),
    (["decay-verify"], "[decay]\nt_count = 0\n", "field decay.t_count"),
    (["decay-verify"], "[decay]\nt_count = -3\n", "field decay.t_count"),
    (["solve"], "[solve]\nq = nan\n", "field solve.q"),
    (["solve"], "[solve]\nwidth = 0\n", "field solve.width"),
    (["solve", "--grid-L", "inf"], None, "field grid.L"),
    (["check-symbol", "--n", "0"], None, "field symbol.n"),
    (["kernel-scan", "--poly", "1 + x1^4", "--n", "2"], None, "field symbol.poly:"),
    (["regions", "--m", "5"], None, "field regions.m:"),
    (["regions", "--kind", "AEF", "--m", "5"], None, "field regions.m:"),
    (["regions", "--n", "1"], None, "field regions.n:"),
    (["regions", "--kind", "delta_a", "--a", "-20"], None, "field regions.a:"),
    (["regions"], "[regions]\nkind = delta_a\n", "field regions.a:"),
    (["regions", "--kind", "AEF", "--n", "3"], None, "field regions.kind:"),
    (["kernel-scan"], "[kernel]\nt_list =\n", "field kernel.t_list"),
    (["kernel-scan"], "[kernel]\nx_list = ,\n", "field kernel.x_list"),
    (["solve"], "[solve]\nt_list =\n", "field solve.t_list"),
    (["decay-verify", "--poly", "1+|x|^2"], None, "field symbol.poly:"),
    (["decay-verify", "--n", "1"], None, "field symbol.n:"),
    (["decay-verify", "--route", "convolution", "--regime", "large",
      "--p", "1", "--q", "2"], None, "field decay.route:"),
    (["decay-verify", "--n", "3", "--p", "1", "--q", "inf"], "[grid]\nN = 16\n",
     "field decay.p, decay.q, decay.route:"),
    (["regions", "--kind", "square"], None, "field regions.kind:"),
    (["solve", "--t-list", "inf"], None, "field solve.t_list"),
    (["solve", "--t-list", "0.5,nan"], None, "field solve.t_list"),
    (["check-symbol", "--poly", "0"], None, "field symbol.poly:"),
    (["check-symbol", "--poly", "x1-x1"], None, "field symbol.poly:"),
    (["regions", "--a", "2"], None, "field regions.a:"),
    (["regions", "--kind", "AEF", "--a", "2"], None, "field regions.a:"),
    (["kernel-scan"], "[kernel]\norder = 3\n", "field kernel.order:"),
    (["check-symbol", "--poly", "1 + |x|^4 -"], None, "field symbol.poly:"),
    (["check-symbol", "--poly", "x1^4 * -x2^4"], None, "field symbol.poly:"),
    (["check-symbol", "--poly", "1.5.3"], None, "field symbol.poly:"),
    (["decay-verify"], "[grid]\nN = 63\n", "grid.N"),
    # keys whose value is fixed or derived: [decay] N/L and t_count, kernel.order,
    # solve.width and kernel.eps_list, N and method (the rows above with N = 63,
    # order = -1, order = 3, t_count = 0, width = 0, eps_list, [kernel] N and
    # method = foo now name each as an unknown key)
    (["decay-verify"], "[decay]\nL = 12.0\n", "field decay.L: unknown key"),
    # malformed INI files; a % is literal text
    (["solve"], "[solve]\nq = 4%\n", "field solve.q: must be a number >= 1 or inf, got '4%'"),
    (["check-symbol"], "[symbol]\nn = 2\nn = 3\n", "malformed config file"),
    (["check-symbol"], "n = 2\n[symbol]\n", "malformed config file"),
    (["check-symbol"], "[symbol]\nn\n", "malformed config file"),
    # a coefficient that overflows, a cell volume (2L/N)^n that is not a positive
    # finite float, and an a > mn/2, for which q_a < 1
    (["check-symbol", "--poly", "1e400+|x|^4"], None, "field symbol.poly:"),
    (["solve", "--poly", "1e400+|x|^4"], None, "field symbol.poly:"),
    (["kernel-scan", "--poly", "1e400+|x|^4"], None, "field symbol.poly:"),
    (["decay-verify", "--poly", "1e400+|x|^4"], None, "field symbol.poly:"),
    (["solve", "--grid-L", "1e200"], None, "field grid.L:"),
    (["solve", "--grid-L", "1e-300"], None, "field grid.L:"),
    (["decay-verify"], "[grid]\nL = 1e200\n", "field grid.L:"),
    (["regions", "--kind", "delta_a", "--a", "1000"], None, "field regions.a:"),
    # a box so small that P overflows on its frequency lattice
    (["decay-verify"], "[grid]\nL = 1e-150\n", "field grid.L:"),
    (["solve", "--grid-L", "1e-150"], None, "field grid.L:"),
    # an I2 envelope (1 + |t|^a |x|)^-mu that underflows, also where |x|^2
    # overflows; a radial phase that needs the panel cap from the start, in x
    # and in t; a |t| so small that the damping ladder scaled by it never
    # reaches the tail tolerance; a lattice phase x_i xi that overflows
    (["kernel-scan", "--kind", "I2", "--x-list", "1e160"], None, "field kernel.x_list:"),
    (["kernel-scan", "--kind", "I2", "--x-list", "1e200"], None, "field kernel.x_list:"),
    (["kernel-scan", "--n", "4", "--x-list", "1e160"], None, "field kernel.x_list:"),
    (["kernel-scan", "--n", "4", "--t-list", "1e6"], None, "field kernel.t_list:"),
    (["kernel-scan", "--t-list", "1e-300"], None, "field kernel.t_list:"),
    (["kernel-scan", "--t-list", "1e-50", "--x-list", "1e300"], None, "field kernel.x_list:"),
    # rules the library states and names: the kernel kind, the probe seed at
    # n <= 3 and the norm order q
    (["kernel-scan", "--kind", "I3"], None, "field kernel.kind:"),
    (["check-symbol", "--seed", "-1"], None, "field run.seed:"),
    (["solve"], "[solve]\nq = 0.5\n", "field solve.q:"),
    # the kernel envelopes, like H1 and the regions, need n >= 2
    (["kernel-scan", "--n", "1"], None, "field symbol.n:"),
])
def test_bad_field_value_exits_2_naming_field(tmp_path, capsys, args, ini, field):
    if ini is not None:
        cfg = tmp_path / "bad.ini"
        cfg.write_text(ini)
        args = args + ["--config", str(cfg)]
    assert run(args + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err
    assert "malformed" not in err or str(tmp_path / "bad.ini") in err
    # no nan the input did not give (kernel-scan's x = inf once printed 0 * inf)
    assert "nan" not in err or "nan" in " ".join(args) + (ini or "")


def test_non_utf8_config_exits_2(tmp_path, capsys):
    # a byte that is not UTF-8 is a malformed file, not a crash
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(b"[symbol]\npoly = 1 \xff\n")
    assert run(["check-symbol", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: malformed config file {cfg}: ")
    assert len(err.splitlines()) == 1


FLAG_CASES = [(name, flag) for name, command in cli.COMMANDS.items()
              for flag in command.flags]


@pytest.mark.parametrize("name, flag", FLAG_CASES)
def test_flag_sets_the_keys_its_table_names(tmp_path, monkeypatch, name, flag):
    # the pipeline is stubbed: this checks the flag -> config step alone
    monkeypatch.setitem(cli.COMMANDS, name, dataclasses.replace(
        cli.COMMANDS[name], pipeline=lambda cfg, outdir: ([], {})))
    out = tmp_path / "o"
    assert run([name, flag, "marker", "--out", str(out)]) == 0
    config = json.loads((out / "report.json").read_text())["config"]
    expected = cli.load_config()
    for key in cli.COMMANDS[name].flags[flag]:
        sec, field = key.split(".")
        expected[sec][field] = "marker"
    assert config == expected  # the named keys, and no other
    if (name, flag) == ("all", "--n"):
        assert config["symbol"]["n"] == config["regions"]["n"] == "marker"


def test_readme_flag_table_matches_commands():
    # each row of README's "subcommand | flag: config key" table names
    # exactly the flags of its cli.COMMANDS entry
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| subcommand | flag: config key |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, cell = re.fullmatch(r"\| `([\w-]+)` \| (.*) \|", line).groups()
        rows[name] = sorted(re.findall(r"`(--[\w-]+)`", cell))
    assert rows == {name: sorted(command.flags) for name, command in cli.COMMANDS.items()}


def _record_reads(monkeypatch):
    """The set that collects "sec.key" for every config value a run reads."""
    reads = set()
    load = cli.load_config

    class Section(dict):
        def __init__(self, sec, keys):
            super().__init__(keys)
            self.sec = sec

        def __getitem__(self, key):
            reads.add(f"{self.sec}.{key}")
            return super().__getitem__(key)

    monkeypatch.setattr(cli, "load_config", lambda path=None: {
        sec: Section(sec, keys) for sec, keys in load(path).items()})
    return reads


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
def test_pipeline_reads_every_key_its_flags_set(tmp_path, monkeypatch, name):
    reads = _record_reads(monkeypatch)
    assert run([name, "--out", str(tmp_path / "o")]) == 0
    set_keys = {key for keys in cli.COMMANDS[name].flags.values() for key in keys}
    assert set_keys <= reads


def test_all_reads_every_config_key(tmp_path, monkeypatch):
    # a key that no pipeline reads is a setting that changes nothing
    reads = _record_reads(monkeypatch)
    assert run(["all", "--out", str(tmp_path / "o")]) == 0
    assert reads == {f"{sec}.{key}" for sec, keys in cli.DEFAULTS.items() for key in keys}


@pytest.mark.parametrize("args", [
    ["check-symbol", "--grid-N", "32"], ["check-symbol", "--grid-L", "10"],
    ["check-symbol", "--t-list", "1"], ["check-symbol", "--x-list", "0.2,0.1"],
    ["solve", "--seed", "1"], ["solve", "--x-list", "0.1"],
    ["kernel-scan", "--seed", "1"], ["kernel-scan", "--grid-N", "32"],
    ["kernel-scan", "--grid-L", "20"],
    ["decay-verify", "--seed", "1"], ["decay-verify", "--grid-N", "128"],
    ["decay-verify", "--grid-L", "20"], ["decay-verify", "--t-list", "1,2"],
    ["decay-verify", "--x-list", "0.1"],
    ["regions", "--seed", "1"], ["regions", "--poly", "1+|x|^4"],
    ["regions", "--m-expect", "4"], ["regions", "--grid-N", "32"],
    ["regions", "--grid-L", "10"], ["regions", "--t-list", "1"],
    ["regions", "--x-list", "0.1"],
    ["check-symbol", "--m", "6"],  # regions' flag, not an abbreviated --m-expect
])
def test_flag_of_an_unread_section_exits_2(tmp_path, capsys, args):
    assert run(args + ["--out", str(tmp_path / "o")]) == 2
    assert f"unrecognized arguments: {args[1]}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args, partial", [
    (["kernel-scan", "--kind", "I2", "--x-list", "1e160"], "samples.csv"),
    (["all", "--poly", "1+|x|^2"], "solve_norms.csv"),  # kernel-scan refuses m = 2
])
def test_exit_2_removes_the_artifacts_it_wrote(tmp_path, capsys, args, partial):
    # each run writes `partial` before the config error
    out = tmp_path / "new" / "out"
    assert run(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: field ")
    assert not (tmp_path / "new").exists()
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "notes.txt").write_text("mine")
    assert run(args + ["--out", str(kept)]) == 2
    assert os.listdir(kept) == ["notes.txt"]
    assert (kept / "notes.txt").read_text() == "mine"


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
    lines = (out / "solve_norms.csv").read_text().splitlines()
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
    # the default V multiplier query at n = 2 < m = 4 reads the pentagon
    assert rep["claim"] == {"part": "V", "regime": "small", "route": "multiplier",
                            "region": "pentagon"}


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
        "[grid]\nN = 32\nL = 12.0\n\n"
        "[solve]\nt_list = 0.5,1.0\nq = inf\n\n"
        "[kernel]\nt_list = 0.5\nx_list = 0.0\n")
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


def test_all_keeps_solve_and_decay_norm_series(tmp_path):
    out = tmp_path / "beam"
    assert run(["all", "--config", str(CONFIGS / "beam2d.ini"), "--out", str(out)]) == 0
    solve_t = [line.split(",")[0] for line in
               (out / "solve_norms.csv").read_text().splitlines()[1:]]
    assert solve_t == ["0.5", "1.0", "2.0", "4.0"]
    decay_rows = (out / "norms.csv").read_text().splitlines()[1:]
    assert len(decay_rows) == 9 and decay_rows[0].startswith("0.01,")
    artifacts = json.loads((out / "report.json").read_text())["artifacts"]
    assert {"norms.csv", "solve_norms.csv"} <= set(artifacts)


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


def test_cli_import_does_not_load_scipy_special():
    # the package imports no scipy module, with the CLI or later
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = "import sys, ddlab.cli; print('scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_package_source_imports_no_scipy():
    for path in sorted((SRC / "ddlab").rglob("*.py")):
        text = path.read_text()
        # the numpy.random extension module costs ~6 MB RSS to load
        assert "numpy.random" not in text and "np.random" not in text, path.name
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "scipy" for m in modules), \
                f"{path.name}:{node.lineno} imports scipy"


def test_check_symbol_draws_sphere_probe_once(tmp_path, monkeypatch):
    calls = []
    draw = symbol.sphere_directions

    def counted(*args, **kwargs):
        calls.append(args)
        return draw(*args, **kwargs)

    monkeypatch.setattr(symbol, "sphere_directions", counted)
    rc = run(["check-symbol", "--n", "4", "--seed", "2", "--out", str(tmp_path / "o")])
    assert rc == 0
    assert len(calls) == 1


def test_radial_kernel_scan_loads_no_scipy(tmp_path):
    # the radial path (Bessel factor, Gauss-Legendre rule) is numpy alone;
    # kernel-scan takes it above n = 3, here for I2 at |x| = 0 and 1
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = ("import sys; from ddlab import cli; "
            "rc = cli.run(['kernel-scan', '--n', '4', '--kind', 'I2', "
            f"'--out', {str(tmp_path / 'o')!r}]); "
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 []"


def test_check_symbol_n4_loads_no_scipy(tmp_path):
    # the n > 3 sphere probe is built with numpy and the standard library's random
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = ("import sys; from ddlab import cli; "
            f"rc = cli.run(['check-symbol', '--n', '4', '--out', {str(tmp_path)!r}]); "
            "print(rc, 'scipy.stats' in sys.modules, 'scipy.special' in sys.modules, "
            "'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.splitlines()[-1].split() == ["0", "False", "False", "False"]
