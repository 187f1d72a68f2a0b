"""Batch front-end: experiment configs in, CSV/JSON/SVG artifacts out.

Subcommands: check-symbol, solve, kernel-scan, decay-verify, regions, all.
Configuration is layered: built-in defaults < INI config file < CLI flags.
Exit status: 0 when every check passes, 1 on failed verdicts, 2 on
usage/config errors.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import decay, kernel, regions, spectral, symbol

VERSION = "0.1.0"

OK_VERDICTS = {"pass", "consistent"}


class ConfigError(ValueError):
    """Bad config file or flag value; maps to exit code 2."""


DEFAULTS = {
    "run": {"seed": "0"},
    "symbol": {"poly": "1 + |x|^4", "n": "2", "m_expect": ""},
    "grid": {"N": "64", "L": "12.0"},
    "solve": {"t_list": "0.5,1.0,2.0", "q": "4", "width": "1.5"},
    "kernel": {
        "kind": "I1", "sign": "+", "t_list": "0.25,0.5",
        "x_list": "0.0,1.0", "eps_list": "0.4,0.2,0.1", "N": "512",
        "order": "2", "method": "lattice",
    },
    "decay": {
        "part": "V", "regime": "small", "p": "2", "q": "2",
        "route": "multiplier", "t_count": "9", "N": "64", "L": "12.0",
    },
    "regions": {"kind": "all", "m": "4", "n": "6", "a": ""},
}


def load_config(path=None) -> dict:
    """Layered configuration {section: {key: text}}: DEFAULTS, then the INI
    file at path.  Sections and keys are fixed by DEFAULTS; anything else in
    the file is rejected with the offending field named."""
    sections = {sec: dict(keys) for sec, keys in DEFAULTS.items()}
    if path is None:
        return sections
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive (N vs n)
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for sec in parser.sections():
        if sec not in sections:
            raise ConfigError(f"unknown config section [{sec}]")
        for key, value in parser.items(sec):
            if key not in sections[sec]:
                raise ConfigError(f"unknown key {key!r} in section [{sec}]")
            sections[sec][key] = value
    return sections


def _field(cfg, sec, key, convert, expected, valid=lambda value: True):
    """cfg[sec][key] passed through convert; a ValueError, or a value that
    valid rejects, names the field."""
    try:
        value = convert(cfg[sec][key])
        if not valid(value):
            raise ValueError(value)
        return value
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"field {sec}.{key} must be {expected}, "
                          f"got {cfg[sec][key]!r}") from exc


_int = partial(_field, convert=int, expected="an integer")
_float = partial(_field, convert=float, expected="a number")
_fraction = partial(_field, convert=Fraction, expected="a rational number")
_positive = partial(_field, convert=float, expected="a positive finite number",
                    valid=lambda value: 0 < value < math.inf)
_count = partial(_field, convert=int, expected="a positive integer",
                 valid=lambda value: value > 0)


def _float_list(text):
    return [float(v) for v in text.split(",") if v.strip()]


_floats = partial(_field, convert=_float_list,
                  expected="a non-empty comma-separated float list", valid=bool)
_finite_floats = partial(_field, convert=_float_list,
                         expected="a non-empty comma-separated list of finite numbers",
                         valid=lambda values: values and all(map(math.isfinite, values)))


def _grid(cfg, sec, n):
    return spectral.make_grid(n, _int(cfg, sec, "N"), _positive(cfg, sec, "L"))


def _choice(cfg, sec, key, allowed):
    return _field(cfg, sec, key, str, " or ".join(allowed), lambda value: value in allowed)


def _write_json(path, obj):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommand pipelines.  Each returns (checks, artifacts) where checks is a
# list of {"name", "verdict", "details"} dicts.
# ---------------------------------------------------------------------------

def _parse_symbol(cfg):
    p = symbol.parse_symbol(cfg["symbol"]["poly"], _count(cfg, "symbol", "n"))
    expect = cfg["symbol"]["m_expect"]
    if expect.strip():
        if p.order != _int(cfg, "symbol", "m_expect"):
            raise ConfigError(
                f"field symbol.m_expect: symbol has order {p.order}, expected {expect}")
    return p


def cmd_check_symbol(cfg, outdir):
    p = _parse_symbol(cfg)
    # sphere_directions rejects a negative seed at every n
    seed = _field(cfg, "run", "seed", int, "a non-negative integer", lambda value: value >= 0)
    h1, h2 = symbol.check_hypotheses(p, seed)
    checks = [{
        "name": "H1",
        "verdict": "pass" if h1.passed else "fail",
        "details": {
            "sampled_min": h1.sampled_min,
            "description": h1.description,
            "witnesses": [{"kind": w.kind, "point": w.point, "value": w.value}
                          for w in h1.witnesses],
        },
    }]
    checks.append({
        "name": "H2",
        "verdict": "pass" if h2.passed else "fail",
        "details": {
            "sphere_min_abs_det": h2.sampled_min,
            "sphere_max_abs_det": h2.sampled_max,
            "flags": list(h2.flags),
            "witnesses": [{"kind": w.kind, "point": w.point, "value": w.value}
                          for w in h2.witnesses],
        },
    })
    return checks, {}


def cmd_solve(cfg, outdir):
    p = _parse_symbol(cfg)
    g = _grid(cfg, "grid", p.n)
    width = _positive(cfg, "solve", "width")
    xs = g.x_grids()
    u0 = np.exp(-sum(x**2 for x in xs) / (2.0 * width**2)).astype(complex)
    u1 = np.zeros(g.shape, dtype=complex)
    q_text = cfg["solve"]["q"]
    q = _field(cfg, "solve", "q", float, "a number >= 1 or inf", lambda value: value >= 1)
    rows = []
    e0 = None
    drift = 0.0
    clear = 1.0
    for t in _finite_floats(cfg, "solve", "t_list"):
        state = spectral.propagate(u0, u1, t, p, g)
        e = spectral.energy(state, p, g)
        e0 = e if e0 is None else e0
        drift = max(drift, abs(e - e0) / max(e0, 1e-300))
        clear = min(clear, spectral.box_clearance(state.u, g))
        rows.append((t,
                     decay.lq_norm(state.u, 2, g),
                     decay.lq_norm(state.u, q, g),
                     decay.lq_norm(state.u, math.inf, g)))
    spectral.write_norm_series(outdir / "norms.csv", rows)
    tail = spectral.spectral_tail_fraction(np.fft.fftn(u0), g)
    checks = [{
        "name": "energy-conservation",
        "verdict": "pass" if drift <= 1e-9 else "fail",
        "details": {"relative_drift": drift, "clearance": clear,
                    "nyquist_tail": tail, "norm_q": q_text},
    }]
    return checks, {"norms.csv": "t,l2,lq,linf series"}


def cmd_kernel_scan(cfg, outdir):
    p = _parse_symbol(cfg)
    signs = {"+": +1, "+1": +1, "1": +1, "-": -1, "-1": -1}
    sign = _field(cfg, "kernel", "sign", lambda text: signs.get(text.strip()),
                  "+, +1, 1, - or -1", lambda value: value is not None)
    kernel.mu_nu(p.order, p.n)  # the envelopes need order m > 2: fail before sampling
    qcfg = kernel.QuadConfig(
        eps_list=tuple(_floats(cfg, "kernel", "eps_list")),
        order=_int(cfg, "kernel", "order"),
        lattice_N=_int(cfg, "kernel", "N"),
        method=_choice(cfg, "kernel", "method", ("lattice", "radial")),
    )
    kind = _choice(cfg, "kernel", "kind", kernel.KINDS)
    samples = []
    for t in _floats(cfg, "kernel", "t_list"):
        tcfg = kernel.scaled_config(qcfg, t)
        for r in _floats(cfg, "kernel", "x_list"):
            x = [r] + [0.0 * r] * (p.n - 1)  # r e1, in floats: no numpy warning at r = inf
            samples.append(kernel.eval_kernel(p, kind, sign, t, x, tcfg))
    kernel.samples_to_csv(outdir / "samples.csv", samples)
    report = kernel.check_bound(samples, p)
    _write_json(outdir / "kernel_bounds.json", kernel.bound_report_dict(report))
    flagged = sum(1 for s in samples if s.flagged)
    checks = [{
        "name": "kernel-scan",
        "verdict": "pass" if flagged == 0 else "fail",
        "details": {"samples": len(samples), "flagged": flagged,
                    "bounds": kernel.bound_report_dict(report)},
    }]
    return checks, {"samples.csv": "kernel samples",
                    "kernel_bounds.json": "envelope report"}


def cmd_decay_verify(cfg, outdir):
    p = _parse_symbol(cfg)
    part = _choice(cfg, "decay", "part", ("U", "V"))
    regime = _choice(cfg, "decay", "regime", ("small", "large"))
    route = _choice(cfg, "decay", "route", ("convolution", "multiplier"))
    lp = _fraction(cfg, "decay", "p")
    lq = math.inf if cfg["decay"]["q"].strip() == "inf" else _fraction(cfg, "decay", "q")
    qr = decay.ExponentQuery(part, regime, lp, lq, p.order, p.n, route)
    g = _grid(cfg, "decay", p.n)
    lo, hi = decay.DEFAULT_WINDOWS[qr.regime]
    t_grid = np.geomspace(lo, hi, _count(cfg, "decay", "t_count"))
    report = decay.verify_lp_lq(p, qr, grid=g, t_grid=t_grid)
    _write_json(outdir / "decay_report.json", report.to_dict())
    spectral.write_norm_series(outdir / "norms.csv", report.norm_rows)
    checks = [{
        "name": "decay-verify",
        "verdict": report.verdict,
        "details": report.to_dict(),
    }]
    return checks, {"decay_report.json": "exponent comparison",
                    "norms.csv": "normalized output-norm series"}


def cmd_regions(cfg, outdir):
    m = _int(cfg, "regions", "m")
    n = _int(cfg, "regions", "n")
    kind = cfg["regions"]["kind"]
    a_text = cfg["regions"]["a"].strip()
    a = _fraction(cfg, "regions", "a") if a_text else None
    if kind == "all":
        built = [regions.build_region("delta_m", m, n),
                 regions.build_region("AEF", m, n),
                 regions.build_region("hexagon", m, n)]
    else:
        built = [regions.build_region(kind, m, n, a=a)]
    payload = [regions.region_to_dict(r) for r in built]
    _write_json(outdir / "regions.json", payload if len(payload) > 1 else payload[0])
    with open(outdir / "regions.svg", "w", encoding="ascii") as fh:
        fh.write(regions.regions_svg(built))
    checks = [{
        "name": f"regions({r.kind})",
        "verdict": "pass",
        "details": regions.region_to_dict(r),
    } for r in built]
    return checks, {"regions.json": "vertex lists", "regions.svg": "index square"}


def cmd_all(cfg, outdir):
    checks, artifacts = [], {}
    for name in ("check-symbol", "solve", "kernel-scan", "decay-verify", "regions"):
        c, a = _run_pipeline(name, cfg, outdir)
        checks.extend(c)
        artifacts.update(a)
    return checks, artifacts


# ---------------------------------------------------------------------------
# Subcommand table.  A subcommand takes the flags of the config sections its
# pipeline reads, each setting the config key(s) listed with it; `fields` maps
# the `field` a library error blames to the config key(s) at fault.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subcommand:
    pipeline: object  # (cfg, outdir) -> (checks, artifacts)
    flags: dict  # flag -> config keys it sets
    fields: dict  # library error field -> config key(s) named in the message


SYMBOL_FLAGS = {"--poly": ("symbol.poly",), "--n": ("symbol.n",),
                "--m-expect": ("symbol.m_expect",)}
SYMBOL_FIELDS = {"poly": "symbol.poly"}
GRID_FLAGS = {"--grid-N": ("grid.N",), "--grid-L": ("grid.L",)}

COMMANDS = {
    "check-symbol": Subcommand(
        cmd_check_symbol,
        flags={**SYMBOL_FLAGS, "--seed": ("run.seed",)},
        fields=SYMBOL_FIELDS),
    "solve": Subcommand(
        cmd_solve,
        flags={**SYMBOL_FLAGS, **GRID_FLAGS, "--t-list": ("solve.t_list",)},
        fields={**SYMBOL_FIELDS, "N": "grid.N"}),
    "kernel-scan": Subcommand(
        cmd_kernel_scan,
        flags={**SYMBOL_FLAGS, "--kind": ("kernel.kind",), "--t-list": ("kernel.t_list",),
               "--x-list": ("kernel.x_list",), "--eps-list": ("kernel.eps_list",)},
        fields={**SYMBOL_FIELDS, "kind": "kernel.kind", "t": "kernel.t_list",
                "x": "kernel.x_list", "eps_list": "kernel.eps_list",
                "order": "kernel.order", "lattice_N": "kernel.N",
                "method": "kernel.method"}),
    "decay-verify": Subcommand(
        cmd_decay_verify,
        flags={**SYMBOL_FLAGS, "--part": ("decay.part",), "--regime": ("decay.regime",),
               "--p": ("decay.p",), "--q": ("decay.q",), "--route": ("decay.route",)},
        # the route picks the region kind; a RegionError without a field is an
        # index point outside the route's region
        fields={**SYMBOL_FIELDS, "m": "symbol.poly", "n": "symbol.n", "N": "decay.N",
                "p": "decay.p", "q": "decay.q", "kind": "decay.route",
                None: "decay.p, decay.q, decay.route"}),
    "regions": Subcommand(
        cmd_regions,
        flags={"--kind": ("regions.kind",), "--m": ("regions.m",), "--n": ("regions.n",),
               "--a": ("regions.a",)},
        fields={"kind": "regions.kind", "m": "regions.m", "n": "regions.n",
                "a": "regions.a"}),
    "all": Subcommand(
        cmd_all,
        flags={**SYMBOL_FLAGS, **GRID_FLAGS, "--n": ("symbol.n", "regions.n"),
               "--seed": ("run.seed",), "--t-list": ("solve.t_list",),
               "--eps-list": ("kernel.eps_list",)},
        fields={}),  # each pipeline of the loop names its own fields
}

# the field blamed by each library error class that carries none
_CLASS_FIELDS = {symbol.SymbolError: "poly", spectral.LatticePositivityError: "poly",
                 spectral.GridError: "N"}


def _run_pipeline(name, cfg, outdir):
    """Run COMMANDS[name]'s pipeline; a library error leaves it as a
    ConfigError naming the config key(s) its field maps to."""
    command = COMMANDS[name]
    try:
        return command.pipeline(cfg, outdir)
    except (*_CLASS_FIELDS, kernel.KernelConfigError, regions.RegionError) as exc:
        field = _CLASS_FIELDS[type(exc)] if type(exc) in _CLASS_FIELDS else exc.field
        names = field if isinstance(field, tuple) else (field,)
        keys = ", ".join(command.fields[f] for f in names if f in command.fields)
        raise ConfigError(f"field {keys}: {exc}" if keys else str(exc)) from exc


@cache  # built once per process: add_argument costs ~25 us a flag
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddlab",
        description="verification lab for wave-type equations u_tt + P(D)u = 0")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        cmd = sub.add_parser(name, allow_abbrev=False)  # --m is not --m-expect
        cmd.add_argument("--config", default=None, help="INI config file")
        cmd.add_argument("--out", default="out", help="output directory")
        for flag, keys in command.flags.items():
            cmd.add_argument(flag, help="sets " + ", ".join(keys))
    return parser


def _apply_flags(cfg, args):
    for flag, keys in COMMANDS[args.command].flags.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            for key in keys:
                sec, name = key.split(".")
                cfg[sec][name] = value


def run(argv) -> int:
    """Parse argv, execute the subcommand, write artifacts, return exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config)
        _apply_flags(cfg, args)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        checks, artifacts = _run_pipeline(args.command, cfg, outdir)
    except (ConfigError, decay.NormError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    report = {
        "tool": "ddlab",
        "version": VERSION,
        "command": args.command,
        "config": cfg,
        "checks": checks,
        "artifacts": sorted(artifacts),
    }
    _write_json(outdir / "report.json", report)
    ok = True
    for check in checks:
        verdict = check["verdict"]
        print(f"{args.command} {check['name']}: {verdict}")
        ok = ok and verdict in OK_VERDICTS
    return 0 if ok else 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
