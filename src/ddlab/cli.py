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
from fractions import Fraction
from functools import partial
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


def _floats(cfg, sec, key):
    def parse(text):
        return [float(v) for v in text.split(",") if v.strip()]
    return _field(cfg, sec, key, parse, "a non-empty comma-separated float list", bool)


def _grid(cfg, sec, n):
    N, L = _int(cfg, sec, "N"), _positive(cfg, sec, "L")
    try:
        return spectral.make_grid(n, N, L)
    except spectral.GridError as exc:
        raise ConfigError(f"field {sec}.N: {exc}") from exc


def _choice(cfg, sec, key, allowed):
    value = cfg[sec][key]
    if value not in allowed:
        raise ConfigError(f"field {sec}.{key} must be {' or '.join(allowed)}, "
                          f"got {value!r}")
    return value


def _write_json(path, obj):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommand pipelines.  Each returns (checks, artifacts) where checks is a
# list of {"name", "verdict", "details"} dicts.
# ---------------------------------------------------------------------------

def _parse_symbol(cfg):
    n = _count(cfg, "symbol", "n")
    try:
        p = symbol.parse_symbol(cfg["symbol"]["poly"], n)
    except symbol.SymbolError as exc:
        raise ConfigError(f"field symbol.poly: {exc}") from exc
    expect = cfg["symbol"]["m_expect"]
    if expect.strip():
        if p.order != _int(cfg, "symbol", "m_expect"):
            raise ConfigError(
                f"field symbol.m_expect: symbol has order {p.order}, expected {expect}")
    return p


def cmd_check_symbol(cfg, outdir):
    p = _parse_symbol(cfg)
    seed = _int(cfg, "run", "seed")
    if seed < 0:  # sphere_directions rejects a negative seed at every n
        raise ConfigError(f"field run.seed must be a non-negative integer, got {seed}")
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
    for t in _floats(cfg, "solve", "t_list"):
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
    sign = {"+": +1, "+1": +1, "1": +1, "-": -1, "-1": -1}.get(cfg["kernel"]["sign"].strip())
    if sign is None:
        raise ConfigError("field kernel.sign must be +, +1, 1, - or -1, "
                          f"got {cfg['kernel']['sign']!r}")
    try:
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
    except kernel.KernelConfigError as exc:
        if exc.field is None:
            raise
        names = (exc.field,) if isinstance(exc.field, str) else exc.field
        keys = {"lattice_N": "kernel.N", "t": "kernel.t_list", "x": "kernel.x_list",
                "poly": "symbol.poly"}
        fields = ", ".join(keys.get(name, f"kernel.{name}") for name in names)
        raise ConfigError(f"field {fields}: {exc}") from exc
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
    try:
        qr = decay.ExponentQuery(part, regime, lp, lq, p.order, p.n, route)
    except regions.RegionError as exc:
        raise ConfigError(f"field decay.{'q' if 1 <= lp <= 2 else 'p'}: {exc}") from exc
    g = _grid(cfg, "decay", p.n)
    lo, hi = decay.DEFAULT_WINDOWS[qr.regime]
    t_grid = np.geomspace(lo, hi, _count(cfg, "decay", "t_count"))
    try:
        report = decay.verify_lp_lq(p, qr, grid=g, t_grid=t_grid)
    except regions.RegionError as exc:
        # the route's region cannot be built for (m, n), or (1/p, 1/q) lies outside it
        try:
            decay.admissible_region(qr)
        except regions.RegionError as bad:
            field = {"m": "symbol.poly", "n": "symbol.n"}.get(bad.field, "decay.route")
            raise ConfigError(f"field {field}: {exc}") from exc
        raise ConfigError(f"fields decay.p, decay.q, decay.route: {exc}") from exc
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
    try:
        if kind == "all":
            built = [regions.build_region("delta_m", m, n),
                     regions.build_region("AEF", m, n),
                     regions.build_region("hexagon", m, n)]
        else:
            built = [regions.build_region(kind, m, n, a=a)]
    except regions.RegionError as exc:
        raise ConfigError(f"field regions.{exc.field or 'kind'}: {exc}") from exc
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
    for fn in (cmd_check_symbol, cmd_solve, cmd_kernel_scan, cmd_decay_verify,
               cmd_regions):
        c, a = fn(cfg, outdir)
        checks.extend(c)
        artifacts.update(a)
    return checks, artifacts


COMMANDS = {
    "check-symbol": cmd_check_symbol,
    "solve": cmd_solve,
    "kernel-scan": cmd_kernel_scan,
    "decay-verify": cmd_decay_verify,
    "regions": cmd_regions,
    "all": cmd_all,
}

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="INI config file")
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--seed", default=None)
    common.add_argument("--poly", default=None, help="symbol literal")
    common.add_argument("--n", default=None, help="space dimension")
    common.add_argument("--m-expect", dest="m_expect", default=None)
    common.add_argument("--grid-N", dest="grid_N", default=None)
    common.add_argument("--grid-L", dest="grid_L", default=None)
    common.add_argument("--t-list", dest="t_list", default=None)
    common.add_argument("--eps-list", dest="eps_list", default=None)

    parser = argparse.ArgumentParser(
        prog="ddlab",
        description="verification lab for wave-type equations u_tt + P(D)u = 0")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("check-symbol", parents=[common])
    sub.add_parser("solve", parents=[common])
    ker = sub.add_parser("kernel-scan", parents=[common])
    ker.add_argument("--kind", default=None)
    ker.add_argument("--x-list", dest="x_list", default=None)
    dec = sub.add_parser("decay-verify", parents=[common])
    dec.add_argument("--part", default=None)
    dec.add_argument("--regime", default=None)
    dec.add_argument("--p", default=None)
    dec.add_argument("--q", default=None)
    dec.add_argument("--route", default=None)
    reg = sub.add_parser("regions", parents=[common])
    reg.add_argument("--kind", default=None)
    reg.add_argument("--m", default=None)
    reg.add_argument("--a", default=None)
    sub.add_parser("all", parents=[common])
    return parser


def _apply_flags(cfg, args):
    scan = args.command == "kernel-scan"
    targets = {
        "poly": [("symbol", "poly")],
        "m_expect": [("symbol", "m_expect")],
        "grid_N": [("grid", "N")],
        "grid_L": [("grid", "L")],
        "seed": [("run", "seed")],
        "n": [("symbol", "n"), ("regions", "n")],
        "t_list": [("kernel" if scan else "solve", "t_list")],
        "eps_list": [("kernel", "eps_list")],
        "kind": [("kernel" if scan else "regions", "kind")],
        "x_list": [("kernel", "x_list")],
        "m": [("regions", "m")],
        "a": [("regions", "a")],
        **{attr: [("decay", attr)] for attr in ("part", "regime", "p", "q", "route")},
    }
    for attr, fields in targets.items():
        val = getattr(args, attr, None)
        if val is not None:
            for sec, key in fields:
                cfg[sec][key] = str(val)


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
        checks, artifacts = COMMANDS[args.command](cfg, outdir)
    except spectral.LatticePositivityError as exc:
        print(f"config error: field symbol.poly: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, symbol.SymbolError, regions.RegionError, decay.NormError,
            kernel.KernelConfigError, spectral.GridError) as exc:
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
