"""Batch front-end: experiment configs in, CSV/JSON/SVG artifacts out.

Subcommands: check-symbol, solve, kernel-scan, decay-verify, regions, all.
Configuration is layered: built-in defaults < INI config file < CLI flags.
Exit status: 0 when every check passes, 1 on failed verdicts, 2 on
usage/config errors; a run that exits 2 removes the artifacts it wrote.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import sys
from fractions import Fraction
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import decay, kernel, regions, spectral, symbol

VERSION = "0.1.0"

OK_VERDICTS = {"pass", "consistent"}
SOLVE_WIDTH = 1.5  # standard deviation of solve's Gaussian datum u0
KERNEL_EPS = (0.4, 0.2, 0.1)  # kernel-scan's damping ladder, extrapolated through every value


class ConfigError(ValueError):
    """Bad config file or flag value; maps to exit code 2."""


DEFAULTS = {
    "run": {"seed": "0"},
    "symbol": {"poly": "1 + |x|^4", "n": "2", "m_expect": ""},
    "grid": {"N": "64", "L": "12.0"},
    "solve": {"t_list": "0.5,1.0,2.0", "q": "4"},
    "kernel": {"kind": "I1", "sign": "+", "t_list": "0.25,0.5", "x_list": "0.0,1.0"},
    "decay": {"part": "V", "regime": "small", "p": "2", "q": "2", "route": "multiplier"},
    "regions": {"kind": "all", "m": "4", "n": "6", "a": ""},
}


def load_config(path=None) -> dict:
    """Layered configuration {section: {key: text}}: DEFAULTS, then the INI
    file at path.  Sections and keys are fixed by DEFAULTS; anything else in
    the file is rejected with the offending field named, and so is a file
    that configparser cannot parse.  Values are taken literally: a % is text."""
    sections = {sec: dict(keys) for sec, keys in DEFAULTS.items()}
    if path is None:
        return sections
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (N vs n)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        detail = " ".join(str(exc).split())  # one line, as every config error
        raise ConfigError(f"malformed config file {path}: {detail}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for sec in parser.sections():
        if sec not in sections:
            raise ConfigError(f"unknown config section [{sec}]")
        for key, value in parser.items(sec):
            if key not in sections[sec]:
                raise ConfigError(f"field {sec}.{key}: unknown key")
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
        raise ConfigError(f"field {sec}.{key}: must be {expected}, "
                          f"got {cfg[sec][key]!r}") from exc


_int = partial(_field, convert=int, expected="an integer")
_fraction = partial(_field, convert=Fraction, expected="a rational number")
_positive = partial(_field, convert=float, expected="a positive finite number",
                    valid=lambda value: 0 < value < math.inf)
_count = partial(_field, convert=int, expected="a positive integer",
                 valid=lambda value: value > 0)


def _float_list(text):
    return [float(v) for v in text.split(",") if v.strip()]


_finite_floats = partial(_field, convert=_float_list,
                         expected="a non-empty comma-separated list of finite numbers",
                         valid=lambda values: values and all(map(math.isfinite, values)))


def _grid(cfg, sec, n):
    return spectral.make_grid(n, _int(cfg, sec, "N"), _positive(cfg, sec, "L"))


def _choice(cfg, sec, key, allowed):
    return _field(cfg, sec, key, str, " or ".join(allowed), lambda value: value in allowed)


def _json_default(obj):
    """JSON form of the library's report types: an exact rational as "p/q",
    an index point as its pair (1/p, 1/q) and any other dataclass as its fields."""
    if isinstance(obj, Fraction):  # the most frequent case first
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, regions.IndexPoint):
        return obj.as_tuple()
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_json(path, obj):
    """obj as JSON; NaN and Infinity are not JSON, so a non-finite number
    raises ValueError before the file is opened."""
    text = json.dumps(obj, sort_keys=True, indent=2, default=_json_default, allow_nan=False)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# Subcommand pipelines.  Each returns (checks, artifacts) where checks is a
# list of {"name", "verdict", "details"} dicts.
# ---------------------------------------------------------------------------

def _parse_symbol(cfg):
    p = symbol.parse_symbol(cfg["symbol"]["poly"], _count(cfg, "symbol", "n"))
    expect = cfg["symbol"]["m_expect"]
    if expect.strip() and p.order != _int(cfg, "symbol", "m_expect"):
        raise ConfigError(f"field symbol.m_expect: symbol has order {p.order}, expected {expect}")
    return p


def cmd_check_symbol(cfg, outdir):
    p = _parse_symbol(cfg)
    # sphere_directions rejects a negative seed at every n
    seed = _field(cfg, "run", "seed", int, "a non-negative integer", lambda value: value >= 0)
    h1, h2 = symbol.check_hypotheses(p, seed)
    def witnesses(report):
        return [{"kind": w.kind, "point": w.point, "value": w.value} for w in report.witnesses]
    checks = [{
        "name": "H1",
        "verdict": "pass" if h1.passed else "fail",
        "details": {
            "sampled_min": h1.sampled_min,
            "description": h1.description,
            "witnesses": witnesses(h1),
        },
    }, {
        "name": "H2",
        "verdict": "pass" if h2.passed else "fail",
        "details": {
            "sphere_min_abs_det": h2.sampled_min,
            "sphere_max_abs_det": h2.sampled_max,
            "flags": list(h2.flags),
            "witnesses": witnesses(h2),
        },
    }]
    return checks, {}


def cmd_solve(cfg, outdir):
    p = _parse_symbol(cfg)
    g = _grid(cfg, "grid", p.n)
    xs = g.x_grids()
    u0 = np.exp(-sum(x**2 for x in xs) / (2.0 * SOLVE_WIDTH**2)).astype(complex)
    u1 = np.zeros(g.shape, dtype=complex)
    q_text = cfg["solve"]["q"]
    q = _field(cfg, "solve", "q", float, "a number >= 1 or inf", lambda value: value >= 1)
    norms = [decay.norm_reducer(v, g) for v in (2, q, math.inf)]
    rows = []
    e0 = None
    drift = 0.0
    clear = 1.0
    for t in _finite_floats(cfg, "solve", "t_list"):
        state = spectral.propagate(u0, u1, t, p, g)
        e = spectral.energy(state, p, g)
        e0 = e if e0 is None else e0
        drift = max(drift, abs(e - e0) / max(e0, 1e-300))
        s = spectral.abs_squared(state.u)  # the row and the clearance read |u|^2
        clear = min(clear, spectral.box_clearance(s, g))
        rows.append((t, *(norm(s) for norm in norms)))
    spectral.write_norm_series(outdir / "solve_norms.csv", rows)
    tail = spectral.spectral_tail_fraction(np.fft.fftn(u0), g)
    checks = [{
        "name": "energy-conservation",
        "verdict": "pass" if drift <= 1e-9 else "fail",
        "details": {"relative_drift": drift, "clearance": clear,
                    "nyquist_tail": tail, "norm_q": q_text},
    }]
    return checks, {"solve_norms.csv": "t,l2,lq,linf series"}


def cmd_kernel_scan(cfg, outdir):
    p = _parse_symbol(cfg)
    signs = {"+": +1, "+1": +1, "1": +1, "-": -1, "-1": -1}
    sign = _field(cfg, "kernel", "sign", lambda text: signs.get(text.strip()),
                  "+, +1, 1, - or -1", lambda value: value is not None)
    kernel.mu_nu(p.order, p.n)  # the envelopes need order m > 2: fail before sampling
    qcfg = kernel.QuadConfig(
        eps_list=KERNEL_EPS, order=len(KERNEL_EPS) - 1,
        method="lattice" if p.n <= kernel.LATTICE_MAX_N else "radial")
    kind = _choice(cfg, "kernel", "kind", kernel.KINDS)
    samples = []
    for t in _finite_floats(cfg, "kernel", "t_list"):
        tcfg = kernel.scaled_config(qcfg, t)
        for r in _finite_floats(cfg, "kernel", "x_list"):
            x = [r] + [0.0] * (p.n - 1)  # r e1
            samples.append(kernel.eval_kernel(p, kind, sign, t, x, tcfg))
    kernel.samples_to_csv(outdir / "samples.csv", samples)
    report = kernel.check_bound(samples, p)
    _write_json(outdir / "kernel_bounds.json", report)
    flagged = sum(1 for s in samples if s.flagged)
    checks = [{
        "name": "kernel-scan",
        "verdict": "pass" if flagged == 0 else "fail",
        "details": {"samples": len(samples), "flagged": flagged,
                    "bounds": report},
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
    report = decay.verify_lp_lq(p, qr, grid=_grid(cfg, "grid", p.n))
    details = report.to_dict()  # decay_report.json and the check's details
    _write_json(outdir / "decay_report.json", details)
    spectral.write_norm_series(outdir / "norms.csv", report.norm_rows)
    checks = [{"name": "decay-verify", "verdict": report.verdict, "details": details}]
    return checks, {"decay_report.json": "exponent comparison",
                    "norms.csv": "normalized output-norm series"}


def cmd_regions(cfg, outdir):
    m = _int(cfg, "regions", "m")
    n = _int(cfg, "regions", "n")
    kind = cfg["regions"]["kind"]
    a = _fraction(cfg, "regions", "a") if cfg["regions"]["a"].strip() else None
    kinds = ("delta_m", "AEF", "hexagon") if kind == "all" else (kind,)
    built = [regions.build_region(k, m, n, a=a) for k in kinds]
    _write_json(outdir / "regions.json", built if len(built) > 1 else built[0])
    with open(outdir / "regions.svg", "w", encoding="ascii") as fh:
        fh.write(regions.regions_svg(built))
    checks = [{
        "name": f"regions({r.kind})",
        "verdict": "pass",
        "details": r,
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

@dataclasses.dataclass(frozen=True)
class Subcommand:
    pipeline: object  # (cfg, outdir) -> (checks, artifacts)
    flags: dict  # flag -> config keys it sets
    fields: dict  # library error field -> config key(s) named in the message


SYMBOL_FLAGS = {"--poly": ("symbol.poly",), "--n": ("symbol.n",),
                "--m-expect": ("symbol.m_expect",)}
SYMBOL_FIELDS = {"poly": "symbol.poly"}
GRID_FLAGS = {"--grid-N": ("grid.N",), "--grid-L": ("grid.L",)}
GRID_FIELDS = {"N": "grid.N", "L": "grid.L"}

COMMANDS = {
    "check-symbol": Subcommand(
        cmd_check_symbol,
        flags={**SYMBOL_FLAGS, "--seed": ("run.seed",)},
        fields=SYMBOL_FIELDS),
    "solve": Subcommand(
        cmd_solve,
        flags={**SYMBOL_FLAGS, **GRID_FLAGS, "--t-list": ("solve.t_list",)},
        # a GridError without a field is a state that overflowed, sqrt(P) t
        # not finite: P on a lattice whose xi_max = pi N/(2L) is too large, or t
        fields={**SYMBOL_FIELDS, **GRID_FIELDS, None: "grid.L, solve.t_list"}),
    "kernel-scan": Subcommand(
        cmd_kernel_scan,
        flags={**SYMBOL_FLAGS, "--kind": ("kernel.kind",), "--t-list": ("kernel.t_list",),
               "--x-list": ("kernel.x_list",)},
        # |t| < 1 scales the fixed ladder, so an eps_list fault is a |t| too small;
        # a method fault is a non-radial symbol above the lattice's dimension limit
        fields={**SYMBOL_FIELDS, "kind": "kernel.kind", "t": "kernel.t_list",
                "x": "kernel.x_list", "eps_list": "kernel.t_list",
                "method": "symbol.poly, symbol.n"}),
    "decay-verify": Subcommand(
        cmd_decay_verify,
        flags={**SYMBOL_FLAGS, "--part": ("decay.part",), "--regime": ("decay.regime",),
               "--p": ("decay.p",), "--q": ("decay.q",), "--route": ("decay.route",)},
        # the route picks the region kind; a RegionError without a field is an
        # index point outside the route's region
        fields={**SYMBOL_FIELDS, **GRID_FIELDS, "m": "symbol.poly", "n": "symbol.n",
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
               "--seed": ("run.seed",), "--t-list": ("solve.t_list",)},
        fields={}),  # each pipeline of the loop names its own fields
}

# the field blamed by each library error class that carries none
_CLASS_FIELDS = {symbol.SymbolError: "poly", spectral.LatticePositivityError: "poly"}


def _run_pipeline(name, cfg, outdir):
    """Run COMMANDS[name]'s pipeline; a library error leaves it as a
    ConfigError naming the config key(s) its field maps to."""
    command = COMMANDS[name]
    try:
        return command.pipeline(cfg, outdir)
    except (*_CLASS_FIELDS, spectral.GridError, kernel.KernelConfigError,
            regions.RegionError) as exc:
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
    outdir, kept = Path(args.out), None
    try:
        cfg = load_config(args.config)
        _apply_flags(cfg, args)
        made = [d for d in (outdir, *outdir.parents) if not d.exists()]  # innermost first
        outdir.mkdir(parents=True, exist_ok=True)
        kept = set(outdir.iterdir())
        checks, artifacts = _run_pipeline(args.command, cfg, outdir)
    except (ConfigError, decay.NormError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        if kept is not None:  # a run that exits 2 leaves only what was there before it
            for path in set(outdir.iterdir()) - kept:
                path.unlink()
            for d in made:
                d.rmdir()
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
