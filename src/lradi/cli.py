"""Benchmark command line.

Runs the low-rank ADI solver on a configured problem/strategy pair and
writes a per-iteration CSV, a summary JSON and a JSON-lines trace with
one line per multistep group (``SolveReport.groups``), written with the
group's CSV rows as it ends; ``compare`` runs several strategy configs
against identical problem data and consolidates the summaries into a
table.

Usage::

    python -m lradi run <config> [--out-dir D] [--seed N] [--max-iter N] [--tol X]
    python -m lradi compare <config> [<config> ...] [same flags]

Config files are flat ``key = value`` text (``#`` comments, quotes on
values optional), e.g.::

    problem  = cd2d
    n0       = 200
    s        = 1
    seed     = 7
    strategy = "resmin+Z(4)+gauss-newton"
    tol      = 1e-8
    max_iter = 150

Exit codes: 0 ok, 1 config error, 2 solver error (partial CSV, trace kept).
"""

import argparse
import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np

from .engine import LyapunovProblem, lr_adi_solve
from .linalg import MatrixMarketError, SingularShiftError, matrix_market_read
from .problems import gen_cd2d, gen_cd3d, gen_rhs
from .strategies import StrategyConfig, make_strategy


class ConfigError(ValueError):
    """Invalid config file, strategy string, or option combination."""


def parse_strategy(text):
    """Parse a strategy string into a StrategyConfig.

    Grammar (whitespace and case are ignored)::

        heur(J,p,m)
        Z(h)+heur | Z(h)+conv | Z(h)+Hres
        resmin+Z(h)+<opt> | resmin+EK(p,m)+<opt>

    with ``<opt>`` one of gauss-newton/gn/newton-trust/nt, and an
    optional ``, g=<int>`` suffix for multistep groups (resmin only).
    The rules on the numbers are StrategyConfig's; a string it refuses
    is a ConfigError with its message.
    """
    s = re.sub(r"\s+", "", str(text)).lower()
    if not s:
        raise ConfigError("empty strategy string")
    fields = {}
    mg = re.fullmatch(r"(.*),g=(\d+)", s)
    if mg:
        s, fields["g"] = mg.group(1), int(mg.group(2))

    if m := re.fullmatch(r"heur\((\d+),(\d+),(\d+)\)", s):
        J, p, mm = map(int, m.groups())
        fields.update(kind="heur", J=J, p=p, m=mm)
    elif m := re.fullmatch(r"z\((\d+)\)\+(heur|conv|hres)", s):
        fields.update(kind="z" + m.group(2), h=int(m.group(1)))
    elif m := re.fullmatch(r"resmin\+(?:z\((\d+)\)|ek\((\d+),(\d+)\))\+([a-z-]+)", s):
        h, p, mm, opt = m.groups()
        space = dict(h=int(h)) if h is not None else dict(subspace="EK", p=int(p), m=int(mm))
        fields.update(kind="resmin", optimizer=opt, **space)
    else:
        raise ConfigError(f"unrecognized strategy string {text!r}")
    try:
        return StrategyConfig(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclasses.dataclass
class RunConfig:
    """One benchmark run: problem + strategy + run parameters.

    The fields are the config keys with their types and defaults;
    ``strategy`` is the strategy string, and ``label`` defaults to the
    config file's stem.
    """

    problem: str
    strategy: str
    n0: int = 0
    s: int = 1
    seed: int = 0
    cx: float = 100.0
    cy: float = 1000.0
    cz: float = 10.0
    a_file: str = ""
    m_file: str = ""
    b_file: str = ""
    tol: float = 1e-8
    max_iter: int = 150
    out_dir: str = "."
    label: str = "run"

    def problem_key(self):
        """Identity of the problem data + run parameters (for compare):
        every field but the strategy, the output directory and the label."""
        return tuple(getattr(self, f.name) for f in dataclasses.fields(self)
                     if f.name not in ("strategy", "out_dir", "label"))


# config key -> RunConfig field
_KEYS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _read_pairs(path):
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    pairs = {}
    for i, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{i}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        value = value.strip("\"'")
        if key not in _KEYS:
            raise ConfigError(f"{path}:{i}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"{path}:{i}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def parse_config(path, overrides=None):
    """Parse a config file into a RunConfig, applying CLI overrides."""
    pairs = _read_pairs(path)
    for key, value in (overrides or {}).items():
        if value is not None:
            pairs[key] = str(value)

    values = {"label": Path(path).stem}
    for key, f in _KEYS.items():
        if key in pairs:
            value = pairs[key]
            try:
                values[key] = f.type(value) if f.type in (int, float) else value
            except ValueError as exc:
                raise ConfigError(f"{path}: bad value for {key}: {value!r}") from exc
        elif f.default is dataclasses.MISSING:
            raise ConfigError(f"{path}: missing required key {key!r}")
    values["problem"] = values["problem"].lower()
    if values["problem"] not in ("cd2d", "cd3d", "mm"):
        raise ConfigError(f"{path}: unknown problem {values['problem']!r}")
    parse_strategy(values["strategy"])
    cfg = RunConfig(**values)
    if not 0.0 < cfg.tol < 1.0:
        raise ConfigError(f"{path}: tol must be in (0, 1), got {cfg.tol}")
    if cfg.s < 1:
        raise ConfigError(f"{path}: s must be >= 1")
    if cfg.seed < 0:
        raise ConfigError(f"{path}: seed must be >= 0")
    if cfg.problem in ("cd2d", "cd3d") and cfg.n0 < 1:
        raise ConfigError(f"{path}: {cfg.problem} needs n0 >= 1")
    if cfg.problem == "mm" and not cfg.a_file:
        raise ConfigError(f"{path}: problem = mm needs a_file")
    # files are relative to the config's directory, so configs stay portable
    base = Path(path).resolve().parent
    for attr in ("a_file", "m_file", "b_file"):
        if getattr(cfg, attr):  # an absolute path stays as it is
            setattr(cfg, attr, str(base / getattr(cfg, attr)))
    return cfg


def build_problem(cfg):
    """Assemble (A, B[, M]) for a RunConfig into a LyapunovProblem."""
    M = None
    if cfg.problem == "cd2d":
        A = gen_cd2d(cfg.n0, cx=cfg.cx, cy=cfg.cy)
    elif cfg.problem == "cd3d":
        A = gen_cd3d(cfg.n0, cx=cfg.cx, cy=cfg.cy, cz=cfg.cz)
    else:
        try:
            A = matrix_market_read(cfg.a_file)
            if cfg.m_file:
                M = matrix_market_read(cfg.m_file)
        except (OSError, MatrixMarketError) as exc:
            raise ConfigError(f"cannot load matrix: {exc}") from exc
    if cfg.b_file:
        try:
            B = matrix_market_read(cfg.b_file).toarray()
        except (OSError, MatrixMarketError) as exc:
            raise ConfigError(f"cannot load rhs: {exc}") from exc
    else:
        B = gen_rhs(A.shape[0], cfg.s, cfg.seed)
    try:
        return LyapunovProblem(A, B, M=M, tol=cfg.tol, max_iterations=cfg.max_iter)
    except ValueError as exc:
        raise ConfigError(f"bad problem data: {exc}") from exc


_CSV_HEADER = "iter,res,shift_re,shift_im,t_shift_cum,t_total_cum"


def _fmt(x):
    return f"{float(x):.17g}"


def _trace_line(group):
    """One group record as a JSON line; a complex value ``x`` becomes
    ``x_re`` and ``x_im``, as the CSV writes the shift."""
    row = {}
    for key, value in group.items():
        if isinstance(value, complex):
            row[key + "_re"], row[key + "_im"] = value.real, value.imag
        else:
            row[key] = value
    return json.dumps(row) + "\n"


def _run_one(cfg, problem=None):
    """Run one config; returns (report, csv_path, json_path).

    Each multistep group's CSV rows and ``<label>.trace.jsonl`` line are
    written, line-buffered, as it ends, so a solver error mid-run leaves
    every completed group on disk. The summary follows the solve.
    """
    if problem is None:
        problem = build_problem(cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    strategy = make_strategy(parse_strategy(cfg.strategy))
    csv_path = out_dir / f"{cfg.label}.csv"
    json_path = out_dir / f"{cfg.label}.json"
    t_shift = 0.0
    with open(csv_path, "w", buffering=1) as csv_file, \
            open(out_dir / f"{cfg.label}.trace.jsonl", "w", buffering=1) as trace_file:
        csv_file.write(_CSV_HEADER + "\n")

        def on_group(state, group):
            nonlocal t_shift
            t_shift += group["next_shift_s"]
            for k in range(state.j - group["steps"], state.j):
                csv_file.write(f"{k + 1},{_fmt(state.res_history[k])},"
                               f"{_fmt(state.shifts[k].real)},{_fmt(state.shifts[k].imag)},"
                               f"{_fmt(t_shift)},{_fmt(group['elapsed_s'])}\n")
            trace_file.write(_trace_line(group))

        report = lr_adi_solve(problem, strategy, on_group=on_group)
    summary = {
        "iters": report.iterations,
        "t_total": report.t_total,
        "t_shift": report.t_shift,
        "final_residual": report.final_residual,
        "status": report.status,
        "n_factorizations": report.n_factorizations,
        "n": problem.n,
        "s": problem.s,
        "tol": problem.tol,
        "strategy": cfg.strategy,
    }
    json_path.write_text(json.dumps(summary, indent=2) + "\n")
    return report, csv_path, json_path


def cmd_run(cfg):
    report, csv_path, json_path = _run_one(cfg)
    print(f"{cfg.label}: {report.status} in {report.iterations} iterations, "
          f"residual {report.final_residual:.2e} "
          f"({report.t_total:.2f}s, shifts {report.t_shift:.2f}s)")
    print(f"wrote {csv_path}, {json_path} and {csv_path.with_suffix('.trace.jsonl')}")
    return 0


def cmd_compare(cfgs):
    """Run each strategy config sequentially on identical problem data."""
    keys = {cfg.problem_key() for cfg in cfgs}
    if len(keys) != 1:
        raise ConfigError("compare requires identical problem data and run "
                          "parameters across configs (only the strategy may "
                          "differ)")
    labels = [cfg.label for cfg in cfgs]
    if len(set(labels)) != len(labels):
        for i, cfg in enumerate(cfgs):
            cfg.label = f"{cfg.label}-{i + 1}"
    problem = build_problem(cfgs[0])
    rows = []
    for cfg in cfgs:
        report, _, _ = _run_one(cfg, problem=problem)
        rows.append((cfg.strategy, report))
        print(f"{cfg.label}: {report.status} in {report.iterations} "
              f"iterations, residual {report.final_residual:.2e}")

    out_dir = Path(cfgs[0].out_dir)
    table_csv = out_dir / "compare.csv"
    with open(table_csv, "w") as fh:
        fh.write("strategy,iters,t_total,t_shift,res\n")
        for text, rep in rows:
            fh.write(f"\"{text}\",{rep.iterations},{_fmt(rep.t_total)},"
                     f"{_fmt(rep.t_shift)},{_fmt(rep.final_residual)}\n")
    table_txt = out_dir / "compare.txt"
    header = ("strategy", "iters", "t_total", "t_shift", "res")
    cells = [header]
    for text, rep in rows:
        cells.append((text, str(rep.iterations), f"{rep.t_total:.2f}",
                      f"{rep.t_shift:.2f}", f"{rep.final_residual:.2e}"))
    widths = [max(len(row[c]) for row in cells) for c in range(len(header))]
    with open(table_txt, "w") as fh:
        for row in cells:
            fh.write("  ".join(col.ljust(w) for col, w in zip(row, widths)).rstrip() + "\n")
    print(f"wrote {table_csv} and {table_txt}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are config errors (exit 1)
        raise ConfigError(message)


def main(argv=None):
    parser = _Parser(prog="lradi", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, nargs in (("run", None), ("compare", "+")):
        p = sub.add_parser(name)
        if nargs:
            p.add_argument("configs", nargs=nargs)
        else:
            p.add_argument("config")
        p.add_argument("--out-dir", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--max-iter", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)

    try:
        args = parser.parse_args(argv)
        overrides = {"out_dir": args.out_dir, "seed": args.seed,
                     "max_iter": args.max_iter, "tol": args.tol}
        if args.command == "run":
            return cmd_run(parse_config(args.config, overrides))
        cfgs = [parse_config(path, overrides) for path in args.configs]
        return cmd_compare(cfgs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (SingularShiftError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2

