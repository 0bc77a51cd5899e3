"""Command-line entry point: gen / certify / oracle / witness / sweep.

Reports are line-oriented ``key=value`` text with stable keys, so runs are
diffable and re-runnable from their own header.  Exit codes: 0 success,
2 contradiction witness, 3 usage error, 4 resource guard exceeded or out of memory.

Every command is deterministic given its flags.
"""

from __future__ import annotations

import argparse
import functools
import statistics
import sys
import time
from fractions import Fraction

from . import __version__
from .certify import DEFAULT_TOL, SpectralNormError, certify, check_tol
from .instances import (
    GeneratorConfig,
    Instance,
    ParseError,
    check_eps,
    digest,
    generate,
    parse,
    read_header,
    read_number,
    serialize,
)
from .oracle import ResourceGuardError, assemble, classical_max, lambda_max
from .pauli import site_mask
from .sos import (
    Contradiction,
    ExactComplex,
    MomentOracle,
    boundary_expansion_check,
    lift_classical,
    max_entropy_build,
    moment_rows,
    positivity_check,
)

EXIT_OK = 0
EXIT_CONTRADICTION = 2
EXIT_USAGE = 3
EXIT_RESOURCE = 4

_MODEL_ALIASES = {
    "rademacher": "rademacher-semirandom",
    "gaussian": "gaussian-semirandom",
    "rademacher-semirandom": "rademacher-semirandom",
    "gaussian-semirandom": "gaussian-semirandom",
    "random": "random",
    "one-basis-z": "one-basis-z",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _header(args) -> list[str]:
    """The report header: one ``config.<flag>=<value>`` line per flag of the command but
    ``--out``, sorted, so the report can be re-run from it."""
    config = {"in" if key == "infile" else key: value for key, value in vars(args).items()
              if key not in ("command", "func", "out")}
    lines = [f"HKXOR-REPORT v1", f"command={args.command}", f"version={__version__}"]
    for key, value in sorted(config.items()):
        value = " ".join(value) if isinstance(value, list) else value  # --expansion BETA D
        lines.append(f"config.{key}={'' if value is None else value}")
    return lines


def _load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _cmd_gen(args) -> int:
    cfg = GeneratorConfig(n=args.n, k=args.k, m=args.m,
                          model=_MODEL_ALIASES[args.model], seed=args.seed)
    inst = generate(cfg)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize(inst))
    return EXIT_OK


def _cmd_certify(args) -> int:
    inst = _load_instance(args.infile)
    start = time.perf_counter()
    cert = certify(inst, args.ell, eps=args.eps, tol=args.tol, solver_seed=args.solver_seed)
    lines = _header(args)
    lines += cert.report_lines()
    lines.append(f"total_time_s={time.perf_counter() - start:.3f}")
    _emit(lines, args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    inst = _load_instance(args.infile)
    start = time.perf_counter()
    lines = _header(args)
    lines.append(f"digest={digest(inst)}")
    if args.expansion:
        try:
            beta, d = read_number(args.expansion[0], float), read_number(args.expansion[1])
        except ValueError:
            raise ValueError("--expansion needs a number BETA and a whole number D, got "
                             + " ".join(args.expansion)) from None
        report = boundary_expansion_check(inst.sites.tolist(), beta, d)
    lam = lambda_max(assemble(inst))
    lines.append(f"lambda_max={lam!r}")
    if inst.is_one_basis():
        value, argmax = classical_max(inst)
        lines.append(f"classical.value={value!r}")
        lines.append("classical.argmax=" + ",".join(str(v) for v in argmax))
    if args.expansion:
        lines.append(f"expansion.beta={beta!r}")
        lines.append(f"expansion.d={d}")
        lines.append(f"expansion.pass={int(report.passed)}")
        lines.append(f"expansion.exhaustive={int(report.exhaustive)}")
        for size, boundary in report.profile:
            lines.append(f"expansion.min_boundary.{size}={boundary}")
        if report.witness is not None:
            lines.append("expansion.witness=" + ",".join(str(i) for i in report.witness))
    lines.append(f"total_time_s={time.perf_counter() - start:.3f}")
    _emit(lines, args.out)
    return EXIT_OK


def _parse_moments(path: str) -> MomentOracle:
    with open(path, "r", encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    n, d = read_header(rows[0] if rows else "", "PMOM", "v1", ("n", "d"))
    try:
        n, d = read_number(n), read_number(d)
    except ValueError:
        raise ParseError(1, "header fields n and d must be integers") from None
    values: dict[int, object] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row.strip():
            continue
        toks = row.split()
        if len(toks) != 2:
            raise ParseError(lineno, f"expected '<sites> <value>', got {len(toks)} tokens")
        sites_str, value_str = toks
        try:
            sites = [] if sites_str == "-" else [read_number(tok) for tok in sites_str.split(",")]
        except ValueError:
            raise ParseError(lineno, f"bad site list {sites_str!r}") from None
        for site in sites:
            if not 1 <= site <= n:
                raise ParseError(lineno, f"site {site} out of range")
        if len(set(sites)) != len(sites):
            raise ParseError(lineno, f"repeated site in {sites_str!r}")
        try:
            value = read_number(value_str, Fraction)
        except (ValueError, ZeroDivisionError):
            raise ParseError(lineno, f"bad moment value {value_str!r}") from None
        mask = site_mask(s - 1 for s in sites)
        if mask in values:
            raise ParseError(lineno, f"monomial {sites_str!r} listed twice")
        values[mask] = ExactComplex.of(value)
    return MomentOracle(n=n, degree=d, values=values)


def _cmd_witness(args) -> int:
    inst = _load_instance(args.infile)
    lines = _header(args)
    lines.append(f"digest={digest(inst)}")
    if args.lift:
        moments = _parse_moments(args.lift)
        pe = lift_classical(inst, moments, args.degree)
        lines.append("kind=lifted")
    else:
        result = max_entropy_build(inst, args.degree)
        if isinstance(result, Contradiction):
            lines.append("kind=contradiction")
            lines += result.dump_lines()
            _emit(lines, args.out)
            return EXIT_CONTRADICTION
        pe = result
        lines.append("kind=max-entropy")
        lines.append(f"experimental={int(pe.experimental)}")
        if pe.obstructions:
            lines.append("obstruction_pairs=" +
                         ";".join(f"{i},{j}" for i, j in pe.obstructions))
    energy = pe.energy(inst)
    lines.append(f"energy={energy}")
    lines.append(f"positivity.rows={moment_rows(pe.n, args.degree)}")
    try:
        min_eig, passed = positivity_check(pe, args.degree)
        lines.append(f"positivity.min_eig={min_eig!r}")
        lines.append(f"positivity.pass={int(passed)}")
    except ResourceGuardError as exc:
        lines.append(f"positivity.skipped={exc}")
    lines.append("")
    lines.append(pe.dump().rstrip("\n"))
    _emit(lines, args.out)
    return EXIT_OK


def _sweep_cell(base: dict, m: int, seed: int):
    cfg = GeneratorConfig(n=base["n"], k=base["k"], m=m, model=base["model"], seed=seed)
    inst = generate(cfg)
    cert = certify(inst, base["ell"], eps=base["eps"], tol=base["tol"],
                   solver_seed=base["solver_seed"])
    return cert.algval


def _cmd_sweep(args) -> int:
    tokens = args.m_grid.split(",")
    if "" in tokens:
        raise ValueError(f"empty entry in --m-grid {args.m_grid!r}")
    try:
        m_grid = [int(tok) for tok in tokens]
    except ValueError:
        raise ValueError(f"bad --m-grid value {args.m_grid!r}") from None
    if len(set(m_grid)) != len(m_grid):
        raise ValueError(f"repeated m in --m-grid {args.m_grid!r}")
    if min(m_grid) < 1:
        raise ValueError(f"m must be at least 1 in --m-grid {args.m_grid!r}")
    if args.seeds < 1:
        raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
    check_eps(args.eps)
    check_tol(args.tol)
    seeds = list(range(args.seeds))
    base = {"n": args.n, "k": args.k, "ell": args.ell, "eps": args.eps,
            "tol": args.tol, "model": _MODEL_ALIASES[args.model],
            "solver_seed": args.solver_seed}
    cells = [(m, seed) for m in m_grid for seed in seeds]
    algvals = [_sweep_cell(base, *cell) for cell in cells]

    threshold = 0.5 + args.eps
    lines = _header(args)
    for (m, seed), algval in zip(cells, algvals):
        lines.append(f"cell.m={m}.seed={seed}.algval={algval!r}")
        lines.append(f"cell.m={m}.seed={seed}.success={int(algval <= threshold)}")
    for m in m_grid:
        vals = [algval for (mm, _), algval in zip(cells, algvals) if mm == m]
        frac = sum(v <= threshold for v in vals) / len(vals)
        lines.append(f"agg.m={m}.count={len(vals)}")
        lines.append(f"agg.m={m}.success_fraction={frac!r}")
        lines.append(f"agg.m={m}.median_algval={statistics.median(vals)!r}")
    _emit(lines, args.out)
    return EXIT_OK


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="hkxor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=int, required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--model", choices=sorted(_MODEL_ALIASES), default="rademacher")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    cert = sub.add_parser("certify", help="certify an upper bound on the maximum energy")
    cert.add_argument("--in", dest="infile", required=True)
    cert.add_argument("--ell", type=int, required=True)
    cert.add_argument("--eps", type=float, default=0.5)
    cert.add_argument("--tol", type=float, default=DEFAULT_TOL)
    cert.add_argument("--solver-seed", type=int, default=0)
    cert.add_argument("--out", default=None)
    cert.set_defaults(func=_cmd_certify)

    oracle = sub.add_parser("oracle", help="exact dense reference values")
    oracle.add_argument("--in", dest="infile", required=True)
    oracle.add_argument("--expansion", nargs=2, metavar=("BETA", "D"), default=None)
    oracle.add_argument("--out", default=None)
    oracle.set_defaults(func=_cmd_oracle)

    wit = sub.add_parser("witness", help="build a pseudo-expectation witness")
    wit.add_argument("--in", dest="infile", required=True)
    wit.add_argument("--degree", type=int, required=True)
    wit.add_argument("--lift", default=None, help="classical moments file (PMOM v1)")
    wit.add_argument("--out", default=None)
    wit.set_defaults(func=_cmd_witness)

    sweep = sub.add_parser("sweep", help="grid of certificates over (m, seed)")
    sweep.add_argument("--n", type=int, required=True)
    sweep.add_argument("--k", type=int, required=True)
    sweep.add_argument("--ell", type=int, required=True)
    sweep.add_argument("--eps", type=float, required=True)
    sweep.add_argument("--model", choices=sorted(_MODEL_ALIASES), default="rademacher")
    sweep.add_argument("--m-grid", required=True, help="comma-separated m values")
    sweep.add_argument("--seeds", type=int, required=True)
    sweep.add_argument("--tol", type=float, default=DEFAULT_TOL)
    sweep.add_argument("--solver-seed", type=int, default=0)
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ResourceGuardError as exc:
        print(f"hkxor: resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError as exc:
        print(f"hkxor: out of memory: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"hkxor: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SpectralNormError as exc:
        print(f"hkxor: solver failure: {exc} (best estimate {exc.best_estimate})",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
