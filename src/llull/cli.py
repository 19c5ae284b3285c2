"""Command-line interface.

Subcommands map onto the library layers: tally (full rating pipeline),
analyze (structure report), project (CLC projection), strengths
(maximum-likelihood solve without projection), compare (rating methods
side by side), selfcheck (invariant suite on the given input).

Exit codes: 0 success, 1 failed selfcheck, 2 parse/input errors,
3 solver/processing errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from .ballots import TiePolicy, aggregate, parse_ballots
from .errors import (
    LlullError,
    MatrixValidationError,
    ParseError,
)
from .matrix import (
    LlullMatrix,
    margins_turnouts,
    mean_preference_scores,
    mean_ranks,
    mean_relative_scores,
    restrict,
)
from .projection import clc_project, verify_projection
from .rates import (
    check_strength_score_compatibility,
    eigenvector_rates,
    fraction_like_rates,
)
from .structure import analyze_structure
from .zermelo import (
    SolverConfig,
    Strengths,
    log_likelihood_gradient,
    residual_vector,
    solve,
)

DEFAULT_TOL = 1e-12


def _sniff_kind(text: str) -> str:
    # Lines end at '\n' or '\r', as in parse_ballots (str.splitlines would
    # end a comment at '\x1c' and sniff its tail), and only the lines up
    # to the first one with content are split off.
    for match in re.finditer(r"[^\r\n]+", text):
        line = match.group().strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("{"):
            return "matrix"
        if line.startswith("options:"):
            return "ballots"
        if line.split(",")[0].strip() == "option":
            return "matrix"
        return "ballots"
    return "ballots"


def _load(text: str, kind: str | None, ties: TiePolicy) -> LlullMatrix:
    kind = kind or _sniff_kind(text)
    if kind == "ballots":
        return aggregate(parse_ballots(text), ties)
    if text.lstrip().startswith("{"):
        return LlullMatrix.from_json(text)
    return LlullMatrix.from_csv(text)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in rows), default=0))
        for i in range(len(headers))
    ]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for r in rows:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(r))).rstrip())
    return "\n".join(lines) + "\n"


def _cmd_tally(M: LlullMatrix, args) -> str:
    report = fraction_like_rates(M, _solver_config(args))
    if args.format == "json":
        return json.dumps(report.to_json_dict(), indent=2) + "\n"
    if args.format == "csv":
        return report.to_csv()
    rows = [
        [label, _fmt(report.fraction.value(label)), _fmt(report.rank_like.value(label))]
        for label in M.labels
    ]
    out = _table(["option", "fraction", "rank_like"], rows)
    for warning in report.warnings:
        out += f"warning: {warning}\n"
    d = report.diagnostics
    out += f"solver: {d.iterations} iterations, residual {_fmt(d.residual)}\n"
    return out


def _cmd_analyze(M: LlullMatrix, args) -> str:
    report = analyze_structure(M)
    if args.format == "json":
        return json.dumps(report.to_json_dict(), indent=2) + "\n"
    if args.format == "csv":
        lines = ["option,component"]
        for k, comp in enumerate(report.components):
            lines += [f"{label},{k}" for label in comp]
        return "\n".join(lines) + "\n"
    out = ""
    for k, comp in enumerate(report.components):
        tag = " (top dominant)" if report.top_dominant == k else ""
        out += f"component {k}{tag}: {' '.join(comp)}\n"
    out += "dominance: " + (
        ", ".join(f"{a}>{b}" for a, b in report.dominance) if report.dominance else "none"
    ) + "\n"
    out += f"irreducible: {'true' if report.irreducible else 'false'}\n"
    if report.order is None:
        out += "admissible order: none\n"
    else:
        out += f"admissible order: {' '.join(report.order.labels)}\n"
        conds = report.clc.conditions
        out += "clc: " + ", ".join(f"{c}={'ok' if v else 'FAIL'}" for c, v in conds.items()) + "\n"
    return out


def _cmd_project(M: LlullMatrix, args) -> str:
    result = clc_project(M)
    if args.format == "json":
        payload = {
            "matrix": result.matrix.to_json_dict(),
            "order": list(result.order.labels),
            "fixed_point": result.fixed_point,
        }
        return json.dumps(payload, indent=2) + "\n"
    if args.format == "csv":
        return result.matrix.to_csv()
    out = result.matrix.to_csv()
    out += f"order: {' '.join(result.order.labels)}\n"
    out += f"fixed_point: {'true' if result.fixed_point else 'false'}\n"
    return out


def _cmd_strengths(M: LlullMatrix, args) -> str:
    strengths, diagnostics = solve(M, _solver_config(args))
    if args.format == "json":
        payload = {
            "options": list(M.labels),
            "phi": [float(x) for x in strengths.phi],
            "support": list(strengths.support),
            "diagnostics": diagnostics.to_json_dict(),
        }
        return json.dumps(payload, indent=2) + "\n"
    if args.format == "csv":
        lines = ["option,strength"]
        lines += [f"{label},{strengths.value(label)!r}" for label in M.labels]
        return "\n".join(lines) + "\n"
    rows = [[label, _fmt(strengths.value(label))] for label in M.labels]
    out = _table(["option", "strength"], rows)
    out += f"support: {' '.join(strengths.support)}\n"
    out += f"solver: {diagnostics.iterations} iterations, residual {_fmt(diagnostics.residual)}\n"
    return out


def _cmd_compare(M: LlullMatrix, args) -> str:
    report = fraction_like_rates(M, _solver_config(args))
    rho = mean_preference_scores(M) if M.n > 1 else None
    ranks = mean_ranks(M) if M.n > 1 else None
    eigen = None if M.is_vanishing() else eigenvector_rates(M)
    columns = {
        "fraction": [report.fraction.value(x) for x in M.labels],
        "mean_score": [rho.value(x) for x in M.labels] if rho else [1.0] * M.n,
        "mean_rank": [ranks.value(x) for x in M.labels] if ranks else [1.0] * M.n,
        "eigen": [eigen.value(x) for x in M.labels] if eigen else None,
    }
    if args.format == "json":
        payload = {"options": list(M.labels), **columns}
        return json.dumps(payload, indent=2) + "\n"
    if args.format == "csv":
        lines = ["option,fraction,mean_score,mean_rank,eigen"]
        for i, label in enumerate(M.labels):
            eig = repr(columns["eigen"][i]) if columns["eigen"] else ""
            lines.append(
                f"{label},{columns['fraction'][i]!r},{columns['mean_score'][i]!r},"
                f"{columns['mean_rank'][i]!r},{eig}"
            )
        return "\n".join(lines) + "\n"
    rows = []
    for i, label in enumerate(M.labels):
        eig = _fmt(columns["eigen"][i]) if columns["eigen"] else "n/a"
        rows.append(
            [
                label,
                _fmt(columns["fraction"][i]),
                _fmt(columns["mean_score"][i]),
                _fmt(columns["mean_rank"][i]),
                eig,
            ]
        )
    return _table(["option", "fraction", "mean_score", "mean_rank", "eigen"], rows)


def _sigma_rho_reversed(rho: np.ndarray, sigma: np.ndarray) -> bool:
    """Some pair has a decisive mean-score gap against a decisive opposite sigma gap."""
    ahead = rho[:, None] - rho[None, :] > 1e-9
    behind = sigma[None, :] - sigma[:, None] > 1e-9
    return bool((ahead & behind).any())


def _selfcheck(M: LlullMatrix, args) -> tuple[list[tuple[str, bool, str]], int]:
    cfg = _solver_config(args)
    checks: list[tuple[str, bool, str]] = []

    def add(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, ok, detail))

    m, t = margins_turnouts(M)
    recovered = (t + m) / 2.0
    err = float(np.abs(recovered - M.scores).max(initial=0.0))
    add("margin-turnout-roundtrip", err <= 1e-15, f"max error {err:.3e}")

    report = fraction_like_rates(M, cfg)
    result = report.projection
    add("projection-clc", True, "gate passed")
    twice = clc_project(result.matrix)
    drift = float(np.abs(twice.matrix.scores - result.matrix.scores).max(initial=0.0))
    add("projection-idempotent", twice.fixed_point, f"drift {drift:.3e}")
    checks_report = verify_projection(M, result)
    add("projection-consistency", checks_report.ok, "; ".join(checks_report.issues))

    if result.matrix.is_vanishing():
        add("stationarity", True, "skipped: vanishing matrix")
        add("gradient", True, "skipped: vanishing matrix")
    else:
        # The rates are solve's strengths on the projection; they are
        # positive exactly on its top component.
        phi = report.fraction.values
        top = phi > 0.0
        support = tuple(x for x, inside in zip(M.labels, top) if inside)
        sub = restrict(result.matrix, support) if len(support) > 1 else None
        if sub is None:
            add("stationarity", True, "singleton support")
            add("gradient", True, "singleton support")
        else:
            phi_sub = phi[top]
            res = float(np.abs(residual_vector(sub, phi_sub)).max())
            add("stationarity", res <= 10 * cfg.tol, f"residual {res:.3e}")
            g = log_likelihood_gradient(sub, phi_sub)
            scaled = float(np.abs(g * phi_sub).max())
            add("gradient", scaled <= 10 * cfg.tol, f"scaled gradient {scaled:.3e}")
        compat = check_strength_score_compatibility(result, Strengths(M.option_set, phi, support))
        add("strength-score-compatibility", compat.ok, "; ".join(compat.issues))

    t_out = result.matrix.scores + result.matrix.scores.T
    off = ~np.eye(M.n, dtype=bool)
    if M.n > 1 and (t_out[off] > 0.0).all():
        rho = mean_preference_scores(result.matrix).values
        sigma = mean_relative_scores(result.matrix).values
        add("sigma-rho-order", not _sigma_rho_reversed(rho, sigma))
    else:
        add("sigma-rho-order", True, "skipped: zero turnouts")

    rng = np.random.default_rng(args.seed)
    delta = 1e-6
    worst = 0.0
    for _ in range(3):
        q = rng.uniform(0.0, 1.0, size=(M.n, M.n))
        W = np.triu(q, 1)
        W = W + np.triu(1.0 - q, 1).T
        perturbed = LlullMatrix(M.option_set, (1.0 - delta) * M.scores + delta * W)
        moved = fraction_like_rates(perturbed, cfg)
        worst = max(
            worst,
            float(np.abs(moved.fraction.values - report.fraction.values).max(initial=0.0)),
        )
    add("continuity-probe", worst <= 10.0 * delta + 1e-8, f"max rate shift {worst:.3e}")
    code = 0 if all(ok for _, ok, _ in checks) else 1
    return checks, code


def _cmd_selfcheck(M: LlullMatrix, args) -> tuple[str, int]:
    checks, code = _selfcheck(M, args)
    if args.format == "json":
        payload = {
            "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
            "ok": code == 0,
        }
        return json.dumps(payload, indent=2) + "\n", code
    if args.format == "csv":
        lines = ["check,ok"] + [f"{n},{str(ok).lower()}" for n, ok, _ in checks]
        return "\n".join(lines) + "\n", code
    out = ""
    for name, ok, detail in checks:
        tail = f" ({detail})" if detail else ""
        out += f"{'PASS' if ok else 'FAIL'} {name}{tail}\n"
    return out, code


def _solver_config(args) -> SolverConfig:
    return SolverConfig(tol=args.tol, max_iter=args.max_iter)


def _run_one(args, path: str) -> tuple[int, str]:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        return 2, f"error: cannot read {path}: {exc}\n"
    try:
        M = _load(text, args.in_kind, TiePolicy(args.ties))
        if args.command == "tally":
            return 0, _cmd_tally(M, args)
        if args.command == "analyze":
            return 0, _cmd_analyze(M, args)
        if args.command == "project":
            return 0, _cmd_project(M, args)
        if args.command == "strengths":
            return 0, _cmd_strengths(M, args)
        if args.command == "compare":
            return 0, _cmd_compare(M, args)
        out, code = _cmd_selfcheck(M, args)
        return code, out
    except (ParseError, MatrixValidationError, ValueError) as exc:
        return 2, f"error: {path}: {exc}\n"
    except LlullError as exc:
        return 3, f"error: {path}: {exc}\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="llull",
        description="Tally ranked ballots into fraction-like rates via "
        "CLC projection and maximum-likelihood strengths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "tally": "full pipeline: fraction-like and rank-like rates",
        "analyze": "components, dominance, and CLC verdict",
        "project": "CLC projection of the matrix",
        "strengths": "maximum-likelihood strengths without projection",
        "compare": "rating methods side by side",
        "selfcheck": "run the invariant suite on the input",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--in",
            dest="inputs",
            metavar="PATH",
            action="append",
            required=True,
            help="input file; repeat for several",
        )
        p.add_argument("--in-kind", choices=("ballots", "matrix"), default=None)
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--tol", type=float, default=None, help="solver tolerance")
        p.add_argument("--max-iter", type=int, default=100000)
        p.add_argument("--ties", choices=("half", "abstain"), default="half")
        if name == "selfcheck":
            p.add_argument("--seed", type=int, default=0, help="perturbation probe seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.tol is None:
        env = os.environ.get("LLULL_TOL")
        try:
            args.tol = float(env) if env is not None else DEFAULT_TOL
        except ValueError:
            sys.stderr.write(f"error: LLULL_TOL={env!r} is not a number\n")
            return 2
    if args.tol <= 0 or args.max_iter < 1:
        sys.stderr.write("error: --tol must be positive and --max-iter at least 1\n")
        return 2
    paths = args.inputs
    code = 0
    for path in paths:
        status, text = _run_one(args, path)
        stream = sys.stdout if status in (0, 1) else sys.stderr
        if len(paths) > 1:
            stream.write(f"== {path} ==\n")
        stream.write(text)
        code = max(code, status)
    return code


if __name__ == "__main__":
    sys.exit(main())
