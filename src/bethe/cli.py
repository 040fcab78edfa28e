"""Command-line entry point.

Subcommands: perm, coeffs, spa, covers, lct, sst, gct, graph-validate,
graph-random. Every run echoes its configuration into the output
envelope; identical configurations and seeds produce byte-identical
payloads (wall-clock fields excluded). Exit codes: 0 ok, 1 numerical
sanity failure, 2 validation error, 3 resource budget exceeded, 4
convergence failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from . import __version__, coeffs, covers, gct, graphio, lct, perm, sst
from .errors import BetheError, ValidationError
from .nfg import partition_function_exact, validate_graph
from .spa import best_fixed_point, spa_run


def _read(path):
    with open(path) as fh:
        return fh.read()


def _envelope(args, payload, wall_ms):
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "out") and not k.startswith("_")
    }
    return {
        "tool": "bethe",
        "version": __version__,
        "config": config,
        "wall_ms": wall_ms,
        "payload": payload,
    }


def _print_json(args, payload, wall_ms):
    sys.stdout.write(graphio.emit_json(_envelope(args, payload, wall_ms)))


# -- subcommands -------------------------------------------------------------


def cmd_perm(args):
    theta = graphio.parse_matrix(_read(args.matrix))
    rows = []
    header = ["method", "value", "lower_ok", "upper_ok"]
    n = theta.shape[0]
    if args.method == "exact":
        rows.append(["exact", perm.perm_exact(theta), "", ""])
    elif args.method in ("bethe", "scs"):
        # bounds on perm(theta) / approximation
        if args.method == "bethe":
            res = perm.perm_bethe(theta, seed=args.seed)
            lo, hi = 1.0, 2 ** (n / 2)
        else:
            res = perm.perm_sinkhorn_scaled(theta)
            lo = np.e**n * math.factorial(n) / n**n if n <= 20 else None
            hi = np.e**n
        # the bound cells need the exact permanent; past the
        # inclusion-exclusion cap they stay empty
        bounds = ["", ""]
        if n <= perm.RYSER_CAP:
            ratio = perm.perm_exact(theta) / res.value
            bounds = [lo is None or ratio >= lo * (1 - 1e-9), ratio <= hi * (1 + 1e-9)]
        rows.append([args.method, res.value, *bounds])
    elif args.method == "degree-m":
        res = perm.perm_bethe_degree_m(
            theta, args.M, args.mode, seed=args.seed, samples=args.samples
        )
        rows.append([res.method, res.value, "", ""])
    elif args.method == "scs-degree-m":
        res = perm.perm_sinkhorn_degree_m(theta, args.M)
        rows.append([res.method, res.value, "", ""])
    elif args.method == "ratio2":
        rows.append(["ratio2", perm.perm_ratio_degree2(theta), "", ""])
    sys.stdout.write(graphio.emit_csv(rows, header))


def cmd_coeffs(args):
    if args.triangle:
        rows = [
            (M, k1, k2, c, float(cb), float(cs))
            for (M, k1, k2, c, cb, cs) in coeffs.pascal_triangles(args.M)
        ]
        sys.stdout.write(
            graphio.emit_csv(rows, ["M", "k1", "k2", "C", "C_B", "C_scS"])
        )
        return
    rows = []
    for gm in coeffs.enumerate_gamma(args.n, args.M):
        flat = [k for row in gm.counts for k in row]
        c = coeffs.coeff_count(gm) if args.which in ("c", "all") else None
        cb = float(coeffs.coeff_bethe(gm)) if args.which in ("cb", "all") else None
        cs = (
            float(coeffs.coeff_scaled_sinkhorn(gm))
            if args.which in ("cscs", "all")
            else None
        )
        row = flat + [c, cb, cs]
        if args.check_bounds and c is not None and cb is not None and cs is not None:
            n, M = args.n, args.M
            ratio_b = c / cb
            ratio_s = c / cs
            row += [
                bool(1 - 1e-12 <= ratio_b <= (2 ** (n / 2)) ** (M - 1) * (1 + 1e-12)),
                bool(
                    (M**M / math.factorial(M)) ** n
                    * (math.factorial(n) / n**n) ** (M - 1)
                    * (1 - 1e-12)
                    <= ratio_s
                    <= (M**M / math.factorial(M)) ** n * (1 + 1e-12)
                ),
            ]
        rows.append(row)
    header = [f"K{i}{j}" for i in range(args.n) for j in range(args.n)]
    header += ["C", "C_B", "C_scS"]
    if args.check_bounds:
        header += ["bethe_bounds_ok", "scs_bounds_ok"]
    sys.stdout.write(graphio.emit_csv(rows, header))


def cmd_spa(args):
    start = time.monotonic()
    g = graphio.parse_graph_json(_read(args.graph))
    if args.restarts < 0:
        raise ValidationError(f"restarts {args.restarts} must be >= 0")
    if args.restarts > 0:
        mu, report = best_fixed_point(
            g,
            restarts=args.restarts,
            seed=args.seed,
            damping=args.damping,
            fp_tol=args.tol,
        )
    else:
        mu, report = spa_run(
            g, damping=args.damping, fp_tol=args.tol, seed=args.seed
        )
    payload = {
        "converged": report.converged,
        "iterations": report.iterations,
        "residual": report.residual,
        "z_edges": [complex(z) for z in report.z_edges],
        "z_nodes": [complex(z) for z in report.z_nodes],
        "z_b_spa": report.z_b_spa,
        "degenerate": report.degenerate,
        "candidates": report.candidates,
    }
    _print_json(args, payload, int(1000 * (time.monotonic() - start)))


def cmd_covers(args):
    start = time.monotonic()
    g = graphio.parse_graph_json(_read(args.graph))
    estimates = covers.degree_m_series(
        g, args.M, args.mode, seed=args.seed, samples=args.samples
    )
    wall = int(1000 * (time.monotonic() - start))
    rows = [
        (e.M, e.method, e.value, e.stderr, e.covers_evaluated, wall)
        for e in estimates
    ]
    sys.stdout.write(
        graphio.emit_csv(
            rows, ["M", "method", "Z_BM", "stderr", "covers_evaluated", "wall_ms"]
        )
    )


def cmd_lct(args):
    start = time.monotonic()
    g = graphio.parse_graph_json(_read(args.graph))
    mu, report = best_fixed_point(g, restarts=args.restarts, seed=args.seed)
    tg = lct.lct_transform(g, mu)
    sys.stdout.write(graphio.graph_to_json(tg.graph) + "\n")
    if args.verify:
        prop = lct.verify_lct_properties(g, tg, mu)
        payload = {"z_b_spa": report.z_b_spa, "checks": prop.checks,
                   "all_passed": prop.all_passed}
        _print_json(args, payload, int(1000 * (time.monotonic() - start)))


def cmd_sst(args):
    start = time.monotonic()
    g = graphio.parse_graph_json(_read(args.graph))
    if args.method == "pe":
        value = sst.zbm_via_pe(g, args.M)
        payload = {"method": "pe", "M": args.M, "zbm": value}
    else:
        est = sst.zbm_via_sst_mc(g, args.M, args.samples, args.seed)
        payload = {
            "method": "mc",
            "M": args.M,
            "estimate_power": est.mean,
            "stderr": est.stderr,
            "imag_residual": est.imag_mean,
            "samples": est.samples,
            "zbm": covers.degree_m_root(est.mean, args.M)[1],
        }
    _print_json(args, payload, int(1000 * (time.monotonic() - start)))


def cmd_gct(args):
    start = time.monotonic()
    records = gct.convergence_experiment(
        n_graphs=args.graphs,
        topology=args.topology,
        M_max=args.Mmax,
        seed=args.seed,
        mc_samples=args.samples,
    )
    summary, cdfs = gct.experiment_summary(records)
    prefix = args.out
    graphio.emit_jsonl(
        [
            {
                "seed": r.seed,
                "z_star": r.z_star,
                "abs_sum_product": r.abs_sum_product,
                "alpha": r.alpha,
                "condition_satisfied": r.condition_satisfied,
                "checkable": r.checkable,
                "series": r.series,
                "relative_errors": r.relative_errors,
                "error": r.error,
            }
            for r in records
        ],
        f"{prefix}records.jsonl",
    )
    graphio.emit_csv(
        [
            (
                row["M"],
                row["graphs"],
                row["mean_abs_rel_error"],
                row["std_abs_rel_error"],
                row["satisfied_graphs"],
                row["satisfied_mean_abs_rel_error"],
            )
            for row in summary
        ],
        [
            "M",
            "graphs",
            "mean_abs_rel_error",
            "std_abs_rel_error",
            "satisfied_graphs",
            "satisfied_mean_abs_rel_error",
        ],
        f"{prefix}summary.csv",
    )
    for M, table in cdfs.items():
        graphio.emit_csv(
            table, ["rel_error", "empirical_cdf"], f"{prefix}cdf_M{M}.csv"
        )
    payload = {"records": len(records), "summary": summary}
    _print_json(args, payload, int(1000 * (time.monotonic() - start)))


def cmd_graph_validate(args):
    start = time.monotonic()
    g = graphio.parse_graph_json(_read(args.graph))
    report = validate_graph(g)
    payload = {
        "ok": report.ok,
        "strict_sense": report.strict_sense,
        "issues": report.issues,
        "hermitian_deviation": report.hermitian_deviation,
        "min_eigenvalue": report.min_eigenvalue,
        "partition_function": None,
    }
    if report.ok and args.z:
        payload["partition_function"] = partition_function_exact(g)
    _print_json(args, payload, int(1000 * (time.monotonic() - start)))
    if not report.ok:
        # report printed; the nonzero exit mirrors the validation verdict
        raise ValidationError("; ".join(report.issues))


def cmd_graph_random(args):
    if args.kind == "denfg":
        g = gct.random_denfg(args.topology, alphabet=args.alphabet, seed=args.seed)
    else:
        g = gct.random_snfg(args.topology, alphabet=args.alphabet, seed=args.seed)
    sys.stdout.write(graphio.graph_to_json(g) + "\n")


def build_parser():
    p = argparse.ArgumentParser(prog="bethe", description=__doc__)
    sub = p.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("perm", help="permanent approximations")
    sp.add_argument("--matrix", required=True, help="CSV or JSON matrix file")
    sp.add_argument(
        "--method",
        default="exact",
        choices=["exact", "bethe", "scs", "degree-m", "scs-degree-m", "ratio2"],
    )
    sp.add_argument("--M", type=int, default=2)
    sp.add_argument("--mode", default="auto", choices=["auto", "lift", "mc", "coeff"])
    sp.add_argument("--samples", type=int, default=2000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_perm)

    sp = sub.add_parser("coeffs", help="coefficient tables")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--M", type=int, default=3)
    sp.add_argument("--which", default="all", choices=["c", "cb", "cscs", "all"])
    sp.add_argument("--triangle", action="store_true")
    sp.add_argument("--check-bounds", dest="check_bounds", action="store_true")
    sp.set_defaults(func=cmd_coeffs)

    sp = sub.add_parser("spa", help="sum-product fixed point")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--restarts", type=int, default=0)
    sp.add_argument("--damping", type=float, default=None)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_spa)

    sp = sub.add_parser("covers", help="degree-M Bethe partition function")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--M", type=int, default=2)
    sp.add_argument("--mode", default="auto", choices=["auto", "exact", "gauge", "mc"])
    sp.add_argument("--samples", type=int, default=2000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_covers)

    sp = sub.add_parser("lct", help="loop-calculus transform")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--restarts", type=int, default=16)
    sp.add_argument("--verify", action="store_true")
    sp.set_defaults(func=cmd_lct)

    sp = sub.add_parser("sst", help="symmetric-subspace evaluation")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--M", type=int, default=2)
    sp.add_argument("--method", default="pe", choices=["pe", "mc"])
    sp.add_argument("--samples", type=int, default=100000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_sst)

    sp = sub.add_parser("gct", help="graph-cover convergence experiment")
    sp.add_argument("--topology", default="fig1", choices=sorted(gct.TOPOLOGIES))
    sp.add_argument("--graphs", type=int, default=50)
    sp.add_argument("--Mmax", type=int, default=4)
    sp.add_argument("--samples", type=int, default=600)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default="gct_")
    sp.set_defaults(func=cmd_gct)

    sp = sub.add_parser("graph-validate", help="validate a graph document")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--z", action="store_true", help="also compute Z")
    sp.set_defaults(func=cmd_graph_validate)

    sp = sub.add_parser("graph-random", help="emit a random graph document")
    sp.add_argument("--kind", default="denfg", choices=["snfg", "denfg"])
    sp.add_argument("--topology", default="fig1", choices=sorted(gct.TOPOLOGIES))
    sp.add_argument("--alphabet", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_graph_random)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except BetheError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    except OSError as exc:
        sys.stderr.write(f"error: {exc.strerror or exc}: {exc.filename}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
