"""The benchmark's three workloads.

Each workload makes the input of op `i` from `(seed, i)` alone, runs one
op through the library's public functions (the timed part), and checks
the op's output against an independent route (untimed). Ops come in
rounds of fixed composition. A run makes `rounds` rounds of inputs and
cycles through them in passes, always ending on a round boundary, so
every run has the same mix of op kinds. `gct` and `zbm` make more
inputs than a run uses, so that a run averages over as many graphs as
it can; `perm`'s output check costs as much as an op, so it repeats its
inputs. `key(out)` gives the numbers an op returns, so that a repeat of
an input can be compared with its checked first run.
"""

from __future__ import annotations

import math

import numpy as np

from bethe import covers, gct, graphio, nfg, perm, sst

SST_MC_SAMPLES = 10**5


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _agree(what, got, want, tol):
    if _rel(got, want) > tol:
        return [f"{what}: {got!r} vs {want!r} (rel. tol {tol:g})"]
    return []


def _check_m1(g, value):
    """M=1 equals the configuration-sum partition function."""
    z = complex(nfg.partition_function_bruteforce(g)).real
    return _agree("M=1 vs brute-force Z", value, z, 1e-8)


def _graph_seed(seed, i):
    return seed * 1000 + i


class Gct:
    """One op: one random strict-sense `fig1` double-edge graph through
    the degree-M convergence experiment, as `bethe gct` and the
    acceptance test run it."""

    round = 1
    rounds = 32

    def make_input(self, seed, i):
        return _graph_seed(seed, i)

    def run(self, graph_seed):
        return gct.convergence_experiment(
            n_graphs=1,
            topology="fig1",
            M_max=4,
            seed=graph_seed,
            mc_samples=600,
            restarts=16,
        )

    def key(self, records):
        return tuple(tuple(rec.series) for rec in records)

    def check(self, graph_seed, records):
        (rec,) = records
        if rec.error is not None:
            return [f"record error: {rec.error}"]
        g = graphio.parse_graph_json(
            graphio.graph_to_json(gct.random_denfg("fig1", seed=graph_seed))
        )
        values = {M: value for M, value, _ in rec.series}
        problems = _check_m1(g, values[1])
        for M in (2, 3):
            problems += _agree(
                f"gauge covers vs type aggregation at M={M}",
                values[M],
                sst.zbm_via_pe(g, M),
                1e-9,
            )
        return problems


def _matrix_csv(rng, n, sparse):
    """Entries in (0, 1]. A sparse matrix keeps only the union of k random
    permutations, k chosen for about 30 % zeros, so every positive entry
    lies on a positive permutation (total support). Without total support
    Sinkhorn scaling converges sublinearly and `perm_sinkhorn_scaled`
    gives up after 10^5 iterations."""
    theta = 1.0 - rng.random((n, n))
    if sparse:
        keep = np.zeros((n, n), dtype=bool)
        for _ in range(round(math.log(0.3) / math.log(1 - 1 / n))):
            keep[np.arange(n), rng.permutation(n)] = True
        theta *= keep
    return "\n".join(",".join(repr(float(x)) for x in row) for row in theta)


class Perm:
    """One op: one matrix, n cycling 8 -> 12 -> 16, through the exact,
    Bethe and scaled-Sinkhorn permanents. Every third round is sparse.
    Each n=16 op also runs the degree-M refinements on small matrices."""

    round = 3
    rounds = 6
    SIZES = (8, 12, 16)

    def make_input(self, seed, i):
        rng = np.random.default_rng([seed, i])
        n = self.SIZES[i % len(self.SIZES)]
        sparse = (i // len(self.SIZES)) % 3 == 2
        inp = {"n": n, "theta": _matrix_csv(rng, n, sparse)}
        if n == 16:
            inp["lift"] = _matrix_csv(rng, 3, sparse)
            inp["small"] = _matrix_csv(rng, 5, sparse)
        return inp

    def run(self, inp):
        theta = graphio.parse_matrix(inp["theta"])
        out = {
            "theta": theta,
            "exact": perm.perm_exact(theta),
            "bethe": perm.perm_bethe(theta).value,
            "scs": perm.perm_sinkhorn_scaled(theta).value,
        }
        if "lift" in inp:
            t3 = graphio.parse_matrix(inp["lift"])
            t5 = graphio.parse_matrix(inp["small"])
            out.update(
                t3=t3,
                t5=t5,
                lift=perm.perm_bethe_degree_m(t3, 2, "lift").value,
                kron=perm.perm_sinkhorn_degree_m(t5, 4).value,
                ratio2=perm.perm_ratio_degree2(t5),
            )
        return out

    def key(self, out):
        return tuple(out[k] for k in ("exact", "bethe", "scs", "lift", "kron", "ratio2") if k in out)

    def check(self, inp, out):
        theta, exact = out["theta"], out["exact"]
        n = theta.shape[0]
        problems = []
        if n <= perm.NAIVE_CAP:
            problems += _agree("Ryser vs permutation sum", exact, perm.perm_naive(theta), 1e-10)
        ratio = exact / out["bethe"]
        if not 1 - 1e-9 <= ratio <= 2 ** (n / 2) * (1 + 1e-9):
            problems.append(f"perm/bethe = {ratio!r} outside [1, 2^(n/2)]")
        ratio = exact / out["scs"]
        low = math.e**n * math.factorial(n) / n**n
        if not low * (1 - 1e-9) <= ratio <= math.e**n * (1 + 1e-9):
            problems.append(f"perm/scs = {ratio!r} outside [e^n n!/n^n, e^n]")
        if "lift" in out:
            t3, t5 = out["t3"], out["t5"]
            problems += _agree(
                "lift vs coeff",
                out["lift"],
                perm.perm_bethe_degree_m(t3, 2, "coeff").value,
                1e-9,
            )
            exact5 = perm.perm_exact(t5)
            problems += _agree(
                "ratio2 vs perm/degree-2",
                out["ratio2"],
                exact5 / perm.perm_bethe_degree_m(t5, 2, "coeff").value,
                1e-9,
            )
            # the coefficient-wise bounds on C / C_scS summed over gamma:
            # (M^M/M!)^n (n!/n^n)^(M-1) <= (perm / scS_M)^M <= (M^M/M!)^n
            M, k = 4, t5.shape[0]
            upper = (M**M / math.factorial(M)) ** k
            lower = upper * (math.factorial(k) / k**k) ** (M - 1)
            power = (exact5 / out["kron"]) ** M
            if not lower * (1 - 1e-9) <= power <= upper * (1 + 1e-9):
                problems.append(f"(perm/scS_4)^4 = {power!r} outside [{lower!r}, {upper!r}]")
        return problems


class Zbm:
    """One op: one graph. Even ops take a `fig1` double-edge graph to
    exact Z_B,M for M=1..4 plus the symmetric-subspace Monte Carlo at
    M=2; odd ops take a `fig5` classical graph to M=1..8."""

    round = 2
    rounds = 12

    def make_input(self, seed, i):
        graph_seed = _graph_seed(seed, i)
        if i % 2 == 0:
            g, M_max = gct.random_denfg("fig1", seed=graph_seed), 4
        else:
            g, M_max = gct.random_snfg("fig5", seed=graph_seed), 8
        return {"graph": graphio.graph_to_json(g), "M_max": M_max, "mc_seed": graph_seed}

    def run(self, inp):
        g = graphio.parse_graph_json(inp["graph"])
        values = [sst.zbm_via_pe(g, M) for M in range(1, inp["M_max"] + 1)]
        mc = None
        if not g.is_classical:
            mc = sst.zbm_via_sst_mc(g, 2, SST_MC_SAMPLES, inp["mc_seed"])
        return {"graph": g, "values": values, "mc": mc}

    def key(self, out):
        mc = out["mc"]
        return tuple(out["values"]) + (() if mc is None else (mc.mean, mc.stderr))

    def check(self, inp, out):
        g, values, mc = out["graph"], out["values"], out["mc"]
        problems = _check_m1(g, values[0])
        for M in (2, 3):
            problems += _agree(
                f"type aggregation vs gauge covers at M={M}",
                values[M - 1],
                covers.degree_m_bethe(g, M, "gauge").value,
                1e-9,
            )
        if mc is not None and abs(mc.mean - values[1] ** 2) > 6 * mc.stderr:
            problems.append(
                f"SST Monte Carlo {mc.mean!r} +- {mc.stderr!r} misses "
                f"Z_B,2^2 = {values[1] ** 2!r} by over 6 standard errors"
            )
        return problems


WORKLOADS = {"gct": Gct, "perm": Perm, "zbm": Zbm}
