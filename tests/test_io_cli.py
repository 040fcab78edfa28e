import json
import subprocess
import sys
import time

import numpy as np
import pytest

from bethe import spa
from bethe.cli import main
from bethe.errors import ValidationError
from bethe.gct import random_denfg, random_snfg
from bethe.graphio import (
    emit_csv,
    emit_json,
    emit_jsonl,
    format_float,
    graph_to_json,
    parse_graph_json,
    parse_matrix,
)
from bethe.nfg import partition_function_exact
from bethe.perm import build_perm_nfg
from bethe.rng import seeded_rng

MINIMAL_SNFG = json.dumps(
    {
        "kind": "snfg",
        "edges": [{"id": 0, "endpoints": [0, 1], "alphabet": 2}],
        "factors": [
            {"node": 0, "dense": [1.0, 2.0]},
            {"node": 1, "dense": [3.0, 1.0]},
        ],
    }
)

MINIMAL_DENFG = json.dumps(
    {
        "kind": "denfg",
        "edges": [{"id": 0, "endpoints": [0, 1], "alphabet": 2}],
        "factors": [
            {"node": 0, "dense": [[1.0, 0.0], [0.0, 0.5], [0.0, -0.5], [1.0, 0.0]]},
            {"node": 1, "dense": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]},
        ],
    }
)


class TestGraphJson:
    def test_minimal_snfg(self):
        g = parse_graph_json(MINIMAL_SNFG)
        assert g.kind == "snfg" and g.num_edges == 1
        assert partition_function_exact(g) == pytest.approx(5.0)

    def test_denfg_complex_values(self):
        g = parse_graph_json(MINIMAL_DENFG)
        table = g.factors[0].as_dense(complex)
        assert table[1] == 0.5j and table[2] == -0.5j

    def test_dense_length_error_names_pointer(self):
        doc = json.loads(MINIMAL_SNFG)
        doc["factors"][0]["dense"] = [1.0, 2.0, 3.0]
        with pytest.raises(ValidationError) as err:
            parse_graph_json(json.dumps(doc))
        assert "/factors/0/dense" in str(err.value)

    def test_sparse_pair_configs(self):
        doc = {
            "kind": "denfg",
            "edges": [{"id": 0, "endpoints": [0, 1], "alphabet": 2}],
            "factors": [
                {"node": 0, "sparse": [{"config": [[0, 0]], "value": [1.0, 0.0]},
                                        {"config": [[1, 1]], "value": [2.0, 0.0]}]},
                {"node": 1, "dense": [[1, 0], [0, 0], [0, 0], [1, 0]]},
            ],
        }
        g = parse_graph_json(json.dumps(doc))
        assert g.factors[0].value((0,)) == 1.0
        assert g.factors[0].value((3,)) == 2.0

    @pytest.mark.parametrize("kind", ["snfg", "denfg"])
    def test_round_trip(self, kind):
        maker = random_snfg if kind == "snfg" else random_denfg
        g = maker("fig1", seed=3)
        text = graph_to_json(g)
        g2 = parse_graph_json(text)
        assert partition_function_exact(g2) == pytest.approx(
            partition_function_exact(g), rel=1e-12
        )
        assert graph_to_json(g2) == text


class TestMatrix:
    def test_csv(self):
        theta = parse_matrix("1,2\n3,4")
        assert theta.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_json(self):
        assert parse_matrix("[[1, 0], [0, 1]]").tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValidationError):
            parse_matrix("0,0\n0,0")

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            parse_matrix("1,2,3\n4,5,6")


class TestRng:
    def test_same_key_same_draws(self):
        a = seeded_rng(7, 3).uniform(size=10)
        b = seeded_rng(7, 3).uniform(size=10)
        assert np.array_equal(a, b)

    def test_streams_decorrelated(self):
        # chi-square sanity on binned joint draws from two streams
        a = seeded_rng(7, 0).uniform(size=20000)
        b = seeded_rng(7, 1).uniform(size=20000)
        counts, *_ = np.histogram2d(a, b, bins=4)
        expected = len(a) / 16
        chi2 = ((counts - expected) ** 2 / expected).sum()
        # 15 dof: the 99.9th percentile is ~37.7
        assert chi2 < 37.7

    def test_many_streams(self):
        values = {seeded_rng(0, s).integers(0, 2**32) for s in range(64)}
        assert len(values) > 60


class TestEmit:
    def test_float_precision_roundtrip(self):
        x = 1 / 3 + 1e-17
        assert float(format_float(x)) == x

    def test_csv_shape(self):
        text = emit_csv([[1, 2.5, None]], ["a", "b", "c"])
        assert text == "a,b,c\n1,2.5,\n"

    def test_json_roundtrip(self, tmp_path):
        payload = {"x": 1.2345678901234567, "v": [1, 2, 3]}
        path = tmp_path / "out.json"
        emit_json(payload, path)
        assert json.loads(path.read_text())["x"] == payload["x"]

    def test_jsonl_appends(self, tmp_path):
        path = tmp_path / "out.jsonl"
        emit_jsonl([{"a": 1}], path)
        emit_jsonl([{"a": 2}], path)
        lines = path.read_text().splitlines()
        assert [json.loads(l)["a"] for l in lines] == [1, 2]


class TestCli:
    def run(self, *argv, expect=0):
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(list(argv))
        assert code == expect, buf.getvalue()
        return buf.getvalue()

    def test_perm_exact(self, tmp_path):
        mat = tmp_path / "m.csv"
        mat.write_text("1,2\n3,4\n")
        out = self.run("perm", "--matrix", str(mat), "--method", "exact")
        assert out.splitlines()[1].startswith("exact,10")

    def test_perm_ratio2(self, tmp_path):
        mat = tmp_path / "m.csv"
        mat.write_text("1,2\n3,4\n")
        out = self.run("perm", "--matrix", str(mat), "--method", "ratio2")
        assert out.splitlines()[0] == "method,value,lower_ok,upper_ok"

    def test_coeffs_triangle(self):
        out = self.run("coeffs", "--triangle", "--M", "3")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        c_vals = [row[3] for row in rows if row[0] == "3"]
        assert c_vals == ["1", "3", "3", "1"]

    def test_spa_json(self, tmp_path):
        graph = tmp_path / "g.json"
        graph.write_text(MINIMAL_SNFG)
        out = self.run("spa", "--graph", str(graph))
        doc = json.loads(out)
        assert doc["payload"]["converged"] is True
        assert doc["payload"]["z_b_spa"] == pytest.approx(5.0)

    def test_spa_restarts_report_per_candidate_counts(self, tmp_path):
        graph = tmp_path / "g.json"
        graph.write_text(graph_to_json(random_denfg("fig1", seed=6)))
        doc = json.loads(
            self.run("spa", "--graph", str(graph), "--restarts", "2", "--seed", "3")
        )
        payload = doc["payload"]
        assert [c["restart"] for c in payload["candidates"]] == [0, 1, 2]
        for c in payload["candidates"]:
            assert c["iterations"] >= 1 and c["rerandomized"] == 0
        assert payload["iterations"] in [c["iterations"] for c in payload["candidates"]]

    def test_covers_csv_deterministic(self, tmp_path):
        graph = tmp_path / "g.json"
        graph.write_text(graph_to_json(random_snfg("fig1", seed=1)))
        outs = []
        for _ in range(2):
            text = self.run(
                "covers", "--graph", str(graph), "--M", "2", "--mode", "mc",
                "--samples", "64", "--seed", "9",
            )
            rows = [line.split(",") for line in text.splitlines()]
            assert rows[0] == ["M", "method", "Z_BM", "stderr",
                               "covers_evaluated", "wall_ms"]
            outs.append([row[:5] for row in rows[1:]])  # drop wall_ms
        assert outs[0] == outs[1]

    def test_lct_verify(self, tmp_path):
        graph = tmp_path / "g.json"
        graph.write_text(graph_to_json(random_snfg("fig1", seed=2)))
        out = self.run("lct", "--graph", str(graph), "--verify")
        transformed, envelope = out.split("\n", 1)
        g2 = parse_graph_json(transformed)
        assert g2.kind == "snfg"
        doc = json.loads(envelope)
        assert doc["payload"]["all_passed"] is True

    def test_sst_pe(self, tmp_path):
        graph = tmp_path / "g.json"
        graph.write_text(MINIMAL_SNFG)
        out = self.run("sst", "--graph", str(graph), "--M", "2", "--method", "pe")
        doc = json.loads(out)
        assert doc["payload"]["zbm"] > 0

    def test_graph_validate_exit_codes(self, tmp_path):
        graph = tmp_path / "bad.json"
        graph.write_text("{not json")
        code = main(["graph-validate", "--graph", str(graph)])
        assert code == 2

    def test_graph_validate_reports_then_fails(self, tmp_path):
        import io
        from contextlib import redirect_stdout

        doc = json.loads(MINIMAL_SNFG)
        doc["factors"][0]["dense"] = [1.0, -2.0]
        graph = tmp_path / "neg.json"
        graph.write_text(json.dumps(doc))
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["graph-validate", "--graph", str(graph)])
        assert code == 2
        payload = json.loads(buf.getvalue())["payload"]
        assert payload["ok"] is False and payload["issues"]

    def test_missing_file_exit_code(self, tmp_path):
        code = main(["perm", "--matrix", str(tmp_path / "nope.csv")])
        assert code == 2

    def test_resource_exit_code(self, tmp_path):
        mat = tmp_path / "big.csv"
        n = 25  # above the inclusion-exclusion cap
        mat.write_text("\n".join(",".join("1" for _ in range(n)) for _ in range(n)))
        code = main(["perm", "--matrix", str(mat), "--method", "exact"])
        assert code == 3

    def test_numerical_exit_code(self, tmp_path):
        # the lifted permanent, 1.25e-25, is below the rounding of the
        # inclusion-exclusion terms and comes out negative
        mat = tmp_path / "tiny.csv"
        mat.write_text("0.0001,1,1\n0,0.0001,1\n0,0,0.0001\n")
        proc = subprocess.run(
            [sys.executable, "-m", "bethe.cli", "perm", "--matrix", str(mat),
             "--method", "scs-degree-m", "--M", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("method", ["exact", "bethe", "scs", "degree-m"])
    @pytest.mark.parametrize("entry", ["nan", "inf"])
    def test_non_finite_matrix_exit_code(self, tmp_path, capsys, entry, method):
        mat = tmp_path / "m.csv"
        mat.write_text(f"1,{entry}\n2,3\n")
        # main returns instead of raising, so no traceback reaches stderr
        code = main(["perm", "--matrix", str(mat), "--method", method])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:") and captured.out == ""

    @pytest.mark.parametrize("command", ["perm", "sst", "covers"])
    def test_degree_zero_exit_code(self, tmp_path, command):
        if command == "perm":
            path = tmp_path / "m.csv"
            path.write_text("1,2\n3,4\n")
            argv = ["perm", "--matrix", str(path), "--method", "degree-m"]
        else:
            path = tmp_path / "g.json"
            path.write_text(MINIMAL_SNFG)
            argv = [command, "--graph", str(path)]
        proc = subprocess.run(
            [sys.executable, "-m", "bethe.cli", *argv, "--M", "0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("method", ["bethe", "scs"])
    def test_perm_bounds_left_empty_past_exact_cap(self, tmp_path, method):
        n = 30  # above the inclusion-exclusion cap
        theta = seeded_rng(11, 0).uniform(0.5, 1.5, (n, n))
        mat = tmp_path / "m30.json"
        mat.write_text(json.dumps(theta.tolist()))
        rows = self.run("perm", "--matrix", str(mat), "--method", method).splitlines()
        name, value, lower_ok, upper_ok = rows[1].split(",")
        assert name == method and float(value) > 0
        assert lower_ok == "" and upper_ok == ""

    def test_graph_validate_z_on_64_edge_graphs(self, tmp_path):
        from test_contraction import path_graph

        graph = tmp_path / "path60.json"
        graph.write_text(graph_to_json(path_graph(60, seed=1)[0]))
        doc = json.loads(self.run("graph-validate", "--graph", str(graph), "--z"))
        assert doc["payload"]["partition_function"] > 0
        # the 8x8 permanent graph is past the contraction budget: a
        # documented exit code, not a traceback
        graph = tmp_path / "perm8.json"
        graph.write_text(graph_to_json(build_perm_nfg(np.ones((8, 8)))))
        proc = subprocess.run(
            [sys.executable, "-m", "bethe.cli", "graph-validate", "--graph", str(graph),
             "--z"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_sst_mc_negative_average_exit_code(self, tmp_path):
        from conftest import two_node_graph

        path = tmp_path / "g.json"
        g = two_node_graph([1, 0, 0, -2], [1, 0, 0, 1], kind="denfg")
        path.write_text(graph_to_json(g))
        proc = subprocess.run(
            [sys.executable, "-m", "bethe.cli", "sst", "--graph", str(path),
             "--method", "mc", "--M", "1", "--samples", "20000", "--seed", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["spa", "--damping", "1.5"],
            ["spa", "--seed", "-1"],
            ["lct", "--restarts", "0"],
        ],
        ids=["damping", "seed", "restarts"],
    )
    def test_bad_numeric_flag_exit_code(self, tmp_path, argv):
        path = tmp_path / "g.json"
        path.write_text(MINIMAL_SNFG)
        proc = subprocess.run(
            [sys.executable, "-m", "bethe.cli", argv[0], "--graph", str(path),
             *argv[1:]],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_graph_random_validates(self, tmp_path):
        out = self.run("graph-random", "--kind", "denfg", "--seed", "3")
        g = parse_graph_json(out)
        assert g.kind == "denfg"

    def test_gct_small(self, tmp_path):
        prefix = str(tmp_path / "run_")
        out = self.run(
            "gct", "--graphs", "2", "--Mmax", "1", "--seed", "4",
            "--samples", "10", "--out", prefix,
        )
        doc = json.loads(out)
        assert doc["payload"]["records"] == 2
        assert (tmp_path / "run_records.jsonl").exists()
        assert (tmp_path / "run_summary.csv").exists()
        assert (tmp_path / "run_cdf_M1.csv").exists()

    def test_payload_determinism_across_subcommands(self, tmp_path):
        graph = tmp_path / "g.json"
        graph.write_text(graph_to_json(random_denfg("fig1", seed=6)))
        for argv in (
            ["spa", "--graph", str(graph), "--restarts", "2", "--seed", "3"],
            ["sst", "--graph", str(graph), "--M", "2", "--method", "mc",
             "--samples", "2000", "--seed", "3"],
            ["graph-validate", "--graph", str(graph), "--z"],
        ):
            payloads = []
            for _ in range(2):
                doc = json.loads(self.run(*argv))
                payloads.append(json.dumps(doc["payload"], sort_keys=True))
            assert payloads[0] == payloads[1], argv[0]

    def test_subprocess_entry(self, tmp_path):
        mat = tmp_path / "m.csv"
        mat.write_text("1,0\n0,1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "bethe.cli", "perm", "--matrix", str(mat)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1].startswith("exact,1")


def test_import_loads_no_scipy_sparse_or_special():
    # only perm.check_matrix needs scipy.sparse, and imports it itself
    code = (
        "import sys, bethe.cli, bethe.gct, bethe.sst\n"
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('scipy.sparse', 'scipy.special'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def _theta_doc(mutate):
    """The `graph-random --topology theta` document, mutated in place."""
    doc = json.loads(graph_to_json(random_denfg("theta", alphabet=2, seed=0)))
    mutate(doc)
    return doc


def _set(path, value):
    def mutate(doc):
        *head, last = path
        target = doc
        for key in head:
            target = target[key]
        target[last] = value

    return mutate


SPARSE_DENFG = {
    "kind": "denfg",
    "edges": [{"id": 0, "endpoints": [0, 1], "alphabet": 2}],
    "factors": [
        {"node": 0, "sparse": [{"config": [[0, 2]], "value": [1.0, 0.0]}]},
        {"node": 1, "dense": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]},
    ],
}

# each malformed document, with the JSON path its error must name
BAD_GRAPHS = {
    "node_not_an_integer": (_theta_doc(_set(["factors", 0, "node"], "a")), "/factors/0/node"),
    "fractional_alphabet": (
        _theta_doc(_set(["edges", 0, "alphabet"], 2.5)),
        "/edges/0/alphabet",
    ),
    "boolean_edge_id": (_theta_doc(_set(["edges", 1, "id"], True)), "/edges/1/id"),
    "boolean_endpoint": (
        _theta_doc(_set(["edges", 1, "endpoints", 0], False)),
        "/edges/1/endpoints/0",
    ),
    "boolean_value": (
        _theta_doc(_set(["factors", 0, "dense", 0], [True, 0])),
        "/factors/0/dense/0/0",
    ),
    "nan_value": (
        _theta_doc(_set(["factors", 0, "dense", 0], [float("nan"), 0.0])),
        "/factors/0/dense/0/0",
    ),
    "infinite_value": (
        _theta_doc(_set(["factors", 1, "dense", 3], [0.0, float("inf")])),
        "/factors/1/dense/3/1",
    ),
    # [0, 2] would alias the pair (1, 0) if read as 0 * 2 + 2
    "pair_half_out_of_range": (SPARSE_DENFG, "/factors/0/sparse/0/config/0/1"),
    "snfg_symbol_out_of_range": (
        json.loads(
            MINIMAL_SNFG.replace(
                '"dense": [1.0, 2.0]', '"sparse": [{"config": [2], "value": 1}]'
            )
        ),
        "/factors/0/sparse/0/config/0",
    ),
}

BAD_FLAGS = {
    "coeffs_n_negative": ["coeffs", "--n", "-1"],
    "coeffs_n_zero": ["coeffs", "--n", "0"],
    "coeffs_M_zero": ["coeffs", "--M", "0"],
    "coeffs_M_negative": ["coeffs", "--M", "-2"],
    "gct_Mmax_zero": ["gct", "--Mmax", "0"],
    "gct_graphs_negative": ["gct", "--graphs", "-1"],
    "gct_samples_zero": ["gct", "--samples", "0"],
    "spa_tol_negative": ["spa", "--tol", "-1"],
    "spa_tol_nan": ["spa", "--tol", "nan"],
    "spa_restarts_negative": ["spa", "--restarts", "-3"],
}


def test_coeffs_triangle_negative_degree_exits_2(capsys):
    code = main(["coeffs", "--triangle", "--M", "-2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


def _zero_support_theta(nodes):
    """The theta graph of `graph-random --kind snfg --topology theta
    --seed 0` with every table entry of the given nodes set to 0."""
    doc = json.loads(graph_to_json(random_snfg("theta", seed=0)))
    for node in nodes:
        doc["factors"][node]["dense"] = [0.0] * len(doc["factors"][node]["dense"])
    return doc


@pytest.mark.parametrize("command", ["spa", "lct"])
@pytest.mark.parametrize("nodes", [(0, 1), (1,)], ids=["all_zero", "node1_zero"])
def test_zero_support_stops_with_an_exit_code(tmp_path, capsys, command, nodes):
    # every update from positive messages meets a vanishing normalizer;
    # each start gives up after MAX_VANISHING_STEPS re-randomizations
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(_zero_support_theta(nodes)))
    start = time.monotonic()
    code = main([command, "--graph", str(graph)])
    elapsed = time.monotonic() - start
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert elapsed < 1.0
    if command == "spa":
        # a single start reports its verdict in the payload
        assert code == 0
        payload = json.loads(captured.out)["payload"]
        assert payload["converged"] is False
        assert payload["iterations"] == spa.MAX_VANISHING_STEPS + 1
    else:
        assert code == 4 and captured.err.startswith("error: no SPA restart converged")


@pytest.mark.parametrize("case", sorted(BAD_GRAPHS) + sorted(BAD_FLAGS))
def test_bad_input_exits_2(tmp_path, capsys, case):
    doc, path = BAD_GRAPHS.get(case, (json.loads(MINIMAL_SNFG), None))
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(doc))
    if case in BAD_GRAPHS:
        argv = ["graph-validate", "--graph", str(graph)]
    else:
        argv = BAD_FLAGS[case]
        if argv[0] == "spa":
            argv = argv + ["--graph", str(graph)]
        if argv[0] == "gct":
            argv = argv + ["--out", str(tmp_path / "gct_")]
    # in-process: any exception other than a library error escapes main
    # and fails the test
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    if path is not None:
        assert err.rstrip().endswith(f"at {path}")
