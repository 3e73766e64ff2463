import json
import time

import pytest

from chromaspec.cli import main
from chromaspec.graphs import read_edge_list


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    run.err = captured.err
    return code, captured.out


class TestGen:
    def test_petal6_edgelist(self, capsys):
        code, out = run(capsys, "--format", "edgelist", "gen", "petal(6)")
        assert code == 0
        g = read_edge_list(out)
        assert g.n == 13 and g.num_edges == 18

    def test_gktd_dot(self, capsys):
        code, out = run(capsys, "gen", "Gktd(4,3,2)", "--format", "dot")
        assert code == 0
        assert out.startswith("graph G {") and out.rstrip().endswith("}")

    def test_gen_json(self, capsys):
        code, out = run(capsys, "gen", "K_3")
        assert code == 0
        assert json.loads(out) == {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}

    def test_malformed_spec_usage_error(self, capsys):
        code, _ = run(capsys, "gen", "K5andMore")
        assert code == 2

    def test_file_input(self, capsys, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("3 3\n0 1\n1 2\n0 2\n")
        code, out = run(capsys, "--format", "edgelist", "gen", str(p))
        assert code == 0 and read_edge_list(out).num_edges == 3

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out = run(capsys, "gen", "K_3", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["n"] == 3


class TestReport:
    def test_petal3_sharp(self, capsys):
        code, out = run(capsys, "report", "petal(3)")
        assert code == 0
        data = json.loads(out)
        assert data["sharp"] is True and data["chi"] == 3
        assert data["lambda_max"] == pytest.approx(1.5)
        assert data["lambda_max_multiplicity"] == 4

    def test_gktd251_not_sharp_but_equitable(self, capsys):
        code, out = run(capsys, "report", "Gktd(2,5,1)")
        assert code == 0
        data = json.loads(out)
        assert data["sharp"] is False and data["chi"] == 5
        assert data["equitable"] and all(data["equitable"])

    def test_text_format(self, capsys):
        code, out = run(capsys, "--format", "text", "report", "K_4")
        assert code == 0
        assert "sharp = True" in out and "chi = 4" in out

    @pytest.mark.parametrize("fmt", ["dot", "edgelist"])
    def test_graph_only_format_rejected(self, capsys, fmt):
        code, out = run(capsys, "report", "K_4", "--format", fmt)
        assert code == 2 and out == ""
        assert "not supported for reports" in run.err

    def test_disconnected_input_rejected(self, capsys, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("4 2\n0 1\n2 3\n")
        code, _ = run(capsys, "report", str(p))
        assert code == 2
        assert "connected" in run.err

    def test_large_edgeless_header_rejected_quickly(self, capsys, tmp_path):
        # The header's n is checked against the cap before any row is built.
        p = tmp_path / "g.edges"
        p.write_text("20000 0\n")
        start = time.perf_counter()
        code, _ = run(capsys, "report", str(p))
        assert time.perf_counter() - start < 2.0
        assert code == 2
        assert "above the cap 64" in run.err


@pytest.mark.parametrize(
    "argv",
    [["gen", "FILE"], ["compose", "join", "FILE", "K_1", "--format", "edgelist"]],
    ids=["gen", "compose-join"],
)
def test_oversized_header_exits_2_before_building(capsys, tmp_path, argv):
    p = tmp_path / "g.edges"
    p.write_text("100000 0\n")
    start = time.perf_counter()
    code, _ = run(capsys, *(str(p) if a == "FILE" else a for a in argv))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and "above the cap 64" in run.err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "K_100000"],
        ["report", "gpetal(100000,2)"],
        ["gen", "Gktd(1000,1000,1)"],
        ["compose", "join", "K_1", "100000xK_1", "--format", "edgelist"],
        ["compose", "join", "K_64", "64xK_64", "--format", "edgelist"],
        ["compose", "onesum", "K_64", "0", "K_2", "0", "--format", "edgelist"],
    ],
    ids=["complete", "gpetal", "gktd", "compose-copies", "compose-join", "compose-onesum"],
)
def test_oversized_spec_exits_2_before_building(capsys, argv):
    start = time.perf_counter()
    code, _ = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and "above the cap 64" in run.err


def test_spec_at_the_cap_is_built(capsys):
    code, out = run(capsys, "gen", "K_64")
    assert code == 0 and json.loads(out)["n"] == 64


def test_composition_at_the_cap_is_built(capsys):
    code, out = run(capsys, "compose", "join", "K_32", "K_32", "--format", "edgelist")
    assert code == 0 and read_edge_list(out).n == 64


class TestVerify:
    def test_families_suite_passes(self, capsys):
        code, out = run(capsys, "verify", "families")
        assert code == 0
        assert "FAIL" not in out and "PASS" in out

    def test_unknown_suite_usage_error(self, capsys):
        code, _ = run(capsys, "verify", "nonsense")
        assert code == 2

    @pytest.mark.parametrize("max_n", ["-1", "0"])
    def test_max_n_below_one_usage_error(self, capsys, max_n):
        code, out = run(capsys, "verify", "sharp", "--max-n", max_n)
        assert code == 2
        assert out == ""
        assert "--max-n >= 1" in run.err

    # 50 random graphs per unit of --max-n, capped at 5000
    @pytest.mark.parametrize("max_n", ["101", "1000000000"])
    def test_max_n_above_cap_usage_error(self, capsys, max_n):
        start = time.perf_counter()
        code, out = run(capsys, "verify", "sharp", "--max-n", max_n)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "above the cap 5000" in run.err


class TestCompose:
    def test_onesum_bowtie(self, capsys):
        code, out = run(capsys, "compose", "onesum", "K_3", "0", "K_3", "0")
        assert code == 0
        data = json.loads(out)
        assert data["lambda_max"] == pytest.approx(1.5)
        assert data["lambda_max_multiplicity"] == 3

    def test_join_multiplier_builds_petal(self, capsys):
        code, out = run(
            capsys, "--format", "edgelist", "compose", "join", "K_1", "3xK_2"
        )
        assert code == 0
        g = read_edge_list(out)
        assert g.n == 7 and g.num_edges == 9
        assert sorted(g.degrees) == [2, 2, 2, 2, 2, 2, 6]

    def test_edu_overlapping_edges_rejected(self, capsys):
        code, _ = run(capsys, "compose", "edu", "K_3", "K_3")
        assert code == 2

    def test_onesum_odd_arguments_rejected(self, capsys):
        code, _ = run(capsys, "compose", "onesum", "K_3", "0", "K_3")
        assert code == 2


class TestSearch:
    def test_requires_max_n(self, capsys):
        code, _ = run(capsys, "search", "sharp")
        assert code == 2

    def test_sharp_mult4(self, capsys):
        code, out = run(capsys, "search", "sharp-mult=4", "--max-n", "5")
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 1
        assert data["hits"][0]["chi"] == 5 and data["hits"][0]["n"] == 5

    def test_unknown_predicate(self, capsys):
        code, _ = run(capsys, "search", "frobnicate", "--max-n", "4")
        assert code == 2

    def test_cap_is_usage_error(self, capsys):
        code, _ = run(capsys, "search", "sharp", "--max-n", "10")
        assert code == 2


class TestDeterminism:
    def test_identical_invocations_byte_identical(self, capsys):
        _, first = run(capsys, "report", "petal(2)")
        _, second = run(capsys, "report", "petal(2)")
        assert first == second

    def test_flag_position_irrelevant(self, capsys):
        _, before = run(capsys, "--format", "edgelist", "gen", "T(6,3)")
        _, after = run(capsys, "gen", "T(6,3)", "--format", "edgelist")
        assert before == after

    def test_verify_seeded(self, capsys):
        _, first = run(capsys, "verify", "bounds", "--seed", "3")
        _, second = run(capsys, "verify", "bounds", "--seed", "3")
        assert first == second
