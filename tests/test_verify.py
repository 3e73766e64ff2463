import json
from fractions import Fraction

import pytest

from chromaspec import bounds, families, verify
from chromaspec.cli import main
from chromaspec.verify import SUITES, run_suites

# Every row of `verify all`, in order: a claim dropped or renamed shows here.
ROW_NAMES = [
    "families: family spectra match exact oracles",
    "families: g_ktd(k,t,k) isomorphic to g_ktd(t,k,t)",
    "families: g_ktd chromatic number equals theta",
    "families: g_ktd with d<k has a unique chi-coloring",
    "families: g_ktd canonical coloring is equitable",
    "families: g_ktd eigenfunction certificates verify",
    "families: g_ktd largest-eigenvalue case table",
    "families: complete split lambda_max = 1 + t/(N-1)",
    "sharp: lambda_N >= chi/(chi-1) on corpus",
    "sharp: non-complete non-bipartite lambda_N >= (N+1)/(N-1)",
    "sharp: sharp graphs: all chi-colorings equitable",
    "sharp: sharp graphs: multiplicity >= chi-1",
    "sharp: sharp + multiplicity chi-1 implies unique coloring",
    "onesum: 1-sum interlacing lambda_max(sum) <= max",
    "onesum: chi(1-sum) = max(chi_1, chi_2)",
    "onesum: m_sum(lambda) >= m_1 + m_2 - 1 for common groups",
    "onesum: sharp (+) sharp with equal chi stays sharp, m1+m2-1",
    "onesum: generalized petal law lambda = n/(n-1), mult = |V|-m",
    "onesum: mediant lemma: min <= (a+b)/(c+d) <= max",
    "onesum: edge-disjoint union interlacing",
    "onesum: single shared vertex: union equals 1-sum",
    "bounds: all applicable upper bounds hold",
    "bounds: Hoffman bound is a valid chi lower bound",
    "bounds: N/delta bound tight on Turan graphs",
]


@pytest.fixture(scope="module")
def rows():
    return run_suites(list(SUITES), seed=7)


def test_row_names_pinned(rows):
    assert [name for name, _, _ in rows] == ROW_NAMES


@pytest.mark.parametrize("name", ROW_NAMES)
def test_row_passes(rows, name):
    ok, detail = {row: (ok, detail) for row, ok, detail in rows}[name]
    assert ok, detail


def test_failing_row_names_its_counterexample(monkeypatch, capsys):
    monkeypatch.setattr(families, "oracle_lambda_max_complete_split", lambda t, chi: Fraction(0))
    assert main(["verify", "families"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "7/8 checks passed"
    [row] = [line for line in lines if line.startswith("families: complete split")]
    assert "  FAIL  t<=8, chi<=5; counterexample: " in row
    graph = json.loads(row.split("counterexample: ", 1)[1])
    expected = families.complete_split(1, 2)
    assert graph["n"] == expected.n
    assert [tuple(e) for e in graph["edges"]] == list(expected.edges())


def test_sharp_and_bounds_read_one_report_per_corpus_graph(monkeypatch):
    # Both suites read the shared reports; neither enumerates colorings itself.
    calls = {"full_report": 0, "enumerate_chi_colorings": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(bounds, "full_report")
    counted(verify, "enumerate_chi_colorings")
    corpora = verify._Corpora(7, None)
    expected = len(corpora.random_graphs) + len(corpora.family_graphs)
    assert expected == 671
    run_suites(["sharp", "bounds"], seed=7)
    assert calls == {"full_report": expected, "enumerate_chi_colorings": 0}
