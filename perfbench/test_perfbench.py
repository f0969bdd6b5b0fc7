"""Tests of the benchmark itself: every workload runs, and every check rejects
a corrupted output.

Run from the repository root: ``python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckError  # noqa: E402

from rieszmv import cli, evaluate, format_formula, parse  # noqa: E402


def run_bench(workload, trace=0):
    proc = subprocess.run(
        # 0.1 s of run length is one round
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.BY_NAME))
def test_every_workload_runs_on_a_tiny_seed(workload):
    result = run_bench(workload)
    assert result["correct"] is True
    assert result["attempted"] > 0
    expected_failed = len(workloads.DEEP_INPUTS) if workload == "eval" else 0
    assert result["failed"] == expected_failed
    assert set(result["metrics"]) == {"setup_s", "query_p50_ms", "query_p90_ms", "queries_per_s", "output_bytes", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result = run_bench("books", trace=1)
    assert result["correct"] is True
    names = set(tracing.METRICS) | {tracing.KERNEL_METRIC}
    assert set(result["metrics"]) == names
    assert result["metrics"]["lp.solve_lp_calls"]["value"] > 0
    assert result["metrics"]["synthesis.tree_nodes"]["value"] >= result["metrics"]["synthesis.dag_nodes"]["value"] > 0


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "eval", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_agrees_with_the_package_evaluator():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 4)
        text = gen.formula(rng, n, rng.randint(1, 8))
        points = [gen.point(rng, n) for _ in range(4)]
        phi = parse(text)
        prog = ref.compile_formula(text)
        assert ref.evaluate_many(prog, points) == [evaluate(phi, p) for p in points]
        # the package's printing of the same formula reads back the same
        assert ref.evaluate_many(ref.compile_formula(format_formula(phi)), points) == [evaluate(phi, p) for p in points]


def test_reference_reads_deep_nesting():
    values = [ref.evaluate(ref.compile_formula(text), (Fraction(1, 3),)) for text in workloads.DEEP_INPUTS]
    # an even number of negations, a chain of implications v1 -> ... -> v1
    assert values == [Fraction(1, 3), Fraction(1, 3), Fraction(1), Fraction(1, 3) / 2**1200]


def test_reference_vertices_agree_with_the_package():
    from rieszmv import Affine, vertices_from_components

    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(1, 3)
        pieces = [tuple(gen.crossing_affine(rng, [rng.randint(1, 3) for _ in range(n)])) for _ in range(rng.randint(1, 4))]
        expected = vertices_from_components(n, [Affine(n, p) for p in set(pieces)])
        assert ref.arrangement_vertices(n, pieces) == list(expected)


def test_grid_values_take_the_same_values_with_and_without_numpy(monkeypatch):
    rng = random.Random(13)
    progs = [ref.compile_formula(gen.formula(rng, 3, rng.randint(1, 6))) for _ in range(40)]
    fast = [ref.grid_values(p, 3, 8) for p in progs]
    monkeypatch.setattr(ref, "numpy", None)
    assert fast == [ref.grid_values(p, 3, 8) for p in progs]


def test_grid_values_match_pointwise_evaluation():
    prog = ref.compile_formula("D[2/3] (v1 -> v2) (+) N[1/5] !v1")
    nums, den = ref.grid_values(prog, 2, 4)
    assert [Fraction(v, den) for v in nums] == ref.evaluate_many(prog, ref.grid(2, 4))
    groups = [[(Fraction(1, 3), Fraction(-2), Fraction(5, 2))], [(Fraction(0), Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(0), Fraction(0))]]
    nums, den = ref.maxmin_grid_values(groups, 2, 4)
    assert [Fraction(v, den) for v in nums] == ref.maxmin_values(groups, ref.grid(2, 4))
    # max(1/3 - 2/3 + 1/2, min(1/3, 1/2)) at (1/3, 1/5)
    assert ref.maxmin_values(groups, [(Fraction(1, 3), Fraction(1, 5))]) == [Fraction(1, 3)]


def program_output(argv):
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def rejects(check, out):
    with pytest.raises(CheckError):
        check(out)


def test_eval_check_rejects_a_wrong_value():
    check = workloads.check_value("v1 (+) D[1/2] v2", (Fraction(1, 3), Fraction(1, 2)))
    check("7/12\n")
    rejects(check, "2/3\n")


def test_extremum_check_rejects_a_witness_that_misses_its_value():
    text = "(v1 -> v2) (.) N[1/2] v1"
    check = workloads.check_extremum(text, True)
    out = program_output(["min", text])
    check(out)
    value, witness = out.splitlines()
    rejects(check, f"{value}\n1/2,1/2\n")
    # a value that a grid point beats, with a witness that gives it
    rejects(workloads.check_extremum("v1", True), "1/2\n1/2\n")


def test_verdict_and_norm_checks_reject_the_wrong_answer():
    rejects(workloads.check_verdict(True), "false\n")
    rejects(workloads.check_norm(Fraction(1, 3)), "1/2\n")
    rejects(workloads.check_invalid("v1 (.) v2", known=True), "false\n")
    rejects(workloads.check_invalid("v1 (.) v2"), "true\n1,1\n")


def test_components_check_rejects_a_missing_piece():
    text = "v1 \\/ !v1"
    check = workloads.check_components(text, [(Fraction(1, 4),), (Fraction(3, 4),)])
    out = program_output(["components", text])
    check(out)
    rejects(check, out.splitlines()[0] + "\n")


def book(tmp_path, events, odds):
    path = tmp_path / "book.json"
    path.write_text(json.dumps(workloads._book_json(events, odds)))
    return str(path)


def test_coherent_check_rejects_a_certificate_with_one_weight_changed(tmp_path):
    rng = random.Random(3)
    events, odds, _ = workloads.coherent_book(rng, 2, 4)
    out = program_output(["coherent", book(tmp_path, events, odds)])
    check = workloads.check_coherent(2, events, odds, True)
    check(out)
    cert = json.loads(out)
    cert["support"][0]["weight"] = str(Fraction(cert["support"][0]["weight"]) / 2)
    rejects(check, json.dumps(cert))
    rejects(workloads.check_coherent(2, events, odds, False), out)


def test_incoherent_check_rejects_a_certificate_with_one_stake_changed(tmp_path):
    rng = random.Random(4)
    events, odds, _, _ = workloads.incoherent_book(rng, 2, 3)
    out = program_output(["coherent", book(tmp_path, events, odds)])
    check = workloads.check_coherent(2, events, odds, False)
    check(out)
    cert = json.loads(out)
    i = next(i for i, c in enumerate(cert["stakes"]) if Fraction(c) != 0)
    cert["stakes"][i] = str(-Fraction(cert["stakes"][i]))
    rejects(check, json.dumps(cert))
    cert = json.loads(out)
    cert["margin"] = str(Fraction(cert["margin"]) * 2)
    rejects(check, json.dumps(cert))


def test_verify_check_rejects_anything_but_verified():
    workloads.check_verified("verified\n")
    rejects(workloads.check_verified, "NOT verified\n")


def scalar_corruptions(text, limit=12):
    """Copies of the formula text, each with one scalar p/q changed to p/(q+1)."""
    start = 0
    for _ in range(limit):
        start = min((i for i in (text.find(k, start) for k in ("D[", "N[", "C[")) if i >= 0), default=-1)
        if start < 0:
            return
        start += 2
        end = text.index("]", start)
        r = Fraction(text[start:end])
        yield text[:start] + str(Fraction(r.numerator, r.denominator + 1)) + text[end:]


def assert_rejects_changed_functions(check, formula, rest, n):
    """Every one-scalar change of ``formula`` that changes its function on
    the 1/16 grid makes ``check`` fail; at least one such change exists."""
    truth = ref.grid_values(ref.compile_formula(formula), n)
    changed = 0
    for wrong in scalar_corruptions(formula):
        nums, den = ref.grid_values(ref.compile_formula(wrong), n)
        if [Fraction(v, den) for v in nums] != [Fraction(v, truth[1]) for v in truth[0]]:
            changed += 1
            rejects(check, wrong + "\n" + rest)
    assert changed


def test_synth_check_rejects_a_formula_with_one_coefficient_off(tmp_path):
    n = 2
    groups = workloads.truncated(n, [[[Fraction(1, 3), Fraction(3, 2), Fraction(-5, 4)]]])
    path = tmp_path / "f.json"
    path.write_text(json.dumps(workloads._pwl_json(n, groups)))
    out = program_output(["synth", str(path)])
    check = workloads.check_pwl_formula(n, groups, [(Fraction(1, 7), Fraction(2, 9))])
    check(out)
    assert_rejects_changed_functions(check, out.rstrip("\n"), "", n)


def test_span_check_rejects_a_member_with_one_coefficient_off(tmp_path):
    events, odds, stakes = ["v1", "v1 (.) v2"], [Fraction(1, 2), Fraction(1, 5)], [Fraction(3, 2), Fraction(-1, 2)]
    out = program_output(["span", book(tmp_path, events, odds), "--"] + [str(c) for c in stakes])
    check = workloads.check_span(2, events, odds, stakes, [(Fraction(1, 7), Fraction(2, 9))])
    check(out)
    first, rest = out.split("\n", 1)
    assert_rejects_changed_functions(check, first, rest, 2)


def test_same_seed_same_queries(tmp_path):
    a = workloads.build("decide", 5, 0.3, tmp_path / "a")
    b = workloads.build("decide", 5, 0.3, tmp_path / "b")
    assert [q.argv for q in a] == [q.argv for q in b]
    c = workloads.build("decide", 6, 0.3, tmp_path / "c")
    assert [q.argv for q in a] != [q.argv for q in c]
