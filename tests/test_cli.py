import argparse
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import rieszmv
from rieszmv import cli, coherence, evaluate, geometry, maxmin_eval, parse
from rieszmv.cli import EXIT_BUDGET, EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, build_parser, main
from rieszmv.pwl import maxmin_to_json, term_pwl

from helpers import candidate_vertices

F = Fraction

BOOK_INCOHERENT = {
    "events": [
        {"formula": "v1", "odd": "1/2"},
        {"formula": "!v1", "odd": "3/10"},
    ]
}

BOOK_COHERENT = {
    "events": [
        {"formula": "v1", "odd": "1/2"},
        {"formula": "!v1", "odd": "1/2"},
    ]
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "D[1/2] v1", "--at", "3/5")
    assert code == EXIT_OK
    assert out.strip() == "3/10"


def test_eval_json(capsys):
    code, out, _ = run(capsys, "--json", "eval", "v1 (+) v2", "--at", "1/2,3/4")
    assert code == EXIT_OK
    assert json.loads(out) == {"value": "1"}


def test_valid_axiom_instance(capsys):
    code, out, _ = run(capsys, "valid", "N[1/2](v1->v2) <-> (N[1/2]v1 -> N[1/2]v2)")
    assert code == EXIT_OK
    assert out.strip() == "true"


def test_min_max_norm(capsys):
    code, out, _ = run(capsys, "min", "v1 \\/ !v1")
    assert code == EXIT_OK
    assert out.splitlines() == ["1/2", "1/2"]
    code, out, _ = run(capsys, "max", "D[2/3] v1")
    assert out.splitlines() == ["2/3", "1"]
    code, out, _ = run(capsys, "norm", "D[2/3] v1")
    assert out.strip() == "2/3"


def test_invalid_with_witness(capsys):
    code, out, _ = run(capsys, "invalid", "v1")
    assert code == EXIT_OK
    assert out.splitlines() == ["true", "0"]
    code, out, _ = run(capsys, "invalid", "C[1/2]")
    assert out.strip() == "false"


def test_equiv(capsys):
    code, out, _ = run(capsys, "equiv", "D[1/2]D[1/2]v1", "D[1/4]v1")
    assert code == EXIT_OK and out.strip() == "true"
    code, out, _ = run(capsys, "equiv", "v1", "!v1")
    assert out.strip() == "false"


def test_components(capsys):
    code, out, _ = run(capsys, "components", "v1 -> v2")
    assert code == EXIT_OK
    assert sorted(out.splitlines()) == ["1 -1 1", "1 0 0"]
    code, out, _ = run(capsys, "components", "!v1", "--arity", "2")
    assert out.splitlines() == ["1 -1 0"]


def test_components_past_the_piece_cap_of_reflecting_whole_subformulas(capsys):
    # through negation normal form only variables are reflected; reflecting
    # each negated subformula needed 264,411 pieces here
    text = (
        "!(((D[1] (v2 <-> !C[1/7]) -> D[1/2] (v1 (+) N[3/8] v3)) \\/ (v4 \\/ v4)) "
        "-> !(D[1] (v1 <-> (D[3/4] v1 (+) v4)) (.) v4))"
    )
    code, out, _ = run(capsys, "components", text)
    assert code == EXIT_OK
    pieces = [[Fraction(c) for c in line.split()] for line in out.splitlines()]
    assert len(pieces) == 23
    phi = parse(text)
    grid = [Fraction(k, 4) for k in range(5)]
    for x in ((a, b, c, d) for a in grid for b in grid for c in grid for d in grid):
        value = evaluate(phi, x)
        assert any(p[0] + sum(c * xi for c, xi in zip(p[1:], x)) == value for p in pieces), x


def test_components_drop_a_group_whose_minima_tie_with_a_covering_group(capsys):
    # the term function is max(0, min(x, 1 - x)); {x, 1 - x} covers {0}
    code, out, _ = run(capsys, "components", "!((v1 -> !v1) -> !(v1 /\\ v1))")
    assert (code, out) == (EXIT_OK, "0 1\n1 -1\n")


def test_formula_extrema_have_no_dimension_limit(capsys):
    # pruning compares pieces in O(n), not at the 2**n box corners
    started = time.perf_counter()
    assert term_pwl(parse("v1 \\/ v40"), 40).piece_count == 2
    assert time.perf_counter() - started < 2
    started = time.perf_counter()
    code, out, err = run(capsys, "max", "v1 \\/ v40")
    assert (code, err) == (EXIT_OK, "")
    assert out == "1\n" + ",".join(["0"] * 39 + ["1"]) + "\n"  # the unit vector e40
    assert time.perf_counter() - started < 2


def test_eval_constant_needs_no_point(capsys):
    code, out, _ = run(capsys, "eval", "C[1/2] (+) C[1/4]")
    assert code == EXIT_OK
    assert out.strip() == "3/4"


def test_synth_from_file(tmp_path, capsys):
    pwl = {"n": 1, "groups": [[["0", "1"]], [["1", "-1"]]]}
    path = tmp_path / "hat.json"
    path.write_text(json.dumps(pwl))
    code, out, _ = run(capsys, "synth", str(path))
    assert code == EXIT_OK
    formula = out.strip()
    code, out, _ = run(capsys, "equiv", formula, "v1 \\/ !v1")
    assert out.strip() == "true"


def _piece_file(tmp_path, c, truncated=True):
    # f = -c/2 + c v1 - c v2 + c/3 v3; truncated, as the groups (f ^ 1) v 0
    f = [str(F(-c, 2)), str(c), str(-c), str(F(c, 3))]
    groups = [[f, ["1", "0", "0", "0"]], [["0", "0", "0", "0"]]] if truncated else [[f]]
    path = tmp_path / f"piece{c}.json"
    path.write_text(json.dumps({"n": 3, "groups": groups}))
    return str(path)


def test_synth_output_grows_linearly_in_the_coefficients(tmp_path, capsys):
    points = [(F(1, 2), F(1, 3), F(1, 4)), (F(3, 4), F(1, 2), F(1, 8)), (F(1, 2), F(1, 2), F(1, 2))]
    for c in (12, 16, 1000):
        started = time.perf_counter()
        code, out, err = run(capsys, "synth", _piece_file(tmp_path, c))
        assert (code, err) == (EXIT_OK, ""), c
        assert time.perf_counter() - started < 10, c
        phi = parse(out.strip())
        for x in points:
            assert evaluate(phi, x) == min(1, max(0, -F(c, 2) + c * x[0] - c * x[1] + F(c, 3) * x[2]))
        # at most one leaf per variable in each of the ceil(4c/3) summands (1334 at c = 1000)
        assert out.count("v") <= 3 * -(-4 * c // 3), c


def test_synth_beyond_the_piece_cap_is_a_budget_error(tmp_path, capsys):
    started = time.perf_counter()
    code, out, err = run(capsys, "synth", _piece_file(tmp_path, 10**9))
    assert (code, out) == (EXIT_BUDGET, "")
    assert err.startswith("budget exceeded: ") and len(err.strip().splitlines()) == 1
    assert time.perf_counter() - started < 10


def test_synth_range_error_prints_the_point_like_a_witness(tmp_path, capsys):
    code, out, err = run(capsys, "synth", _piece_file(tmp_path, 12, truncated=False))
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err == "error: function drops below 0 at 0,1,0: value -18\n"


def test_synth_prints_pieces_constant_on_the_box_as_constants(tmp_path, capsys):
    cases = (
        ([[["5", "0"], ["0", "1"]]], "v1"),  # min(5, v1)
        ([[["3/2", "0"], ["0", "1"]]], "v1"),  # min(3/2, v1)
        ([[["2", "1"], ["0", "1"]]], "v1"),  # min(2 + v1, v1)
        ([[["-1", "1", "-1"]], [["0", "1/2", "0"]]], "D[1/2] v1"),  # max(v1 - 1 - v2, v1/2)
    )
    for groups, expected in cases:
        path = tmp_path / "constant.json"
        path.write_text(json.dumps({"n": len(groups[0][0]) - 1, "groups": groups}))
        assert run(capsys, "synth", str(path)) == (EXIT_OK, expected + "\n", ""), groups


def test_synth_drops_constants_that_cannot_change_the_value(tmp_path, capsys):
    cases = (
        ([[["1", "0"], ["2", "-1"]]], "C[1]"),  # min(1, 2 - v1): a meet of C[1]s keeps one
        ([[["0", "1"], ["0", "0"]], [["0", "-1"]]], "C[0]"),  # every group holds a C[0]
        ([[["0", "1"], ["1", "0"]], [["1", "-1"], ["0", "0"]]], "v1"),  # max(min(v1, 1), min(1 - v1, 0))
        ([[["0", "1"], ["1", "0"]], [["1", "-1"], ["3/2", "0"]]], "v1 \\/ C[1] (-) v1"),
    )
    for groups, expected in cases:
        path = tmp_path / "constant.json"
        path.write_text(json.dumps({"n": 1, "groups": groups}))
        assert run(capsys, "synth", str(path)) == (EXIT_OK, expected + "\n", ""), groups


def test_high_dimensional_coherence_counts_its_hyperplanes_and_synth_needs_none(tmp_path, capsys):
    # the event v30000: the 60,000 facet rows of its arrangement would hold 1.8e9 entries
    book = tmp_path / "book.json"
    book.write_text(json.dumps({"events": [{"formula": "v30000", "odd": "1/2"}]}))
    started = time.perf_counter()
    code, out, err = run(capsys, "coherent", str(book))
    assert (code, out) == (EXIT_BUDGET, "")
    assert err == (
        "budget exceeded: vertex enumeration over 60000 hyperplanes in dimension 30000: "
        "required at least 2^59991, budget 2000000\n"
    )
    assert time.perf_counter() - started < 10
    # the constant 1/2 in the same dimension: one piece, so its extrema need no LP
    path = tmp_path / "half.json"
    path.write_text(json.dumps({"n": 30000, "groups": [[["1/2"] + ["0"] * 30000]]}))
    started = time.perf_counter()
    assert run(capsys, "synth", str(path)) == (EXIT_OK, "C[1/2]\n", "")
    assert time.perf_counter() - started < 10


def test_synth_past_the_piece_cap_of_the_reflection_scans_the_vertices(tmp_path, capsys):
    # a term function (n = 1, 13 groups of up to 10 pieces) whose reflection
    # outgrows the piece cap; its row bounds lie in [0, 1], so this synth
    # needs no minimum (the vertex scan that such a minimum falls back to is
    # covered by test_minimum_past_the_piece_cap_of_the_reflection_comes_from_the_vertex_scan)
    a = "(C[2/5] \\/ !v1) (.) (!v1 (+) !v1)"
    f = term_pwl(parse(f"({a} (+) {a}) (.) ({a} (+) {a})"), 1)
    path = tmp_path / "mirrored.json"
    path.write_text(json.dumps(maxmin_to_json(f)))
    started = time.perf_counter()
    code, out, err = run(capsys, "synth", str(path))
    assert (code, err) == (EXIT_OK, "")
    assert time.perf_counter() - started < 10
    # the formula agrees with f at its breakpoints and between them
    psi = parse(out)
    xs = [x for (x,) in candidate_vertices(f)]
    points = xs + [(x + y) / 2 for x, y in zip(xs, xs[1:])]
    assert all(evaluate(psi, (x,)) == maxmin_eval(f, (x,)) for x in points)


def test_exact_values_and_sizes_past_4300_digits(capsys):
    # a denominator of 5,401 digits prints in full
    code, out, err = run(capsys, "eval", "D[1/999999999] " * 600 + "v1", "--at", "1")
    assert (code, err) == (EXIT_OK, "")
    assert len(out) == 5403 and out == f"1/{999999999**600}\n"  # main lifted the limit for this process too
    # 20,000 variables: pruning compares pieces in O(n)
    code, out, err = run(capsys, "min", "v1 \\/ v20000")
    assert (code, err, out.splitlines()[0]) == (EXIT_OK, "", "0")
    code, out, err = run(capsys, "components", "v1 \\/ v2", "--arity", "20000")
    assert (code, err) == (EXIT_OK, "")
    assert out == "".join(f"0{' 0' * i} 1{' 0' * (19999 - i)}\n" for i in (1, 0))


def test_coherent_incoherent_book(tmp_path, capsys):
    path = tmp_path / "book.json"
    path.write_text(json.dumps(BOOK_INCOHERENT))
    code, out, _ = run(capsys, "coherent", str(path))
    assert code == EXIT_OK
    cert = json.loads(out)
    assert cert["kind"] == "incoherent"
    assert cert["margin"] == "1/5"
    assert cert["stakes"] == ["1", "1"]


def test_coherent_verify_round_trip(tmp_path, capsys):
    book_path = tmp_path / "book.json"
    book_path.write_text(json.dumps(BOOK_COHERENT))
    code, out, _ = run(capsys, "coherent", str(book_path))
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(out)
    code, out, _ = run(capsys, "coherent", str(book_path), "--verify", str(cert_path))
    assert code == EXIT_OK
    assert out.strip() == "verified"

    # a certificate for the wrong book must not verify
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(BOOK_INCOHERENT))
    code, out, _ = run(capsys, "coherent", str(wrong), "--verify", str(cert_path))
    assert code == EXIT_DOMAIN


def test_certificate_numbers_read_like_book_numbers(tmp_path, capsys):
    # a JSON number 0.1 is 1/10 in a certificate, as it is in a book
    book = tmp_path / "book.json"
    book.write_text(json.dumps({"events": [{"formula": "v1", "odd": 0.1}]}))
    for point in ([0.1], ["0.1"]):
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"kind": "coherent", "support": [{"point": point, "weight": 1}]}))
        code, out, _ = run(capsys, "coherent", str(book), "--verify", str(cert))
        assert (code, out) == (EXIT_OK, "verified\n"), point


def test_json_numbers_are_read_exactly(tmp_path, capsys):
    # a JSON number means its decimal text, never the nearest binary float
    book = tmp_path / "book.json"
    book.write_text('{"events": [{"formula": "v1", "odd": 0.30000000000000001}]}')
    code, out, _ = run(capsys, "coherent", str(book))
    weights = [entry["weight"] for entry in json.loads(out)["support"]]
    assert (code, weights) == (
        EXIT_OK,
        ["69999999999999999/100000000000000000", "30000000000000001/100000000000000000"],
    )
    pwl = tmp_path / "pwl.json"
    for number, text in (
        ("0.12345678901234567890123", f"C[12345678901234567890123/{10**23}]"),
        ("1e-400", f"C[1/{10**400}]"),
    ):
        pwl.write_text(f'{{"n": 1, "groups": [[[{number}, 0]]]}}')
        assert run(capsys, "synth", str(pwl)) == (EXIT_OK, text + "\n", ""), number
    pwl.write_text('{"n": 1.0, "groups": [[[0.5, 0]]]}')
    assert run(capsys, "synth", str(pwl))[0] == EXIT_DOMAIN
    # the entry points that take JSON text read numbers the same way
    text = '{"events": [{"formula": "v1", "odd": 0.30000000000000001}]}'
    assert coherence.book_from_json(text).events[0][1] == F(30000000000000001, 10**17)
    cert = coherence.certificate_from_json('{"kind": "incoherent", "stakes": [1e-400], "margin": 0.1}')
    assert (cert.stakes, cert.margin) == ((F(1, 10**400),), F(1, 10))


def test_json_numbers_and_rational_strings_give_the_same_values(tmp_path, capsys):
    # a number parsed exactly is taken as it is; a string is rational text
    for number, text in (("0.30000000000000001", '"0.30000000000000001"'), ("1", '"1"'), ("0", '"0/7"')):
        as_number = coherence.book_from_json(f'{{"events": [{{"formula": "v1", "odd": {number}}}]}}')
        assert as_number == coherence.book_from_json(f'{{"events": [{{"formula": "v1", "odd": {text}}}]}}')
    book = coherence.book_from_json({"events": [{"formula": "v1", "odd": F(1, 3)}]})
    assert book.events[0][1] == F(1, 3)
    # true is not a number, in any of the three readers
    for name, content in (
        ("book", '{"events": [{"formula": "v1", "odd": true}]}'),
        ("cert", '{"kind": "incoherent", "stakes": [true], "margin": "1/2"}'),
        ("pwl", '{"n": 1, "groups": [[[true, 0]]]}'),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(content)
        if name == "book":
            argv = ("coherent", str(path))
        elif name == "cert":
            (tmp_path / "ok.json").write_text(json.dumps(BOOK_COHERENT))
            argv = ("coherent", str(tmp_path / "ok.json"), "--verify", str(path))
        else:
            argv = ("synth", str(path))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_DOMAIN, ""), name
        assert err.startswith("error: malformed") and "True" in err, (name, err)


def test_span(tmp_path, capsys):
    path = tmp_path / "book.json"
    path.write_text(json.dumps({"events": [{"formula": "v1", "odd": "1/2"}]}))
    code, out, _ = run(capsys, "--json", "span", str(path), "1")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["invalid"] is True
    code, out, _ = run(capsys, "eval", data["formula"], "--at", "1")
    assert out.strip() == "1/2"


def test_usage_error_is_64(capsys):
    assert run(capsys, "bogus")[0] == EXIT_USAGE
    assert run(capsys, "eval")[0] == EXIT_USAGE


def test_parse_error_is_domain_error(capsys):
    code, _, err = run(capsys, "eval", "v1 -> ")
    assert code == EXIT_DOMAIN
    assert "position 6" in err


def test_missing_file_is_domain_error(capsys):
    code, _, err = run(capsys, "coherent", "/nonexistent/book.json")
    assert code == EXIT_DOMAIN


def test_budget_flag_and_exit_code(capsys):
    code, _, err = run(capsys, "--budget", "3", "min", "(v1 (+) v2 (+) v3) <-> (v1 (.) v2 (.) v3)")
    assert code == EXIT_BUDGET
    assert "budget" in err


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("RIESZ_BUDGET", "3")
    code, _, err = run(capsys, "min", "(v1 (+) v2 (+) v3) <-> (v1 (.) v2 (.) v3)")
    assert code == EXIT_BUDGET
    monkeypatch.delenv("RIESZ_BUDGET")
    code, out, _ = run(capsys, "min", "(v1 (+) v2 (+) v3) <-> (v1 (.) v2 (.) v3)")
    assert code == EXIT_OK


def test_budget_must_be_a_nonnegative_integer(capsys, monkeypatch):
    for value, message in (("-1", "must be a nonnegative integer, got -1"), ("abc", "invalid int value: 'abc'")):
        code, out, err = run(capsys, "--budget", value, "min", "v1")
        assert (code, out) == (EXIT_USAGE, ""), value
        assert err.endswith(f"rieszmv: error: argument --budget: {message}\n"), err
    for value in ("abc", "-1"):
        monkeypatch.setenv("RIESZ_BUDGET", value)
        code, out, err = run(capsys, "min", "v1")
        assert (code, out) == (EXIT_DOMAIN, ""), value
        assert err == f"error: RIESZ_BUDGET must be a nonnegative integer, got '{value}'\n"
    monkeypatch.setenv("RIESZ_BUDGET", "0")
    assert run(capsys, "min", "v1") == (EXIT_OK, "0\n0\n", "")


def test_a_bad_riesz_budget_fails_every_subcommand_unless_budget_is_given(tmp_path, capsys, monkeypatch):
    # inputs that need no LP, so only the CLI's own check can reach the budget
    book, cert, pwl = (tmp_path / name for name in ("book.json", "cert.json", "pwl.json"))
    book.write_text(json.dumps(BOOK_COHERENT))
    pwl.write_text(json.dumps({"n": 1, "groups": [[["0", "1"]]]}))
    monkeypatch.delenv("RIESZ_BUDGET", raising=False)
    cert.write_text(run(capsys, "coherent", str(book))[1])
    calls = [
        ("eval", "C[1/2]"),
        ("components", "v1"),
        ("synth", str(pwl)),
        ("min", "v1"),
        ("max", "v1"),
        ("valid", "C[1]"),
        ("invalid", "C[1/2]"),
        ("norm", "C[1/2]"),
        ("equiv", "C[1]", "C[1]"),
        ("coherent", str(book)),
        ("coherent", str(book), "--verify", str(cert)),
        ("span", str(book), "1", "0"),  # f(0) = 0 is the lower row bound
    ]
    expected = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in expected] == [EXIT_OK] * len(calls)
    for value in ("abc", "-1"):
        monkeypatch.setenv("RIESZ_BUDGET", value)
        message = f"error: RIESZ_BUDGET must be a nonnegative integer, got '{value}'\n"
        for argv, want in zip(calls, expected):
            assert run(capsys, *argv) == (EXIT_DOMAIN, "", message), argv
            assert run(capsys, "--budget", "5", *argv) == want, argv


def test_arity_must_be_a_nonnegative_integer(capsys):
    for value in ("-1", "-2"):
        code, out, err = run(capsys, "components", "C[1/2]", "--arity", value)
        assert (code, out) == (EXIT_USAGE, ""), value
        assert err.endswith(f"rieszmv: error: argument --arity: must be a nonnegative integer, got {value}\n"), err
    assert run(capsys, "components", "C[1/2]", "--arity", "0") == (EXIT_OK, "1/2\n", "")


BOOK_ONE = {"events": [{"formula": "v1", "odd": "1"}]}


# a JSON string where an array belongs: (command, book, file text, message)
@pytest.mark.parametrize(
    "command, book, text, message",
    [
        ("synth", None, '{"n": 0, "groups": "12"}', "piecewise-linear"),
        ("synth", None, '{"n": 0, "groups": ["12"]}', "piecewise-linear"),
        ("synth", None, '{"n": 1, "groups": [["12"]]}', "piecewise-linear"),
        ("coherent", None, '{"events": "v1"}', "book"),
        ("verify", BOOK_ONE, '{"kind": "coherent", "support": "1"}', "certificate"),
        ("verify", BOOK_ONE, '{"kind": "coherent", "support": [{"point": "1", "weight": "1"}]}', "certificate"),
        ("verify", BOOK_INCOHERENT, '{"kind": "incoherent", "stakes": "11", "margin": "1/5"}', "certificate"),
    ],
    ids=["groups", "group", "pieces", "events", "support", "points", "stakes"],
)
def test_a_string_where_an_array_belongs_is_malformed(tmp_path, capsys, command, book, text, message):
    path = tmp_path / "input.json"
    path.write_text(text)
    if command == "verify":
        book_path = tmp_path / "book.json"
        book_path.write_text(json.dumps(book))
        argv = ("coherent", str(book_path), "--verify", str(path))
    else:
        argv = (command, str(path))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err == f"error: malformed {message} JSON: expected an array, got str\n"


def test_span_solves_one_minimum(tmp_path, capsys, monkeypatch):
    # trunc(1/2 - x1) of these stakes is f(0) = 17/20 above its lower row
    # bound 0, so its minimum needs the reflection; the synthesis of a span
    # member needs no extremum, so the verdict's _box_min is the only one
    path = tmp_path / "book.json"
    path.write_text(json.dumps(BOOK_INCOHERENT))
    calls = []
    box_min, box_max = geometry._box_min, geometry._box_max

    def counted_min(*args):
        calls.append("min")
        try:
            return box_min(*args)
        finally:
            calls.append("end")

    def counted_max(*args):
        calls.append("max" if calls[-1:] == ["min"] else "max outside _box_min")
        return box_max(*args)

    monkeypatch.setattr(geometry, "_box_min", counted_min)
    monkeypatch.setattr(geometry, "_box_max", counted_max)
    code, out, err = run(capsys, "span", str(path), "--", "-1", "1/2")
    assert (code, out.splitlines()[1:], err) == (EXIT_OK, ["invalid", "17/30"], "")
    assert calls == ["min", "max", "end"]


def test_huge_values_out_of_range_print_as_bounds(tmp_path, capsys):
    # printing 10^1000000 in full took 16 s; a bound is one short line
    books = []
    for odd in ("1e1000000", '"1e1000000"'):
        books.append(tmp_path / f"book{len(books)}.json")
        books[-1].write_text('{"events": [{"formula": "v1", "odd": %s}]}' % odd)
    cases = (
        (("eval", "v1", "--at", "1e1000000"), "error: evaluation coordinate at least 2^3321928 outside [0, 1]\n"),
        (("coherent", str(books[0])), "error: at least 2^3321928 is outside [0, 1]\n"),
        (("coherent", str(books[1])), "error: at least 2^3321928 is outside [0, 1]\n"),
        (("eval", "v1", "--at=-1e-400"), "error: evaluation coordinate at most -2^-1329 outside [0, 1]\n"),
    )
    for argv, message in cases:
        started = time.perf_counter()
        assert run(capsys, *argv) == (EXIT_DOMAIN, "", message), argv
        assert time.perf_counter() - started < 2 and len(message) < 200, argv
    # values up to 100 bits, and values in range, print in full
    big = 2**100 - 1
    assert run(capsys, "eval", "v1", "--at", str(big)) == (
        EXIT_DOMAIN, "", f"error: evaluation coordinate {big} outside [0, 1]\n"
    )
    assert run(capsys, "eval", "v1", "--at", "1e-400") == (EXIT_OK, f"1/{10**400}\n", "")


def test_out_of_memory_is_a_budget_error(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    # patched where the subcommands look the names up; nothing is allocated
    monkeypatch.setattr(cli, "evaluate", exhausted)
    monkeypatch.setattr(cli.geometry, "is_valid", exhausted)
    for argv in (("eval", "v1", "--at", "1/2"), ("valid", "v1 -> v1")):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_BUDGET
        assert (out, err) == ("", "budget exceeded: out of memory\n")


def test_deterministic_output(tmp_path, capsys):
    path = tmp_path / "book.json"
    path.write_text(json.dumps(BOOK_INCOHERENT))
    outputs = set()
    for _ in range(3):
        _, out, _ = run(capsys, "coherent", str(path))
        outputs.add(out)
    assert len(outputs) == 1


def _alone(*argv):
    """(exit code, stdout, stderr) of one ``rieszmv`` call in a fresh interpreter."""
    src = str(Path(rieszmv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "rieszmv.cli", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_reused_parser_prints_what_a_fresh_process_prints(capsys):
    calls = [("eval",), ("--json", "eval", "v1 (+) v2", "--at", "1/2,3/4"), ("eval", "D[1/2] v1", "--at", "3/5")]
    in_process = [run(capsys, *argv) for argv in calls]
    assert build_parser() is build_parser()
    assert in_process == [_alone(*argv) for argv in calls]
    assert in_process[0][0] == EXIT_USAGE


def test_span_takes_negative_stakes_as_in_the_readme(tmp_path, capsys):
    path = tmp_path / "book.json"
    path.write_text(json.dumps(BOOK_INCOHERENT))
    code, out, _ = run(capsys, "span", str(path), "1", "-1/2")
    assert code == EXIT_OK
    text, verdict, *rest = out.splitlines()
    # oracle: the first candidate vertex at which the printed formula is 0
    phi = parse(text)
    combo = coherence.span_combination(coherence.book_from_json(BOOK_INCOHERENT), [F(1), F(-1, 2)])
    zeros = [v for v in candidate_vertices(combo) if evaluate(phi, v) == 0]
    assert verdict == ("invalid" if zeros else "not invalid")
    assert rest == ([",".join(str(c) for c in zeros[0])] if zeros else [])
    assert run(capsys, "span", str(path), "--", "1", "-1/2") == (code, out, "")

    single = tmp_path / "single.json"
    single.write_text(json.dumps({"events": [{"formula": "v1", "odd": "1/2"}]}))
    assert run(capsys, "span", str(single), "-3/4")[0] == EXIT_OK
    assert run(capsys, "span", str(single))[0] == EXIT_USAGE


def test_span_with_an_option_after_the_book_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "book.json"
    path.write_text(json.dumps(BOOK_INCOHERENT))
    # a stake never starts with "--", so such a token is an option out of place
    for stakes in (("1", "--budget", "3"), ("--json", "1"), ("1", "--", "-1/2")):
        code, out, err = run(capsys, "span", str(path), *stakes)
        assert (code, out) == (EXIT_USAGE, ""), stakes
        assert err.startswith("usage: rieszmv span ") and "options go before the subcommand" in err, stakes
    code, out, err = run(capsys, "--budget", "3", "--json", "span", str(path), "1", "1")
    assert (code, json.loads(out), err) == (EXIT_OK, {"formula": "C[1/5]", "invalid": False}, "")


# subcommand, dest, option strings, nargs, default, type, help of every argument but -h
ARGUMENTS = [
    ("eval", "formula", [], None, None, None, None),
    ("eval", "at", ["--at"], None, "", None, "comma-separated rational coordinates"),
    ("components", "formula", [], None, None, None, None),
    ("components", "arity", ["--arity"], None, None, int, "embed in this dimension"),
    ("synth", "pwl", [], None, None, None, "path to {'n': ..., 'groups': ...} JSON"),
    ("min", "formula", [], None, None, None, None),
    ("max", "formula", [], None, None, None, None),
    ("valid", "formula", [], None, None, None, None),
    ("invalid", "formula", [], None, None, None, None),
    ("norm", "formula", [], None, None, None, None),
    ("equiv", "left", [], None, None, None, None),
    ("equiv", "right", [], None, None, None, None),
    ("coherent", "book", [], None, None, None, None),
    ("coherent", "verify", ["--verify"], None, None, None, "re-check this certificate instead of solving"),
    ("span", "book", [], None, None, None, None),
    ("span", "stakes", [], argparse.REMAINDER, None, cli._stake, "one rational stake per event"),
]


def test_the_argument_table_is_pinned(capsys):
    # read off the parser's actions rather than its help text, whose layout
    # changes between Python versions
    (subcommands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    actual = [
        (name, a.dest, a.option_strings, a.nargs, a.default, a.type, a.help)
        for name, p in subcommands.choices.items()
        for a in p._actions
        if not isinstance(a, argparse._HelpAction)
    ]
    assert actual == ARGUMENTS
    for name in subcommands.choices:
        code, _, err = run(capsys, name, "--help")
        assert (code, err) == (EXIT_OK, ""), name


# the shapes of the deep inputs in perfbench/workloads.py
DEEP = (
    "(" * 150 + "v1" + ")" * 150,
    "!" * 1200 + "v1",
    " -> ".join(["v1"] * 1200),
    "D[1/2] " * 1200 + "v1",
)
LONG_SCALAR = "D[1/" + "7" * 400 + "] v1"
MALFORMED_BOOKS = (
    "{",
    "[]",
    '{"events": []}',
    '{"events": [1]}',
    '{"events": [{"formula": 3, "odd": "1/2"}]}',
    '{"events": [{"formula": "v1", "odd": null}]}',
    '{"events": [{"formula": "v1", "odd": "2"}]}',
    '{"events": [{"formula": "v1", "odd": "1/0"}]}',
)
# read as n = 1 once, so synth printed v1 and exited 0
NON_INTEGER_ARITY_PWLS = (
    '{"n": 1.9, "groups": [[["0", "1"]]]}',
    '{"n": true, "groups": [[["0", "1"]]]}',
)
MALFORMED_PWLS = (
    "{",
    "{}",
    '{"n": "x", "groups": []}',
    '{"n": 1, "groups": [[]]}',
    '{"n": 1, "groups": [[["0"]]]}',
    '{"n": 1, "groups": [[["0", "x"]]]}',
    '{"n": 1, "groups": [[["0", "2"]]]}',
) + NON_INTEGER_ARITY_PWLS
MALFORMED_CERTIFICATES = (
    "{",
    "[]",
    '{"kind": 5}',
    '{"kind": "coherent", "support": []}',
    '{"kind": "coherent", "support": [{"point": [], "weight": "1"}]}',
    '{"kind": "coherent", "support": [{"point": ["x"], "weight": "1"}]}',
    '{"kind": "incoherent", "stakes": ["1"], "margin": "1"}',
    '{"kind": "incoherent", "stakes": [null, 1], "margin": "1/5"}',
)


def _hostile_calls(tmp_path):
    def file(text):
        path = tmp_path / f"input{len(list(tmp_path.iterdir()))}.json"
        path.write_text(text)
        return str(path)

    good_book = file(json.dumps(BOOK_INCOHERENT))
    for text in DEEP + (LONG_SCALAR,):
        yield "eval", text, "--at", "1/3"
        for command in ("min", "max", "valid", "invalid", "norm", "components"):
            yield command, text
        yield "equiv", text, "v1"
        book = file(json.dumps({"events": [{"formula": text, "odd": "1/2"}]}))
        yield "coherent", book
        yield "span", book, "1"
    for text in MALFORMED_BOOKS:
        book = file(text)
        yield "coherent", book
        yield "span", book, "-1/2"
    for text in MALFORMED_PWLS:
        yield "synth", file(text)
    for text in MALFORMED_CERTIFICATES:
        yield "coherent", good_book, "--verify", file(text)
    # high variable indices; the coherence of the event exceeds the vertex budget
    yield "min", "v1 \\/ v30"
    yield "components", "v1 \\/ v2", "--arity", "40"
    yield "coherent", file(json.dumps({"events": [{"formula": "v1 \\/ v30", "odd": "1/2"}]}))


def test_every_subcommand_keeps_the_exit_code_contract_on_hostile_input(tmp_path, capsys):
    for argv in _hostile_calls(tmp_path):
        code, _, err = run(capsys, *argv)
        assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_BUDGET, EXIT_USAGE), argv
        if code in (EXIT_DOMAIN, EXIT_BUDGET):
            assert len(err.strip().splitlines()) <= 1, argv  # one-line message
    for text in NON_INTEGER_ARITY_PWLS:
        path = tmp_path / "arity.json"
        path.write_text(text)
        code, out, err = run(capsys, "synth", str(path))
        assert (code, out) == (EXIT_DOMAIN, ""), text
        assert "malformed piecewise-linear JSON" in err, text


def test_a_file_holds_one_json_value_decoded_once(tmp_path, capsys):
    # a top-level JSON string holding a book or a certificate was decoded a
    # second time and accepted; n = -1 with no coefficients raised IndexError
    book, cert, pwl = (tmp_path / name for name in ("book.json", "cert.json", "pwl.json"))
    book.write_text(json.dumps(BOOK_INCOHERENT))
    code, good_cert, _ = run(capsys, "coherent", str(book))
    assert code == EXIT_OK
    cert.write_text(json.dumps(good_cert))
    code, out, err = run(capsys, "coherent", str(book), "--verify", str(cert))
    assert (code, out) == (EXIT_DOMAIN, "") and err.startswith("error: malformed certificate JSON: "), err
    cert.write_text(good_cert)
    assert run(capsys, "coherent", str(book), "--verify", str(cert)) == (EXIT_OK, "verified\n", "")
    book.write_text(json.dumps(json.dumps(BOOK_INCOHERENT)))
    for argv in (("coherent", str(book)), ("coherent", str(book), "--verify", str(cert)), ("span", str(book), "1", "1")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_DOMAIN, "") and err.startswith("error: malformed book JSON: "), argv
    pwl.write_text('{"n": -1, "groups": [[[]]]}')
    assert run(capsys, "synth", str(pwl)) == (
        EXIT_DOMAIN, "", "error: malformed piecewise-linear JSON: n must be a nonnegative integer, got -1\n"
    )



SYNTAX = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
NOT_A_FRACTION = "Invalid literal for Fraction: 'x'"
SUPPORT = '{"kind": "coherent", "support": [{"point": ["1/2"], "weight": "%s"}]}'
STAKES = '{"kind": "incoherent", "stakes": ["1", "1"], "margin": "%s"}'
ODD = '{"events": [{"formula": "%s", "odd": "%s"}]}'


@pytest.mark.parametrize(
    "command, book, text, message",
    [
        ("synth", None, "{", f"malformed piecewise-linear JSON: {SYNTAX}"),
        ("synth", None, '{"n": 1, "groups": [[["x", "1"]]]}', f"malformed piecewise-linear JSON: {NOT_A_FRACTION}"),
        ("coherent", None, "{", f"malformed book JSON: {SYNTAX}"),
        ("coherent", None, ODD % ("v1", "x"), f"malformed book JSON: {NOT_A_FRACTION}"),
        ("span", None, "{", f"malformed book JSON: {SYNTAX}"),
        ("verify", BOOK_INCOHERENT, "{", f"malformed certificate JSON: {SYNTAX}"),
        ("verify", BOOK_INCOHERENT, STAKES % "x", f"malformed certificate JSON: {NOT_A_FRACTION}"),
        ("verify", BOOK_COHERENT, SUPPORT % "x", f"malformed certificate JSON: {NOT_A_FRACTION}"),
        # formula, odd-range and certificate rules keep their own messages
        ("coherent", None, ODD % ("v1 ->", "1/2"), "expected a formula, found 'end of input' (at position 5)"),
        ("coherent", None, ODD % ("v1", "3/2"), "3/2 is outside [0, 1]"),
        ("verify", BOOK_COHERENT, SUPPORT % "1/2", "support weights must sum to 1"),
        ("verify", BOOK_INCOHERENT, STAKES % "0", "a Dutch book needs a positive margin"),
    ],
    ids=[
        "pwl-syntax", "pwl-rational", "book-syntax", "book-rational", "span-syntax", "certificate-syntax",
        "margin-rational", "weight-rational", "formula", "odd-range", "weights", "margin",
    ],
)
def test_a_json_error_names_the_file_format(tmp_path, capsys, command, book, text, message):
    path = tmp_path / "input.json"
    path.write_text(text)
    if command == "verify":
        book_path = tmp_path / "book.json"
        book_path.write_text(json.dumps(book))
        argv = ("coherent", str(book_path), "--verify", str(path))
    else:
        argv = (command, str(path)) + (("1",) if command == "span" else ())
    assert run(capsys, *argv) == (EXIT_DOMAIN, "", f"error: {message}\n")

# valid documents the seeded fuzz test below breaks, by file kind
FUZZ_DOCUMENTS = {
    "pwl": (
        {"n": 1, "groups": [[["0", "1"]]]},
        {"n": 2, "groups": [[["0", "1", "0"], ["1", "-1", "0"]], [["1/2", "0", "1/2"]]]},
    ),
    "book": (
        BOOK_INCOHERENT,
        {"events": [{"formula": "v1 (+) v2", "odd": "1/2"}, {"formula": "D[1/2] v1 -> v2", "odd": "9/10"}]},
    ),
    "cert": (
        {"kind": "coherent", "support": [{"point": ["0"], "weight": "1/2"}, {"point": ["1"], "weight": "1/2"}]},
        {"kind": "incoherent", "stakes": ["1", "1"], "margin": "1/5"},
    ),
}
FUZZ_VALUES = (-1, 0, 2, True, False, None, 0.5, "x", "", "-1", "1/0", "12", "v1", [], [[]], [""], {}, {"n": 1})
FUZZ_FORMULAS = ("v1 -> v2", "D[1/2] v1 (+) !v2", "C[1/3] <-> (v1 /\\ v2)", "N[2/3] v1 (-) v2 \\/ v1 (.) v2")
FUZZ_POINTS = ("", "1/2", "1/2,1/3", "2", "-1", "x", "1/0", "0.5,", ",", "1,1,1")
FUZZ_OPTIONS = ("-1", "x", "1.5", "", "0", "3")


def _json_paths(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _json_paths(value, path + (key,))


def _copy(value):
    return json.loads(json.dumps(value))


def _broken_json(rng, kind):
    """The text of a document of ``kind`` with one to three random faults."""
    doc = _copy(rng.choice(FUZZ_DOCUMENTS[kind]))
    for _ in range(rng.randint(1, 3)):
        paths = list(_json_paths(doc))[1:]
        if not paths:  # every key deleted
            break
        *parent, key = rng.choice(paths)
        node = doc
        for step in parent:
            node = node[step]
        move = rng.random()
        if move < 0.15:
            del node[key]  # a missing key, or an array one shorter (maybe empty)
        elif move < 0.25 and isinstance(node, list):
            node.append(_copy(node[key]))  # an array one longer
        else:
            node[key] = _copy(rng.choice(FUZZ_VALUES))
    text = json.dumps(doc)
    wrap = rng.random()
    if wrap < 0.1:
        return json.dumps(text)  # a top-level string holding the document
    if wrap < 0.2:
        return json.dumps([doc])
    if wrap < 0.3:
        return text[: rng.randrange(len(text))]
    return text


def _broken_formula(rng):
    """One of ``FUZZ_FORMULAS`` with up to two characters inserted or replaced."""
    text = rng.choice(FUZZ_FORMULAS)
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(len(text) + 1)
        text = text[:i] + rng.choice("()[]!v0123/.-+<>\\ ") + text[i + 1 if rng.random() < 0.5 else i:]
    return text


def _fuzz_calls(rng, file):
    """One call of every subcommand with malformed input, in a random order."""
    calls = [
        ("eval", _broken_formula(rng), "--at", rng.choice(FUZZ_POINTS)),
        ("components", _broken_formula(rng), "--arity", rng.choice(FUZZ_OPTIONS)),
        ("equiv", _broken_formula(rng), _broken_formula(rng)),
        ("span", file(_broken_json(rng, "book")), rng.choice(("1", "x", "1/0")), rng.choice(("-1/2", "", "2"))),
    ]
    for _ in range(2):
        calls.append(("synth", file(_broken_json(rng, "pwl"))))
        calls.append(("coherent", file(_broken_json(rng, "book"))))
        good_book = file(json.dumps(rng.choice(FUZZ_DOCUMENTS["book"])))
        calls.append(("coherent", good_book, "--verify", file(_broken_json(rng, "cert"))))
    calls += [(name, _broken_formula(rng)) for name in ("min", "max", "valid", "invalid", "norm")]
    rng.shuffle(calls)
    for argv in calls:
        yield ("--budget", rng.choice(FUZZ_OPTIONS)) + argv if rng.random() < 0.2 else argv


def test_seeded_malformed_input_keeps_the_exit_code_contract(tmp_path, capsys):
    rng = random.Random(21)
    files = []

    def file(text):
        files.append(tmp_path / f"input{len(files)}.json")
        files[-1].write_text(text)
        return str(files[-1])

    codes = []
    for _ in range(30):
        for argv in _fuzz_calls(rng, file):
            try:
                code, out, err = run(capsys, *argv)
            except Exception as exc:  # any escape fails the contract; name the call
                pytest.fail(f"{argv} raised {exc!r}")
            assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_BUDGET, EXIT_USAGE), argv
            if code in (EXIT_DOMAIN, EXIT_BUDGET) and out != "NOT verified\n":
                assert len(err.strip().splitlines()) == 1, (argv, err)  # a one-line message
            codes.append(code)
    assert len(codes) == 450 and {EXIT_OK, EXIT_DOMAIN, EXIT_USAGE} <= set(codes)
