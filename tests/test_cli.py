import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import rieszmv
from rieszmv import candidate_vertices, coherence, evaluate, parse
from rieszmv.cli import EXIT_BUDGET, EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, build_parser, main

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
MALFORMED_PWLS = (
    "{",
    "{}",
    '{"n": "x", "groups": []}',
    '{"n": 1, "groups": [[]]}',
    '{"n": 1, "groups": [[["0"]]]}',
    '{"n": 1, "groups": [[["0", "x"]]]}',
    '{"n": 1, "groups": [[["0", "2"]]]}',
)
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
    # high variable indices: pruning's box-corner table would have 2**n rows
    yield "min", "v1 \\/ v30"
    yield "components", "v1 \\/ v2", "--arity", "40"


def test_every_subcommand_keeps_the_exit_code_contract_on_hostile_input(tmp_path, capsys):
    for argv in _hostile_calls(tmp_path):
        code, _, err = run(capsys, *argv)
        assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_BUDGET, EXIT_USAGE), argv
        if code in (EXIT_DOMAIN, EXIT_BUDGET):
            assert len(err.strip().splitlines()) <= 1, argv  # one-line message
