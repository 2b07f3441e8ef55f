"""Command-line behaviour: outputs, artifacts, exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import opcert.cli
from opcert.cli import main
from opcert.statements import (WorkflowLimitError, load_problem,
                               run_problem, seeded_rankings, translate)
from conftest import FIXTURES

DATA = Path(__file__).resolve().parent / "data"


def test_certify_werner_writes_certificate(tmp_path, capsys):
    rc = main(["certify", "werner", "--output", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "certified" in out and "integral=True" in out
    cert_file = tmp_path / "werner.werner.cert"
    assert cert_file.exists()
    data = json.loads(cert_file.read_text(encoding="utf-8"))
    assert data["integral"] is True
    # round trip: every emitted certificate is accepted by check-cert
    assert main(["check-cert", str(cert_file)]) == 0


def test_certify_verbose_prints_every_summand(capsys):
    assert main(["certify", "thm2_3_i_to_v", "-v"]) == 0
    lines = capsys.readouterr().out.splitlines()
    _, report = run_problem(load_problem(FIXTURES / "thm2_3_i_to_v.prob"))
    assert len(report.results) == 2
    for res in report.results:
        cert = res.certificate
        alg = cert.claim.alg
        k = next(k for k, line in enumerate(lines)
                 if line.startswith(f"  claim {res.name}: certified | "))
        printed = lines[k + 1:k + 1 + len(cert.summands)]
        assert printed == [
            f"      ({alg.render(s.left)}) . "
            f"{cert.assumption_names[s.index]} . ({alg.render(s.right)})"
            for s in cert.summands]
        # one line per summand, and no more
        assert not re.fullmatch(r" +\(.*\) \. \S+ \. \(.*\)",
                                lines[k + 1 + len(cert.summands)])


def test_check_cert_bundled_hand_certificate(capsys):
    rc = main(["check-cert", str(FIXTURES / "werner_paper.cert")])
    assert rc == 0
    assert "valid" in capsys.readouterr().out


def test_check_cert_detects_tampering(tmp_path, capsys):
    data = json.loads((FIXTURES / "werner_paper.cert").read_text("utf-8"))
    data["summands"][0]["left"] = "2"
    bad = tmp_path / "bad.cert"
    bad.write_text(json.dumps(data), encoding="utf-8")
    rc = main(["check-cert", str(bad)])
    assert rc == 1
    assert "INVALID" in capsys.readouterr().out


def _werner_paper_cert(tmp_path, edit) -> Path:
    data = json.loads((FIXTURES / "werner_paper.cert").read_text("utf-8"))
    edit(data["summands"][0])  # index 0, "assumption": "f1"
    path = tmp_path / "edited.cert"
    path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    return path


@pytest.mark.parametrize("label, message", [
    ("f7", "summand 0 names assumption 'f7', but its index 0 is "
           "assumption 'f1'"),
    (7, "field 'assumption' must be of type string"),
], ids=["other_assumption", "not_a_string"])
def test_check_cert_rejects_a_summand_label_of_another_assumption(
        tmp_path, capsys, label, message):
    bad = _werner_paper_cert(tmp_path, lambda s: s.update(assumption=label))
    assert _input_error(capsys, ["check-cert", str(bad)]) == \
        f"error: {bad}: {message}\n"


def test_check_cert_accepts_a_summand_without_label(tmp_path, capsys):
    cert = _werner_paper_cert(tmp_path, lambda s: s.pop("assumption"))
    assert main(["check-cert", str(cert)]) == 0


def test_check_cert_leaves_an_out_of_range_index_to_the_verifier(tmp_path,
                                                                capsys):
    cert = _werner_paper_cert(tmp_path, lambda s: s.update(index=8))
    assert main(["check-cert", str(cert)]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_check_cert_integral_flag_reads_fractions_that_sum_to_integers(
        tmp_path, capsys):
    data = json.loads((FIXTURES / "werner_paper.cert").read_text("utf-8"))
    data["summands"][1]["left"] = "1/2·a + 1/2·a"  # that is just a
    cert = tmp_path / "halves.cert"
    cert.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    rc = main(["check-cert", str(cert)])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "valid | " in out and "integral=True" in out


def test_check_cert_rejects_a_constant_term_assumption(capsys):
    # a·b − b·a "proven" from the assumptions a·b − b·a + 1 and 1
    rc = main(["check-cert", str(DATA / "constant_term.cert")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "INVALID: assumption F1 has a nonzero constant term" in out


def test_check_cert_says_ring_level_only(tmp_path, capsys):
    # a ``ring_level_only`` key, which once exempted a constant-term
    # certificate, is ignored like any other unknown key: the file is still
    # INVALID and no "ring-level only" verdict is printed
    data = json.loads((DATA / "constant_term.cert").read_text("utf-8"))
    data["ring_level_only"] = True
    cert = tmp_path / "ring.cert"
    cert.write_text(json.dumps(data), encoding="utf-8")
    rc = main(["check-cert", str(cert)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "INVALID: assumption F1 has a nonzero constant term" in out
    assert "ring-level only" not in out


def test_python_dash_m_runs_the_command_line():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "opcert", "check-cert", "werner_paper"],
        capture_output=True, text=True, encoding="utf-8", env=env)
    assert proc.returncode == 0, proc.stderr
    assert "werner_paper: valid" in proc.stdout


@pytest.mark.parametrize("text", ["[1,2]", "null", "3", '"cert"'])
def test_check_cert_non_object_json_is_an_input_error(tmp_path, capsys, text):
    bad = tmp_path / "bad.cert"
    bad.write_text(text, encoding="utf-8")
    assert main(["check-cert", str(bad)]) == 3
    assert "not a certificate file" in capsys.readouterr().err


def test_budget_exhausted_exit_code(capsys):
    rc = main(["certify", "nonmember"])
    assert rc == 2
    assert "budget exhausted" in capsys.readouterr().out


def test_budget_exhausted_names_the_tripped_limit(capsys):
    rc = main(["certify", "hartwig_v_to_i", "--max-iterations", "50"])
    assert rc == 2
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary.endswith("completion budget_exhausted (max_iterations)")


@pytest.mark.parametrize("limit, why", [
    (["--max-degree", "6"],
     "completion ran to its degree bound, max_degree 6"),
    (["--max-iterations", "5"], "completion stopped by max_iterations"),
], ids=["max_degree", "max_iterations"])
def test_workflow_step_stopped_by_a_limit_exits_2(capsys, limit, why):
    assert main(["certify", "thm2_3_v_to_i", *limit]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: no claim gives a certified right cancellability witness for "
        f"a·b·c within the completion limits (mp(m,m~).1: {why})\n")


def test_workflow_step_without_a_candidate_is_an_input_error(tmp_path,
                                                             capsys):
    # neither a·b nor its adjoint ends with m = a·b·c: no witness is tried
    text = (FIXTURES / "thm2_3_v_to_i.prob").read_text(encoding="utf-8")
    prob = tmp_path / "noshape.prob"
    prob.write_text(text.replace("[claim]\nmp(m, m~)", "[claim]\ng = a·b"),
                    encoding="utf-8")
    assert main(["certify", str(prob)]) == 3
    assert capsys.readouterr().err == (
        "error: no claim gives a certified right cancellability witness for "
        "a·b·c (candidates tried: none has its shape)\n")


def test_input_error_exit_code(tmp_path, capsys):
    assert main(["certify", str(tmp_path / "missing.prob")]) == 3
    bad = tmp_path / "broken.prob"
    bad.write_text("[assume]\nf = nope\n", encoding="utf-8")
    assert main(["certify", str(bad)]) == 3
    err = capsys.readouterr().err
    assert "line" in err


def test_compat_pass_and_fail(tmp_path, capsys):
    assert main(["compat", "werner"]) == 0
    text = (FIXTURES / "werner.prob").read_text(encoding="utf-8")
    mutated = text.replace("i : v2 -> v2\n", "")
    bad = tmp_path / "werner_noi.prob"
    bad.write_text(mutated, encoding="utf-8")
    rc = main(["compat", str(bad)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "f3" in out  # offending polynomial named


@pytest.mark.parametrize("claim, name", [
    ("x/y = a·b·b - a", "x/y"),
    ("mp(1/2·a, b)", "mp(1/2·a,b).1"),  # a macro label with a rational
    ("x\0y = a·b·b - a", "x\0y"),  # open() raises ValueError on it
])
def test_claim_name_that_is_no_file_name_stops_certify_first(tmp_path, capsys,
                                                             claim, name):
    prob = tmp_path / "slash.prob"
    prob.write_text("[ops]\na adjoint\nb adjoint\n[assume]\nf = a·b - a\n"
                    f"[claim]\n{claim}\n", encoding="utf-8")
    outdir = tmp_path / "certs"
    assert main(["certify", str(prob), "--output", str(outdir)]) == 3
    captured = capsys.readouterr()
    assert captured.err == \
        f"error: claim {name!r} cannot name a certificate file\n"
    assert captured.out == ""  # nothing translated or certified
    assert not outdir.exists()


def test_output_onto_a_file_stops_certify_first(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("keep\n", encoding="utf-8")
    # the file itself, or an ancestor of the output directory
    for outdir in (target, target / "sub"):
        assert main(["certify", "werner", "--output", str(outdir)]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: --output {outdir} is not a directory\n"
        assert captured.out == ""  # nothing translated or certified
        assert target.read_text(encoding="utf-8") == "keep\n"


def test_compat_reads_an_edge_whose_label_begins_with_vertices(tmp_path,
                                                              capsys):
    # a line of the edge form is an edge, not a vertices line listing
    # ``:``, ``v1``, ``->`` and ``v2``
    prob = tmp_path / "label.prob"
    prob.write_text("[ops]\nverticesx\n[quiver]\nvertices v1 v2\n"
                    "verticesx : v1 -> v2\n[assume]\nf = verticesx\n",
                    encoding="utf-8")
    assert main(["compat", str(prob)]) == 0
    assert capsys.readouterr().out == \
        "  quiver: 2 vertices, 1 edges; compatibility passed\n"


def test_reduce_prints_remainder_and_trace(capsys):
    rc = main(["reduce", "werner"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "remainder 0" in out
    assert " . f1 . " in out


def test_reduce_skips_a_zero_assumption(tmp_path, capsys):
    # hermitian(a·a*) expands to 0, which no basis may hold; certify proves
    # the claim all the same, and reduce must too
    prob = tmp_path / "zero.prob"
    prob.write_text("[ops]\na adjoint\nb\n\n"
                    "[assume]\nhermitian(a·a*)\nf = a·b - b\n\n"
                    "[claim]\ng = a·a·b - b\n", encoding="utf-8")
    assert main(["certify", str(prob)]) == 0
    capsys.readouterr()
    assert main(["reduce", str(prob)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["claim g: remainder 0",
                     "    (a) . f . (1)", "    (1) . f . (1)"]


# sha256 of what ``opcert reduce <fixture>`` prints for each bundled problem;
# its trace lines carry the step coefficients, lead coefficients of −1
# included
REDUCE_SHA256 = json.loads((Path(__file__).parent / "reduce_sha256.json")
                           .read_text(encoding="utf-8"))


def test_reduce_output_of_every_fixture_is_unchanged(capsys):
    got = {}
    for prob in sorted(FIXTURES.glob("*.prob")):
        assert main(["reduce", prob.stem]) == 0
        out = capsys.readouterr().out.encode("utf-8")
        got[prob.stem] = hashlib.sha256(out).hexdigest()
    assert got == REDUCE_SHA256


# sha256 of what ``opcert matcheck`` prints for each command line here, with
# the bundled fixture directory masked as ``<fixtures>/``
MATCHECK_SHA256 = json.loads((Path(__file__).parent / "matcheck_sha256.json")
                             .read_text(encoding="utf-8"))


def test_matcheck_output_is_unchanged(capsys):
    fixdir = Path(opcert.cli.__file__).parent / "fixtures"
    got = {}
    for argv in MATCHECK_SHA256:
        assert main(argv.split()) == 0
        out = capsys.readouterr().out.replace(f"{fixdir}{os.sep}",
                                              "<fixtures>/")
        got[argv] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert got == MATCHECK_SHA256


# sha256 of what ``opcert certify <fixture>`` prints for each bundled problem,
# with the elapsed seconds of its summary line masked
CERTIFY_SHA256 = json.loads((Path(__file__).parent / "certify_stdout_sha256.json")
                            .read_text(encoding="utf-8"))


def test_certify_output_of_every_fixture_is_unchanged(capsys):
    got = {}
    for prob in sorted(FIXTURES.glob("*.prob")):
        want_rc = 2 if prob.stem == "nonmember" else 0
        assert main(["certify", prob.stem]) == want_rc, prob.stem
        out = re.sub(r", \d+\.\d\ds, completion ", ", <elapsed>s, completion ",
                     capsys.readouterr().out)
        got[prob.stem] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert got == CERTIFY_SHA256


# for eight bundled problems under ``--order`` set to their operators in
# reversed declaration order: the sha256 of the certificate files that
# ``opcert certify --output`` writes, of its stdout (``wrote`` lines dropped,
# elapsed seconds masked) and of what ``opcert reduce`` prints
RANKED_SHA256 = json.loads((Path(__file__).parent / "ranked_sha256.json")
                           .read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(RANKED_SHA256))
def test_ranked_outputs_are_unchanged(name, tmp_path, capsys):
    pins = RANKED_SHA256[name]
    order = ",".join(reversed(
        load_problem(FIXTURES / f"{name}.prob").algebra.names))
    assert order == pins["order"]
    assert main(["certify", name, "--order", order,
                 "--output", str(tmp_path)]) == 0
    out = "".join(line for line in capsys.readouterr().out
                  .splitlines(keepends=True)
                  if not line.startswith("    wrote "))
    out = re.sub(r", \d+\.\d\ds, completion ", ", <elapsed>s, completion ",
                 out)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == pins["certify"]
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.iterdir()} == pins["certificates"]
    assert main(["reduce", name, "--order", order]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == pins["reduce"]


def _masked(out: str) -> str:
    """``certify`` stdout with its elapsed seconds masked."""
    return re.sub(r", \d+\.\d\ds, completion ", ", <elapsed>s, completion ",
                  out)


def test_ranking_search_is_deterministic(tmp_path, capsys):
    runs = []
    for out in (tmp_path / "one", tmp_path / "two"):
        assert main(["certify", "thm2_6_i_to_iv", "--orders", "8",
                     "--output", str(out)]) == 0
        stdout = _masked(capsys.readouterr().out).replace(str(out), "OUT")
        runs.append((stdout, {p.name: p.read_bytes()
                              for p in out.iterdir()}))
    assert runs[0] == runs[1]
    # a seeded ranking won
    names = load_problem(FIXTURES / "thm2_6_i_to_iv.prob").algebra.names
    assert f"  order: {' '.join(names)}\n" not in runs[0][0]
    assert sorted(runs[0][1]) == ["thm2_6_i_to_iv.d1.cert",
                                  "thm2_6_i_to_iv.d2.cert",
                                  "thm2_6_i_to_iv.idem.cert"]


def _order_line(path: Path):
    """The names of the ``order`` option of a problem file, or None."""
    for line in path.read_text(encoding="utf-8").splitlines():
        words = line.split("#", 1)[0].split()
        if words[:1] == ["order"]:
            return " ".join(words[1:])
    return None


RECORDED = sorted(p.stem for p in FIXTURES.glob("*.prob") if _order_line(p))


def test_some_fixtures_record_a_ranking():
    assert RECORDED == ["thm2_8_i_to_ii", "thm2_8_ii_to_i", "thm2_8_iii_to_i"]


@pytest.mark.parametrize("name", RECORDED)
def test_ranking_search_reproduces_the_recorded_order(name, capsys):
    # the file's ranking ties with its seeded twin, and the lower k wins
    assert main(["certify", name, "--orders", "32"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"  order: {_order_line(FIXTURES / f'{name}.prob')}"
    assert [line for line in lines if line.startswith("  order:")] == \
        lines[-1:]


def test_ranking_search_skips_a_candidate_whose_workflow_step_fails(capsys):
    # at 204 obstructions the problem's own ranking certifies the workflow
    # witness (200 processed) and every seeded one stops short of it
    argv = ["certify", "thm2_3_v_to_i", "--max-iterations", "204"]
    assert main(argv) == 2
    plain = _masked(capsys.readouterr().out)
    assert main(argv + ["--orders", "3"]) == 2
    searched = _masked(capsys.readouterr().out)
    problem = load_problem(FIXTURES / "thm2_3_v_to_i.prob")
    assert searched == plain + f"  order: {' '.join(problem.algebra.names)}\n"
    problem.options.limits = replace(problem.options.limits,
                                     max_iterations=204)
    for ranking in seeded_rankings(problem, 3):
        problem.options.ranking = ranking
        with pytest.raises(WorkflowLimitError):
            translate(problem)


@pytest.mark.parametrize("value", ["0", "-1", "x", ""])
def test_orders_must_be_a_positive_integer(capsys, value):
    assert main(["certify", "werner", "--orders", value]) == 3
    assert "--orders: expected a positive integer" in capsys.readouterr().err


def test_matcheck_command(capsys):
    assert main(["matcheck"]) == 0
    out = capsys.readouterr().out
    assert "example2_1: pass" in out and "example2_2: pass" in out
    assert main(["matcheck", "example2_1"]) == 0


def test_matcheck_fails_a_stated_inverse_without_its_matrix(tmp_path, capsys):
    path = tmp_path / "lone_inverse.mat"
    path.write_bytes(_matrices({"A": [[2]], "X_mp": [[1]]}))
    assert main(["matcheck", str(path)]) == 1
    assert capsys.readouterr().out == (
        f"{path}: FAIL\n"
        "  [ok] A: Penrose equations hold for computed inverse\n"
        "  [FAIL] X_mp: no matrix X to compare with\n")


def test_limit_overrides_flow_through(capsys):
    # forcing a tiny degree on werner still certifies (claim reduces directly)
    assert main(["certify", "werner", "--max-degree", "6"]) == 0
    capsys.readouterr()


def test_deterministic_output(capsys):
    main(["certify", "thm2_3_i_to_v"])
    first = capsys.readouterr().out
    main(["certify", "thm2_3_i_to_v"])
    second = capsys.readouterr().out
    strip = lambda s: "\n".join(l for l in s.splitlines() if " obstructions " not in l)
    assert strip(first) == strip(second)


def test_reduce_claim_filter(capsys):
    rc = main(["reduce", "thm2_3_i_to_v", "--claim", "cancel"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "claim cancel:" in out and "claim idem:" not in out


@pytest.mark.parametrize("flag, value", [
    ("--max-degree", "-1"), ("--max-degree", "0"),
    ("--max-iterations", "0"), ("--time-budget", "0"),
    ("--time-budget", "nan")])
def test_bad_limit_override_is_an_input_error(capsys, flag, value):
    assert main(["certify", "werner", flag, value]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _werner_cert(drop=(), **fields) -> bytes:
    data = json.loads((FIXTURES / "werner_paper.cert").read_text("utf-8"))
    data.update(fields)
    for key in drop:
        del data[key]
    return json.dumps(data).encode("utf-8")


def _matrices(matrices) -> bytes:
    return json.dumps({"matrices": matrices}).encode("utf-8")


_NOT_UTF8_PROBLEM = b"\xff\xfe" + (FIXTURES / "werner.prob").read_bytes()


def _input_error(capsys, argv) -> str:
    """Run the command line; assert exit 3 and one ``error:`` line."""
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


# one file per traceback that used to escape the command line
_MALFORMED = {
    "ops_names.cert": _werner_cert(ops=["a"]),
    "ops_object.cert": _werner_cert(ops={"a": 1}),
    "claim_number.cert": _werner_cert(claim=5),
    "integral_string.cert": _werner_cert(integral="no"),  # was read as True
    "float.mat": _matrices({"A": [[0.5]]}),
    "list.mat": _matrices([1]),
    "number.mat": _matrices({"A": 3}),
    # Fraction("1e3000000") builds a 10-million-bit integer
    "exponent.mat": _matrices({"A": [["1e3000000"]]}),
    "not_utf8.prob": _NOT_UTF8_PROBLEM,
}


@pytest.mark.parametrize("command, filename", [
    ("check-cert", "ops_names.cert"), ("check-cert", "ops_object.cert"),
    ("check-cert", "claim_number.cert"), ("check-cert", "integral_string.cert"),
    ("matcheck", "float.mat"), ("matcheck", "list.mat"),
    ("matcheck", "number.mat"), ("matcheck", "exponent.mat"),
    ("certify", "not_utf8.prob"),
    ("compat", "not_utf8.prob"), ("reduce", "not_utf8.prob")])
def test_malformed_file_is_an_input_error(tmp_path, capsys, command, filename):
    bad = tmp_path / filename
    bad.write_bytes(_MALFORMED[filename])
    _input_error(capsys, [command, str(bad)])


# the loaders, not a KeyError or ValueError catch-all in the command line,
# turn each of these into an AlgebraError naming the file
_CAUGHT_BY_LOADER = {
    "missing_claim.cert": _werner_cert(drop=["claim"]),
    "index_word.cert": _werner_cert(
        summands=[{"left": "1", "index": "x", "right": "b"}]),
    "truncated.cert": _werner_cert()[:40],
    "not_utf8.cert": b"\xff\xfe" + _werner_cert(),
    "word.mat": _matrices({"A": [["x"]]}),
    "zero_denominator.mat": _matrices({"A": [["1/0"]]}),
    "empty.mat": b"",
    "no_matrices.mat": _matrices({}),
    "nested.cert": b"[" * 100_000,  # RecursionError in the JSON decoder
    "nested.mat": b"[" * 100_000,
}


@pytest.mark.parametrize("filename", sorted(_CAUGHT_BY_LOADER))
def test_loaders_raise_input_errors_themselves(tmp_path, capsys, filename):
    bad = tmp_path / filename
    bad.write_bytes(_CAUGHT_BY_LOADER[filename])
    command = "check-cert" if filename.endswith(".cert") else "matcheck"
    assert str(bad) in _input_error(capsys, [command, str(bad)])


def test_problem_file_encoding_error_names_its_line(tmp_path, capsys):
    bad = tmp_path / "not_utf8.prob"
    bad.write_bytes(b"[ops]\na adjoint\n\xe9\n")
    err = _input_error(capsys, ["certify", str(bad)])
    assert err.startswith("error: line 3: not UTF-8 text")


def test_check_cert_names_the_file_and_stops_at_it(tmp_path, capsys):
    bad = tmp_path / "claim_number.cert"
    bad.write_bytes(_werner_cert(claim=5))
    assert main(["check-cert", "werner_paper", str(bad), "werner_paper"]) == 3
    captured = capsys.readouterr()
    assert captured.out.count("valid") == 1
    assert captured.err == f"error: {bad}: field 'claim' must be of type string\n"


_WERNER_PROBLEM = (FIXTURES / "werner.prob").read_text(encoding="utf-8")
_HUGE = "9" * 5_000  # beyond Python's limit on converting a string to int


_HUGE_LINE = {
    "coefficient": f"f1 = a·a⁻·a − {_HUGE}·a",
    "denominator": f"f1 = a·a⁻·a − 1/{_HUGE}·a",
    "inv_subset": f"inv(a, a⁻, {{{_HUGE}}})",
}


@pytest.mark.parametrize("command", ["certify", "compat", "reduce"])
@pytest.mark.parametrize("where", sorted(_HUGE_LINE))
def test_huge_integer_literal_is_an_input_error(tmp_path, capsys, command,
                                                where):
    bad = tmp_path / "huge.prob"
    bad.write_text(_WERNER_PROBLEM.replace("f1 = a·a⁻·a − a",
                                           _HUGE_LINE[where]),
                   encoding="utf-8")
    err = _input_error(capsys, [command, str(bad)])
    assert err.startswith("error: line 21: ")
    assert len(err.encode("utf-8")) < 200  # the echoed expression is cut


def test_huge_matrix_entry_is_cut_short_in_the_error(tmp_path, capsys):
    bad = tmp_path / "huge.mat"
    bad.write_bytes(_matrices({"A": [[_HUGE]]}))
    assert _input_error(capsys, ["matcheck", str(bad)]) == (
        f"error: {bad}: matrix entries must be exact rationals, "
        f"got '{'9' * 58}…\n")


@pytest.mark.parametrize("edit, message", [
    (("f1 = a·a⁻·a − a", "inv(a, a⁻, {1,2,3}junk)"),
     "line 21: inv subset reads {1,3}"),
    (("time_budget 30", "order a zz"),
     "line 30: unknown indeterminate 'zz'"),
    (("time_budget 30", "order b a b"),
     "line 30: order ranks 'b' twice"),
    (("time_budget 30", "order  # no names"),
     "line 30: option 'order' names no indeterminate"),
    # the degree cap is an experiment's flag, not a problem option
    (("time_budget 30", "time_budget 30\nmax_degree 10"),
     "line 31: unknown option 'max_degree'"),
    # the involution closure is always applied
    (("time_budget 30", "time_budget 30\nclosure on"),
     "line 31: unknown option 'closure'"),
    # a signature is stated in the [quiver] section, never on an [ops] line
    (("[ops]\na\n", "[ops]\na : v1 -> v2\n"),
     "line 6: ops lines read: name [adjoint [partner] | selfadjoint]; "
     "signatures go in the [quiver] section"),
    # an equation written with "=" is refused, not read as a label and the
    # different assumption b·a (or a·a⁻·a)
    (("f1 = a·a⁻·a − a", "a·b = b·a"),
     "line 21: label 'a·b' is an expression; write an equation as lhs − rhs"),
    (("f1 = a·a⁻·a − a", "a = a·a⁻·a"),
     "line 21: label 'a' is an expression; write an equation as lhs − rhs"),
], ids=["inv_subset", "order", "order_repeat", "order_empty",
        "max_degree", "closure", "signature_pin", "equation_label",
        "letter_label"])
def test_compat_names_the_faulty_problem_line(tmp_path, capsys, edit,
                                              message):
    assert edit[0] in _WERNER_PROBLEM
    bad = tmp_path / "bad.prob"
    bad.write_text(_WERNER_PROBLEM.replace(*edit), encoding="utf-8")
    assert _input_error(capsys, ["compat", str(bad)]) == f"error: {message}\n"


@pytest.mark.parametrize("command", ["certify", "reduce"])
def test_order_option_naming_a_name_twice_is_an_input_error(capsys, command):
    # without the check the second ``b`` overwrote the first: a ranked first
    assert _input_error(capsys, [command, "werner", "--order", "b,a,b"]) == \
        "error: order ranks 'b' twice\n"


@pytest.mark.parametrize("command", ["certify", "reduce"])
@pytest.mark.parametrize("order", ["", " "])
def test_empty_order_flag_is_an_input_error(capsys, command, order):
    # an empty --order once meant the declaration ranking, a blank one an
    # unknown indeterminate ''
    assert _input_error(capsys, [command, "werner", "--order", order]) == \
        "error: --order names no indeterminate\n"


def test_reduce_unknown_claim_is_an_input_error(capsys):
    assert main(["reduce", "werner", "--claim", "nope"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: werner has no claim 'nope'\n"


def test_reduce_checks_the_claim_name_before_the_workflow(capsys):
    # the workflow step of thm2_3_v_to_i does not certify at degree 6
    assert _input_error(capsys, ["reduce", "thm2_3_v_to_i", "--claim", "nope",
                                 "--max-degree", "6"]) == \
        "error: thm2_3_v_to_i has no claim 'nope'\n"


@pytest.mark.parametrize("command", ["certify", "reduce"])
def test_no_closure_flag_is_a_usage_error(capsys, command):
    assert main([command, "werner", "--no-closure"]) == 3
    assert "unrecognized arguments: --no-closure" in capsys.readouterr().err


@pytest.mark.parametrize("command, name, suffix", [
    ("certify", "example2_1", ".prob"), ("compat", "example2_1", ".prob"),
    ("reduce", "werner_paper", ".prob"), ("check-cert", "werner", ".cert"),
    ("matcheck", "werner", ".mat")])
def test_bundled_name_resolves_to_the_commands_own_suffix(capsys, command,
                                                          name, suffix):
    # each name is a bundled fixture of another kind of file
    assert _input_error(capsys, [command, name]) == \
        f"error: no such file or {suffix} fixture: {name}\n"


@pytest.mark.parametrize("argv", [
    ["compat", "werner.prob"], ["check-cert", "werner_paper.cert"],
    ["matcheck", "example2_1.mat"]])
def test_bundled_name_may_carry_its_suffix(capsys, argv):
    assert main(argv) == 0
    capsys.readouterr()


def _ops_cert(ops) -> str:
    """``b*`` proved from ``F1 = a``: valid exactly when b's partner is a."""
    return json.dumps({
        "format": "opcert-certificate/1", "ops": ops, "claim": "b*",
        "assumptions": [{"name": "F1", "expr": "a"}],
        "summands": [{"left": "1", "index": 0, "assumption": "F1",
                      "right": "1"}],
        "integral": True})


@pytest.mark.parametrize("ops, message", [
    ([{"name": "a", "adjoint": "b"}, {"name": "b", "adjoint": "c"},
      {"name": "c", "adjoint": None}],
     "ops entry 'b': adjoint 'c' contradicts the earlier declaration "
     "(adjoint 'a')"),
    ([{"name": "a", "adjoint": "b"}, {"name": "b", "adjoint": None}],
     "ops entry 'b': adjoint None contradicts the earlier declaration "
     "(adjoint 'a')"),
], ids=["other_partner", "no_partner"])
def test_check_cert_rejects_contradictory_ops_table(tmp_path, capsys, ops,
                                                    message):
    bad = tmp_path / "ops.cert"
    bad.write_text(_ops_cert(ops), encoding="utf-8")
    assert _input_error(capsys, ["check-cert", str(bad)]) == \
        f"error: {bad}: {message}\n"


_STARRED_PARTNER = ("adjoint partner 'y*' of 'x': a partner name may hold "
                    "'*' only as 'x*'")


def test_certify_refuses_a_problem_with_a_starred_partner(tmp_path, capsys):
    # certify used to write "claim": "y*·x·x - y*·x", which check-cert
    # could not read back
    bad = tmp_path / "starred.prob"
    bad.write_text("[ops]\nx adjoint y*\n[assume]\nf1 = x*·x − x*\n"
                   "[claim]\nc = x*·x·x − x*·x\n", encoding="utf-8")
    assert _input_error(capsys, ["certify", str(bad), "--output",
                                 str(tmp_path)]) == \
        f"error: line 2: {_STARRED_PARTNER}\n"
    assert not list(tmp_path.glob("*.cert"))


def test_check_cert_rejects_a_starred_partner_in_the_ops_table(tmp_path,
                                                              capsys):
    bad = tmp_path / "ops.cert"
    bad.write_text(_ops_cert([{"name": "x", "adjoint": "y*"},
                              {"name": "b", "adjoint": "a"}]),
                   encoding="utf-8")
    assert _input_error(capsys, ["check-cert", str(bad)]) == \
        f"error: {bad}: {_STARRED_PARTNER}\n"


def test_check_cert_reads_each_pair_listed_from_both_sides(tmp_path, capsys):
    cert = tmp_path / "ops.cert"
    cert.write_text(_ops_cert([{"name": "a", "adjoint": "b"},
                               {"name": "b", "adjoint": "a"}]),
                    encoding="utf-8")
    assert main(["check-cert", str(cert)]) == 0
    assert "valid | 1 terms | integral=True | claim: a" in \
        capsys.readouterr().out
