"""Command-line behaviour: outputs, artifacts, exit codes."""

import json

import pytest

from opcert.cli import main
from conftest import FIXTURES


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


def test_reduce_prints_remainder_and_trace(capsys):
    rc = main(["reduce", "werner"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "remainder 0" in out
    assert " . f1 . " in out


def test_matcheck_command(capsys):
    assert main(["matcheck"]) == 0
    out = capsys.readouterr().out
    assert "example2_1: pass" in out and "example2_2: pass" in out
    assert main(["matcheck", "example2_1"]) == 0


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
    "not_utf8.prob": _NOT_UTF8_PROBLEM,
}


@pytest.mark.parametrize("command, filename", [
    ("check-cert", "ops_names.cert"), ("check-cert", "ops_object.cert"),
    ("check-cert", "claim_number.cert"), ("check-cert", "integral_string.cert"),
    ("matcheck", "float.mat"), ("matcheck", "list.mat"),
    ("matcheck", "number.mat"), ("certify", "not_utf8.prob"),
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


@pytest.mark.parametrize("edit, message", [
    (("f1 = a·a⁻·a − a", "inv(a, a⁻, {1,2,3}junk)"),
     "line 21: inv subset reads {1,3}"),
    (("time_budget 30", "order a zz"),
     "line 31: unknown indeterminate 'zz'"),
    (("[ops]\na\n", "[ops]\na : v1 -> v2\n"),
     "line 6: declared signature of 'a' contradicts the quiver section"),
], ids=["inv_subset", "order", "signature_pin"])
def test_compat_names_the_faulty_problem_line(tmp_path, capsys, edit,
                                              message):
    assert edit[0] in _WERNER_PROBLEM
    bad = tmp_path / "bad.prob"
    bad.write_text(_WERNER_PROBLEM.replace(*edit), encoding="utf-8")
    assert _input_error(capsys, ["compat", str(bad)]) == f"error: {message}\n"


def test_reduce_unknown_claim_is_an_input_error(capsys):
    assert main(["reduce", "werner", "--claim", "nope"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: werner has no claim 'nope'\n"


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


def test_check_cert_reads_each_pair_listed_from_both_sides(tmp_path, capsys):
    cert = tmp_path / "ops.cert"
    cert.write_text(_ops_cert([{"name": "a", "adjoint": "b"},
                               {"name": "b", "adjoint": "a"}]),
                    encoding="utf-8")
    assert main(["check-cert", str(cert)]) == 0
    assert "valid | 1 terms | integral=True | claim: a" in \
        capsys.readouterr().out
