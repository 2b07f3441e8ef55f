"""The benchmark's workloads: inputs, jobs and verdict checks.

A workload is set up (imports, inputs, warm-up), then hands out its fixed job
list one pass at a time in a seeded order.  A job drives opcert through the
public functions the ``opcert`` command uses and returns the raw outcome; the
outcome is compared with the hand-written ``expected.json`` only after the
timed region.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import random
import sys
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
FIXTURES = SRC / "opcert" / "fixtures"
EXPECTED_FILE = Path(__file__).resolve().with_name("expected.json")
REFERENCE_BACKEND = "python"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no sources, wrong backend)."""


def load_expected() -> dict:
    with open(EXPECTED_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def kernel_backend(pkg) -> str:
    """Name of the reduction kernel opcert loaded.

    Falls back from the package attribute to the selector module to the
    loaded extension, so the answer survives removal of either.
    """
    name = getattr(pkg, "KERNEL_BACKEND", None)
    if name is None:
        name = getattr(sys.modules.get("opcert.kernels"), "BACKEND", None)
    if name is None:
        name = "c" if "opcert._kernel" in sys.modules else "python"
    return name


class Opcert:
    """Handles on a fresh import of this checkout's opcert modules.

    The reference backend is pinned before the import.  ``opcert.certify``
    names the re-exported function on the package, so every module is taken
    from ``sys.modules``.
    """

    def __init__(self):
        if not (SRC / "opcert" / "__init__.py").is_file():
            raise SetupError(f"no opcert sources under {SRC}")
        os.environ["OPCERT_KERNEL"] = "py"
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        for name in [m for m in sys.modules
                     if m == "opcert" or m.startswith("opcert.")]:
            del sys.modules[name]
        pkg = importlib.import_module("opcert")
        if Path(pkg.__file__).resolve().parent != SRC / "opcert":
            raise SetupError(f"imported opcert from {pkg.__file__}, "
                             f"not from {SRC}")
        self.backend = kernel_backend(pkg)
        if self.backend != REFERENCE_BACKEND:
            raise SetupError(f"kernel backend is {self.backend!r}; the "
                             f"benchmark reports only under "
                             f"{REFERENCE_BACKEND!r}")
        for name in ("freealg", "rewrite", "certify", "quiver", "statements",
                     "matcheck"):
            setattr(self, name, sys.modules[f"opcert.{name}"])


@dataclasses.dataclass
class Job:
    label: str
    run: Callable[[], object]       # timed: input to outcome
    check: Callable[[object], list]  # untimed: outcome to list of problems
    terms: Callable[[object], int] = lambda outcome: 0


def _cert_json(api, cert) -> str:
    """A certificate as ``opcert certify --output`` writes it."""
    return json.dumps(api.certify.certificate_to_dict(cert),
                      ensure_ascii=False, indent=2) + "\n"


def _load_and_verify(api, text: str):
    """One ``check-cert`` job: load a certificate file's text, verify it."""
    cert = api.certify.certificate_from_dict(json.loads(text))
    return cert, api.certify.verify_certificate(cert)


def _certified(report) -> list:
    return [r for r in report.results if r.certified]


def _check_problem(name: str, exp: dict, outcome) -> list:
    trans, report = outcome
    out = []
    claims = {r.name: r.status for r in report.results}
    if claims != exp["claims"]:
        out.append(f"{name}: claims {claims}, expected {exp['claims']}")
    if "quiver" in exp:
        qc = trans.quiver_check
        ok = None if qc is None else bool(qc.ok)
        if ok != exp["quiver"]:
            out.append(f"{name}: quiver check {ok}, expected {exp['quiver']}")
    if len(trans.workflow_reports) != exp.get("workflow_steps", 0):
        out.append(f"{name}: {len(trans.workflow_reports)} workflow steps")
    if "completion" in exp and \
            report.stats.completion_status != exp["completion"]:
        out.append(f"{name}: completion {report.stats.completion_status}, "
                   f"expected {exp['completion']}")
    for r in _certified(report):
        cert = r.certificate
        if not cert.integral:
            out.append(f"{name}/{r.name}: certificate is not integral")
        allowed = exp.get("uses_within", {}).get(r.name)
        used = {cert.assumption_names[i] for i in cert.used_indices}
        if allowed is not None and not used <= set(allowed):
            out.append(f"{name}/{r.name}: uses {sorted(used)}, "
                       f"allowed {allowed}")
    return out


class Fixtures:
    """Every bundled problem but degree-16 ``hartwig_v_to_i``, the
    transcribed Werner certificate and the exact-matrix suites, as the CLI
    runs them."""

    name = "fixtures"

    def __init__(self, seed):
        self.seed = seed

    def setup(self) -> None:
        api = self.api = Opcert()
        exp = self.expected = load_expected()["fixtures"]
        jobs = []
        for name, pexp in exp["problems"].items():
            text = (FIXTURES / f"{name}.prob").read_text(encoding="utf-8")
            jobs.append(Job(
                name,
                lambda text=text: api.statements.run_problem(
                    api.statements.parse_problem(text)),
                lambda outcome, name=name, pexp=pexp:
                    _check_problem(name, pexp, outcome),
                lambda outcome: sum(r.certificate.term_count
                                    for r in _certified(outcome[1]))))
        werner = (FIXTURES / "werner_paper.cert").read_text(encoding="utf-8")
        wexp = exp["werner_paper"]
        jobs.append(Job(
            "werner_paper.cert",
            lambda: _load_and_verify(api, werner),
            lambda outcome: [] if (bool(outcome[1].valid), outcome[0].integral)
            == (wexp["valid"], wexp["integral"])
            else [f"werner_paper.cert: {outcome[1].reason or 'not integral'}"]))
        suites = {"example1_check": lambda: api.matcheck.example1_check(),
                  "example2_check": lambda: api.matcheck.example2_check()}
        for mat in ("example2_1.mat", "example2_2.mat"):
            suites[mat] = lambda path=FIXTURES / mat: \
                api.matcheck.fixture_penrose_report(path)
        for label, run in suites.items():
            jobs.append(Job(
                label, run,
                lambda rep, label=label: [] if rep.ok == exp["matcheck"][label]
                else [f"{label}: ok={rep.ok}"]))
        self.job_list = jobs
        for job in jobs:  # warm-up pass
            job.run()

    def jobs(self, rng: random.Random) -> list:
        order = list(self.job_list)
        rng.shuffle(order)
        return order

    def certificates(self, outcomes: dict) -> list:
        """(label, certificate) for every claim certified in one pass."""
        out = []
        for job in self.job_list:
            if job.label in self.expected["problems"]:
                _, report = outcomes[job.label]
                out += [(f"{job.label}/{r.name}", r.certificate)
                        for r in _certified(report)]
        return out

    def outputs(self, outcomes: dict) -> str:
        """The pass's certificate files, for comparing two runs byte-wise."""
        return "".join(f"{label}\n{_cert_json(self.api, cert)}"
                       for label, cert in self.certificates(outcomes))

    def final_check(self, outcomes: dict) -> list:
        """Every certificate of one pass round-trips through JSON and
        verifies; run outside the timed region."""
        api = self.api
        certs = self.certificates(outcomes)
        out = []
        if len(certs) != self.expected["certificates"]:
            out.append(f"{len(certs)} certificates, expected "
                       f"{self.expected['certificates']}")
        for label, cert in certs:
            text = _cert_json(api, cert)
            back, result = _load_and_verify(api, text)
            if not result.valid:
                out.append(f"{label}: reloaded certificate invalid: "
                           f"{result.reason}")
            if back.integral != self.expected["integral"]:
                out.append(f"{label}: reloaded integral={back.integral}")
            if _cert_json(api, back) != text:
                out.append(f"{label}: JSON round trip changed the file")
        return out


class Completion:
    """``hartwig_v_to_i`` at max_degree 12: a fixed, enumeration-heavy
    completion that drains its queue without certifying the claim."""

    name = "completion"

    def __init__(self, seed):
        self.seed = seed  # None keeps the fixture's assumption order

    def setup(self) -> None:
        api = self.api = Opcert()
        exp = self.expected = load_expected()["completion"]
        text = (FIXTURES / f"{exp['problem']}.prob").read_text(encoding="utf-8")
        problem = api.statements.parse_problem(text)
        trans = api.statements.translate(problem)
        limits = dataclasses.replace(problem.options.limits,
                                     max_degree=exp["max_degree"])
        pairs = list(zip(trans.assumption_names, trans.assumptions))
        if self.seed is not None:
            random.Random(f"completion:{self.seed}").shuffle(pairs)
        names = [n for n, _ in pairs]
        polys = [p for _, p in pairs]
        remainder = trans.algebra.parse(exp["remainder"])

        def run():
            return api.certify.certify(
                polys, trans.claims, trans.order, limits,
                assumption_names=names, claim_names=trans.claim_names)

        def check(report):
            res = report.results[0]
            got = (res.certified, res.remainder == remainder,
                   report.stats.basis_size, report.stats.completion_status)
            want = (exp["certified"], True, exp["basis_size"],
                    exp["completion"])
            return [] if got == want else \
                [f"{exp['problem']}: got (certified, remainder is the claim, "
                 f"basis, status) = {got}, expected {want}"]

        self.job_list = [Job(exp["problem"], run, check,
                             lambda report: len(report.results[0].remainder))]

    def jobs(self, rng: random.Random) -> list:
        return list(self.job_list)

    def outputs(self, outcomes: dict) -> str:
        report = outcomes[self.expected["problem"]]
        res = report.results[0]
        alg = res.claim.alg
        return (f"{res.status} {alg.render(res.remainder)} "
                f"{report.stats.basis_size} {report.stats.completion_status}")

    def final_check(self, outcomes: dict) -> list:
        return []


class Verify:
    """``check-cert`` traffic: the fixture certificates and the transcribed
    Werner certificate, each also as a seeded tampered copy."""

    name = "verify"

    def __init__(self, seed):
        self.seed = seed

    def setup(self) -> None:
        api = self.api = Opcert()
        expected = load_expected()
        exp = self.expected = expected["verify"]
        genuine = []
        for name, pexp in expected["fixtures"]["problems"].items():
            if "certified" not in pexp["claims"].values():
                continue
            text = (FIXTURES / f"{name}.prob").read_text(encoding="utf-8")
            _, report = api.statements.run_problem(
                api.statements.parse_problem(text))
            genuine += [(f"{name}/{r.name}", _cert_json(api, r.certificate))
                        for r in _certified(report)]
        genuine.append(("werner_paper.cert", (FIXTURES / "werner_paper.cert")
                        .read_text(encoding="utf-8")))
        self.setup_problems = [] if len(genuine) == exp["genuine"] else \
            [f"{len(genuine)} genuine certificates, expected {exp['genuine']}"]
        rng = random.Random(f"tamper:{self.seed}")
        inputs = [(label, text, exp["genuine_valid"])
                  for label, text in genuine]
        for label, text in genuine:
            data = json.loads(text)
            summand = data["summands"][rng.randrange(len(data["summands"]))]
            summand["left"] = f"-({summand['left']})"
            inputs.append((label + "~tampered",
                           json.dumps(data, ensure_ascii=False, indent=2) + "\n",
                           exp["tampered_valid"]))
        self.job_list = [
            Job(label,
                lambda text=text: _load_and_verify(api, text),
                lambda outcome, label=label, want=want:
                    [] if bool(outcome[1].valid) == want
                    else [f"{label}: valid={outcome[1].valid}"],
                lambda outcome: outcome[0].term_count)
            for label, text, want in inputs]

    def jobs(self, rng: random.Random) -> list:
        order = list(self.job_list)
        rng.shuffle(order)
        return order

    def outputs(self, outcomes: dict) -> str:
        return "".join(f"{job.label} {bool(outcomes[job.label][1].valid)}\n"
                       for job in self.job_list)

    def final_check(self, outcomes: dict) -> list:
        return list(self.setup_problems)


WORKLOADS = {w.name: w for w in (Fixtures, Completion, Verify)}
