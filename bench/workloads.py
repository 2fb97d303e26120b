"""Workload inputs, item runners and the correctness gate.

Three workloads, each a closed loop with one client that runs its items in a
fixed order, one pass after another:

* ``cli-build``: one fresh ``python -m tetrabox.cli build`` process per item,
  on the ladder d4 (1,a)(1,b), d16 (3,a)(3,b), d27 (2,a)(2,b)(2,c), plus
  three specs the CLI must reject with exit 1.
* ``cli-verify``: module files built during preparation; the items are
  ``verify`` on d27, ``verify --deep`` on d16 and ``verify`` on a d16 file
  with one entry of ``x_02`` altered, which must exit 1.
* ``lib-grid``: an in-process sweep through the library API over 1- and
  2-factor specs of the acceptance grid, about two thirds of them reducible,
  plus a few small isomorphism questions answered two ways.

The seed draws only evaluation parameters; factor weights are fixed, so
dimensions do not depend on it. On the CLI ladders each rung has fixed
parameter bases and the seed picks their order, signs and inversions, which
keeps the arithmetic heights, and so the cost, of a rung the same for every
seed.
Every item is checked after its pass, outside the timed region, and every
output gets a sha256 digest so two commits can be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction as F
from math import gcd
from pathlib import Path
from statistics import fmean, median

import tetrabox
from tetrabox import serialize
from tetrabox.errors import TetraboxError

import tracer as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Small-height evaluation parameters: the bases with either sign, inverted or
# not. They include the acceptance grid's 2, 3, 5 and 1/2; lib-grid also uses
# the grid's reducing -1 and 1.
BASES = (F(2), F(3), F(5))
POOL = tuple(sorted({sign * b**power for b in BASES for sign in (1, -1) for power in (1, -1)}))

SETUP_REPEATS = 7

# End-to-end metrics every workload reports: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
)


# -- inputs ---------------------------------------------------------------

def draw_independent(rng: random.Random, k: int, values) -> list[F]:
    """k parameters such that all of a_i, 1/a_i are distinct (irreducible)."""
    while True:
        picked = [rng.choice(values) for _ in range(k)]
        seen = [x for a in picked for x in (a, 1 / a)]
        if len(set(seen)) == len(seen):
            return picked


def variants(rng: random.Random, bases) -> list[F]:
    """The bases in a seed-chosen order, each with a seed-chosen sign and
    inversion. Distinct bases keep the module irreducible."""
    params = [rng.choice((1, -1)) * b ** rng.choice((1, -1)) for b in bases]
    rng.shuffle(params)
    return params


def spec_json(factors, shift=(0, 0)) -> dict:
    return {
        "factors": [{"n": n, "a": str(F(a))} for n, a in factors],
        "shift": [str(F(shift[0])), str(F(shift[1]))],
    }


def cli_build_specs(rng: random.Random) -> list[tuple[str, dict, int]]:
    """(label, spec file contents, expected exit code) in pass order.

    The d4 build, whose time is mostly interpreter start and import, runs
    four times, interleaved with the large builds and the rejections, so its
    median on the detail line rests on several samples.
    """
    a, b = variants(rng, BASES[:2])
    d16 = variants(rng, BASES[:2])
    d27 = variants(rng, BASES)
    r, m, shift = (rng.choice(POOL) for _ in range(3))
    d4 = ("build.d4", spec_json([(1, a), (1, b)]), 0)
    return [
        d4,
        ("reject.reducible", spec_json([(3, r), (3, 1 / r)]), 1),
        ("build.d16", spec_json([(3, d16[0]), (3, d16[1])]), 0),
        d4,
        ("reject.minus_one", spec_json([(2, m), (1, -1)]), 1),
        ("build.d27", spec_json([(2, d27[0]), (2, d27[1]), (2, d27[2])]), 0),
        d4,
        ("reject.shifted", spec_json([(1, a), (1, b)], shift=(shift, 0)), 1),
        d4,
    ]


def cli_verify_specs(rng: random.Random) -> dict:
    d27 = variants(rng, BASES)
    d16 = variants(rng, BASES[:2])
    return {
        "d27": spec_json([(2, d27[0]), (2, d27[1]), (2, d27[2])]),
        "d16": spec_json([(3, d16[0]), (3, d16[1])]),
        "tamper_at": (rng.randrange(16), rng.randrange(16)),
    }


# Fixed slots of the lib-grid sweep: (weights, kind). "irr" is irreducible,
# "pm1" has a = 1 or -1 in its last factor, "col" repeats the first
# parameter or its inverse in the second factor; the last two are reducible.
LIB_SINGLE_KINDS = ("irr", "irr", "pm1", "pm1")
LIB_PAIR_KINDS = ("irr", "col", "col", "pm1")
LIB_SLOTS = tuple(
    [((n,), kind) for n in (1, 2, 3) for kind in LIB_SINGLE_KINDS]
    + [((n1, n2), kind) for n1 in (1, 2, 3) for n2 in (1, 2, 3) if n1 <= n2 for kind in LIB_PAIR_KINDS]
)
# Isomorphism questions (dim <= 9): (weights, isomorphic?).
LIB_PAIRS = (((1, 1), True), ((1, 1), False), ((2, 2), True), ((2, 1), False))


def lib_grid_inputs(rng: random.Random) -> tuple[list, list]:
    """Specs with their intended verdict, and spec pairs with theirs."""
    specs = []
    for weights, kind in LIB_SLOTS:
        if kind == "irr":
            params = draw_independent(rng, len(weights), POOL)
        elif kind == "pm1":
            params = draw_independent(rng, len(weights) - 1, POOL) + [rng.choice((F(1), F(-1)))]
        else:
            (a,) = draw_independent(rng, 1, POOL)
            params = [a, rng.choice((a, 1 / a))]
        specs.append((tetrabox.ModuleSpec(tuple(zip(weights, params))), kind == "irr"))
    pairs = []
    for (n1, n2), isomorphic in LIB_PAIRS:
        a, b, c = draw_independent(rng, 3, POOL)
        first = tetrabox.ModuleSpec(((n1, a), (n2, b)))
        if isomorphic:  # permute the factors and invert a parameter
            second = tetrabox.ModuleSpec(((n2, 1 / b), (n1, a)))
        else:
            second = tetrabox.ModuleSpec(((n1, a), (n2, c)))
        pairs.append((first, second, isomorphic))
    return specs, pairs


# -- items ----------------------------------------------------------------

@dataclass
class Outcome:
    label: str
    seconds: float
    result: object = None
    rss_mb: float = 0.0
    trace: dict | None = None


@dataclass
class Checked:
    problems: list[str]
    digest: str
    coeff_bits: int = 0


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def coeff_bits(tetra) -> int:
    """Largest numerator or denominator size, in bits, over all generators."""
    return max(
        max(x.numerator.bit_length(), x.denominator.bit_length())
        for mat in tetra.x.values()
        for x in mat.entries
    )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Child:
    code: int
    stdout: bytes
    stderr: bytes
    rss_mb: float


def spawn(argv: list[str], workdir: Path) -> tuple[Child, float]:
    """Run one child to completion; return it and its wall time in seconds."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=workdir, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out_path.read_bytes(), err_path.read_bytes(), usage.ru_maxrss / 1024), elapsed


@dataclass
class CliItem:
    """One CLI command in a fresh process; ``check`` inspects its results."""

    label: str
    args: list[str]
    expect: int
    check: object  # (CliItem, Child) -> Checked
    output: Path | None = None

    def run(self, workdir: Path, traced: bool) -> Outcome:
        if self.output is not None:
            self.output.unlink(missing_ok=True)
        if traced:
            stats = workdir / f"stats-{self.label}.json"
            stats.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH / "tracer.py"), str(stats), *self.args]
        else:
            argv = [sys.executable, "-m", "tetrabox.cli", *self.args]
        child, elapsed = spawn(argv, workdir)
        trace = json.loads(stats.read_text()) if traced and stats.exists() else None
        return Outcome(self.label, elapsed, child, child.rss_mb, trace)

    def gate(self, child: Child) -> Checked:
        return self.check(self, child)


@dataclass
class LibItem:
    """One in-process call chain; ``check`` inspects what ``call`` returned."""

    label: str
    call: object  # () -> dict
    check: object  # (dict) -> Checked

    def run(self, workdir: Path, traced: bool) -> Outcome:
        start = time.perf_counter()
        result = self.call()
        return Outcome(self.label, time.perf_counter() - start, result)

    def gate(self, result: dict) -> Checked:
        return self.check(result)


# -- checks ----------------------------------------------------------------

def check_exit(item: CliItem, child: Child) -> list[str]:
    problems = []
    if child.code != item.expect:
        problems.append(f"{item.label}: exit {child.code}, expected {item.expect}")
    if b"Traceback" in child.stderr:
        problems.append(f"{item.label}: traceback on stderr")
    return problems


def check_built_file(path: Path, spec: dict, full_verify: bool) -> Checked:
    """A build output: spec echoed, module as built in process, x_01 = A,
    x_23 = Astar and every defining relation holding (plus the whole verify
    report when ``full_verify``)."""
    problems = []
    raw = path.read_bytes()
    data = json.loads(raw)
    if data.get("spec") != spec:
        problems.append("spec not echoed")
    module = serialize.module_from_json(data["module"])
    tetra = serialize.tetra_from_json(data["tetra"])
    expected = tetrabox.build_from_spec(serialize.spec_from_json(spec))
    if module.A != expected.A or module.Astar != expected.Astar:
        problems.append("module differs from build_from_spec")
    if tetra.x[(0, 1)] != module.A:
        problems.append("x_01 != A")
    if tetra.x[(2, 3)] != module.Astar:
        problems.append("x_23 != Astar")
    if not tetrabox.verify_relations(tetra).all_passed:
        problems.append("a defining relation fails")
    if full_verify:
        ok = (
            tetrabox.eigentable(tetra).all_passed
            and tetrabox.verify_action_table(tetra).all_passed
            and tetrabox.flag_independence_check(tetra)
        )
        if not ok:
            problems.append("verify report fails")
    return Checked(problems, _sha(raw), coeff_bits(tetra))


def build_checker(spec: dict, full_verify: bool):
    def check(item: CliItem, child: Child) -> Checked:
        problems = check_exit(item, child)
        if item.expect == 0:
            if child.code != 0 or not item.output.exists():
                return Checked(problems + [f"{item.label}: no output"], "")
            checked = check_built_file(item.output, spec, full_verify)
            return Checked(problems + [f"{item.label}: {p}" for p in checked.problems], checked.digest, checked.coeff_bits)
        if not child.stderr.startswith(b"error:"):
            problems.append(f"{item.label}: rejection not reported on stderr")
        if item.output.exists():
            problems.append(f"{item.label}: rejected input wrote an output")
        return Checked(problems, _sha(child.stderr))

    return check


def verify_report(child: Child) -> dict | None:
    try:
        return json.loads(child.stdout)
    except ValueError:
        return None


def verify_checker(deep: bool, tampered: bool, bits: int):
    def check(item: CliItem, child: Child) -> Checked:
        problems = check_exit(item, child)
        report = verify_report(child)
        if report is None:
            return Checked(problems + [f"{item.label}: report is not JSON"], _sha(child.stdout))
        if tampered:
            named = report["relations"]["failures"] or report["action_table"]["failures"]
            if report["pass"] or not named:
                problems.append(f"{item.label}: tampered module not caught")
        else:
            complete = (
                report["pass"]
                and report["relations"]["passed"] == report["relations"]["total"] == 54
                and report["action_table"]["passed"] == report["action_table"]["total"]
                and report["flag_independence"]
            )
            if deep:
                complete = complete and all(
                    report["deep"][k] for k in ("pass", "rebuild_matches", "roundtrip_uniqueness", "pairwise_burnside")
                )
            if not complete:
                problems.append(f"{item.label}: verification of a built module did not pass")
        return Checked(problems, _sha(child.stdout), bits)

    return check


def check_spec_result(result: dict, irreducible: bool) -> Checked:
    problems = []
    label = result["label"]
    if result["criterion"] != irreducible:
        problems.append(f"{label}: criterion says {result['criterion']}")
    if result["burnside"] != result["criterion"]:
        problems.append(f"{label}: Burnside disagrees with the criterion")
    if not result["onsager"]:
        problems.append(f"{label}: check_onsager_equivalence is false")
    tetra, module = result["tetra"], result["module"]
    bits = 0
    if result["criterion"]:
        if tetra is None:
            problems.append(f"{label}: irreducible module not built ({result['error']})")
        else:
            bits = coeff_bits(tetra)
            if tetra.x[(0, 1)] != module.A or tetra.x[(2, 3)] != module.Astar:
                problems.append(f"{label}: x_01, x_23 are not A, Astar")
            if not tetrabox.verify_relations(tetra).all_passed:
                problems.append(f"{label}: a defining relation fails")
    elif tetra is not None:
        problems.append(f"{label}: reducible module was built")
    payload = {
        "criterion": result["criterion"],
        "key": [list(k) for k in result["key"]],
        "burnside": result["burnside"],
        "build": serialize.tetra_to_json(tetra) if tetra is not None else result["error"],
        "onsager": result["onsager"],
    }
    return Checked(problems, _sha(json.dumps(payload, indent=2).encode()), bits)


def run_spec(label: str, spec) -> dict:
    criterion = tetrabox.is_irreducible_criterion(spec)
    key = tetrabox.equivalence_key(spec)
    module = tetrabox.build_from_spec(spec)
    burnside = tetrabox.is_irreducible_burnside(module)
    tetra, error = None, None
    try:
        tetra = tetrabox.build_tetra(module)
    except TetraboxError as exc:
        error = type(exc).__name__
    onsager = tetrabox.check_onsager_equivalence(module.A, module.Astar)
    return {"label": label, "criterion": criterion, "key": key, "module": module, "burnside": burnside,
            "tetra": tetra, "error": error, "onsager": onsager}


def run_pair(label: str, s1, s2) -> dict:
    m1, m2 = tetrabox.build_from_spec(s1), tetrabox.build_from_spec(s2)
    return {"label": label, "isomorphic": tetrabox.is_isomorphic(s1, s2), "m1": m1, "m2": m2,
            "witness": tetrabox.find_intertwiner(m1, m2)}


def check_pair_result(result: dict, isomorphic: bool) -> Checked:
    problems = []
    label, witness, m1, m2 = result["label"], result["witness"], result["m1"], result["m2"]
    if result["isomorphic"] != isomorphic:
        problems.append(f"{label}: is_isomorphic says {result['isomorphic']}")
    if (witness is not None) != result["isomorphic"]:
        problems.append(f"{label}: intertwiner oracle disagrees")
    if witness is not None and (witness * m1.A != m2.A * witness or witness * m1.Astar != m2.Astar * witness):
        problems.append(f"{label}: witness does not intertwine")
    payload = {"isomorphic": result["isomorphic"],
               "witness": serialize.matrix_to_json(witness) if witness is not None else None}
    return Checked(problems, _sha(json.dumps(payload).encode()))


# -- workloads ------------------------------------------------------------

class Workload:
    """Inputs from a seed, optional preparation, and the items of one pass."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.items: list = []
        self.prepare_s = 0.0

    def make_inputs(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Work done once after set-up and before measuring (not in setup_s)."""


class CliBuild(Workload):
    name = "cli-build"

    def make_inputs(self) -> None:
        self.items = []
        for k, (label, spec, expect) in enumerate(cli_build_specs(random.Random(self.seed))):
            spec_path = self.workdir / f"{k}-{label}.spec.json"
            spec_path.write_text(json.dumps(spec))
            out = self.workdir / f"{k}-{label}.out.json"
            item = CliItem(label, ["build", str(spec_path), "-o", str(out)], expect,
                           build_checker(spec, full_verify=label == "build.d4"), out)
            self.items.append(item)


class CliVerify(Workload):
    name = "cli-verify"

    def make_inputs(self) -> None:
        self.specs = cli_verify_specs(random.Random(self.seed))
        for key in ("d27", "d16"):
            (self.workdir / f"{key}.spec.json").write_text(json.dumps(self.specs[key]))

    def prepare(self) -> None:
        start = time.perf_counter()
        paths = {}
        for key in ("d27", "d16"):
            out = self.workdir / f"{key}.module.json"
            child, _ = spawn([sys.executable, "-m", "tetrabox.cli", "build",
                              str(self.workdir / f"{key}.spec.json"), "-o", str(out)], self.workdir)
            if child.code != 0:
                raise RuntimeError(f"building the {key} fixture failed: {child.stderr.decode()}")
            paths[key] = out
        data = json.loads(paths["d16"].read_text())
        i, j = self.specs["tamper_at"]
        entry = data["tetra"]["x"]["02"][i][j]
        data["tetra"]["x"]["02"][i][j] = str(F(entry) + 1)
        tampered = self.workdir / "d16-tampered.module.json"
        tampered.write_text(json.dumps(data))
        bits = {key: coeff_bits(serialize.tetra_from_json(json.loads(p.read_text())["tetra"]))
                for key, p in paths.items()}
        self.items = [
            CliItem("verify.d27", ["verify", str(paths["d27"])], 0, verify_checker(False, False, bits["d27"])),
            CliItem("deep.d16", ["verify", "--deep", str(paths["d16"])], 0, verify_checker(True, False, bits["d16"])),
            CliItem("tampered.d16", ["verify", str(tampered)], 1, verify_checker(False, True, 0)),
        ]
        self.prepare_s = time.perf_counter() - start


class LibGrid(Workload):
    name = "lib-grid"

    def make_inputs(self) -> None:
        specs, pairs = lib_grid_inputs(random.Random(self.seed))
        self.items = []
        for k, (spec, irreducible) in enumerate(specs):
            label = f"spec{k:02d}.d{spec.dim}"
            self.items.append(LibItem(label, lambda label=label, spec=spec: run_spec(label, spec),
                                      lambda r, irr=irreducible: check_spec_result(r, irr)))
        for k, (s1, s2, isomorphic) in enumerate(pairs):
            label = f"pair{k}.d{s1.dim}"
            self.items.append(LibItem(label, lambda label=label, s1=s1, s2=s2: run_pair(label, s1, s2),
                                      lambda r, iso=isomorphic: check_pair_result(r, iso)))


WORKLOADS = {cls.name: cls for cls in (CliBuild, CliVerify, LibGrid)}


# -- measuring --------------------------------------------------------------

# Typical duration of one reference_sample() on the 2-CPU VM of bench/README.md.
REF_S = 0.0125
# Reference samples after each timed step take this share of the step's time.
PROBE_SHARE = 0.3


def reference_sample() -> float:
    """Seconds taken by a fixed piece of pure-Python work shaped like
    tetrabox's inner loops: Fraction arithmetic and fraction-free integer
    row reduction. It shares no code with tetrabox."""
    start = time.perf_counter()
    acc = F(0)
    for i in range(1, 1500):
        acc += F(i % 7 + 1, i % 5 + 2) * F(3, i % 11 + 1)
    rows = [[(i * j + 1) % 97 for j in range(24)] for i in range(24)]
    for r in range(24):
        p = rows[r][r] or 1
        for k in range(r + 1, 24):
            c = rows[k][r]
            row = [p * x - c * y for x, y in zip(rows[k], rows[r])]
            g = 0
            for x in row:
                g = gcd(g, x)
            rows[k] = [x // g for x in row] if g > 1 else row
    return time.perf_counter() - start


def probe(seconds: float) -> float:
    """Mean duration of reference samples taken for about ``seconds`` (at
    least one sample)."""
    samples = [reference_sample()]
    while sum(samples) < seconds:
        samples.append(reference_sample())
    return fmean(samples)


def timed_setup(workload: Workload) -> float:
    """One set-up: write the inputs and import tetrabox in a fresh interpreter."""
    start = time.perf_counter()
    workload.make_inputs()
    child, _ = spawn([sys.executable, "-c", "import tetrabox.cli"], workload.workdir)
    if child.code != 0:
        raise RuntimeError(f"tetrabox does not import: {child.stderr.decode()}")
    return time.perf_counter() - start


@dataclass
class Pass:
    wall_s: float
    outcomes: list[Outcome]
    trace: dict | None = None
    checked: list[Checked] = field(default_factory=list)
    reference_s: float = 0.0

    @property
    def items_s(self) -> float:
        return sum(o.seconds for o in self.outcomes)


def run_pass(workload: Workload, traced: bool) -> Pass:
    """Run every item once; checks happen afterwards, outside the timing.

    Untraced passes probe the machine's speed with reference samples before
    the first item and after each one, for PROBE_SHARE of the item's time;
    ``reference_s`` is the probes' mean weighted by the time of the items
    they surround.
    """
    tracer = None
    if traced and isinstance(workload, LibGrid):
        tracer = tracing.Tracer()
        tracer.install()
    outcomes = []
    weighted = 0.0
    before = 0.0 if traced else probe(0.1)
    start = time.perf_counter()
    try:
        for item in workload.items:
            outcome = item.run(workload.workdir, traced)
            outcomes.append(outcome)
            if not traced:
                after = probe(PROBE_SHARE * outcome.seconds)
                weighted += outcome.seconds * (before + after) / 2
                before = after
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    snapshot = None
    if tracer is not None:
        snapshot = tracer.snapshot()
    elif traced:
        snapshot = {}
        for outcome in outcomes:
            child_trace = outcome.trace or {}
            tracing.merge(snapshot, child_trace)
            covered = child_trace.get("top_level_s", 0.0) + child_trace.get("import_s", 0.0)
            snapshot.setdefault("import_samples", []).append(child_trace.get("import_s", 0.0))
            snapshot["process_self_s"] = snapshot.get("process_self_s", 0.0) + outcome.seconds - covered
        snapshot["top_level_s"] = sum(o.seconds for o in outcomes)
    result = Pass(wall, outcomes, snapshot)
    if not traced:
        result.reference_s = weighted / result.items_s
    result.checked = [item.gate(outcome.result) for item, outcome in zip(workload.items, outcomes)]
    return result


def machine() -> dict:
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
        "platform": sys.platform,
    }


def tally(passes: list[Pass]) -> tuple[int, int, list[str], dict]:
    """(attempted, failed, problems, digests); later passes must reproduce
    the digests of the first byte for byte."""
    attempted = failed = 0
    problems: list[str] = []
    digests: dict[str, str] = {}
    for p in passes:
        for outcome, checked in zip(p.outcomes, p.checked):
            attempted += 1
            issues = list(checked.problems)
            first = digests.setdefault(outcome.label, checked.digest)
            if checked.digest != first:
                issues.append(f"{outcome.label}: output differs between passes")
            if issues:
                failed += 1
                problems.extend(issues)
    return attempted, failed, problems, digests


def measure(workload: Workload, seconds: float, traced: bool, import_s: float) -> dict:
    """Set up, prepare, run whole passes until ``seconds`` have elapsed (at
    least one) and report the metrics: end-to-end ones for an untraced run,
    per-layer ones for a traced run.

    End-to-end times are wall-clock times scaled by REF_S over the mean
    duration of the reference samples taken around them. On a shared
    machine whose speed drifts with its neighbours' load, the scaled times
    vary far less from run to run than the raw ones; both are reported.
    """
    setups, setup_refs = [], [probe(0.05)]
    for _ in range(SETUP_REPEATS):
        setups.append(timed_setup(workload))
        setup_refs.append(probe(PROBE_SHARE * setups[-1]))
    workload.prepare()
    passes: list[Pass] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(workload, traced))
    attempted, failed, problems, digests = tally(passes)
    per_item: dict[str, list[float]] = {}
    for o in (o for p in passes for o in p.outcomes):
        per_item.setdefault(o.label, []).append(o.seconds)
    info = {
        "workload": workload.name,
        "seed": workload.seed,
        "traced": traced,
        "machine": machine(),
        "pool": [str(x) for x in POOL],
        "samples": {"setup_s": SETUP_REPEATS, "pass_s": len(passes)},
        "wall_s": {"setup": median(setups), "passes": [p.items_s for p in passes]},
        "reference_s": {"setup": fmean(setup_refs), "passes": [p.reference_s for p in passes]},
        "item_median_s": {label: median(v) for label, v in per_item.items()},
        "prepare_s": workload.prepare_s,
        "digests": digests,
        "problems": problems[:20],
    }
    if traced:
        metrics = traced_metrics(workload, passes, import_s)
    else:
        if isinstance(workload, LibGrid):
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            rss = max(o.rss_mb for p in passes for o in p.outcomes)
        metrics = {
            "setup_s": (median(setups) * REF_S / fmean(setup_refs), "s"),
            "pass_s": (median([p.items_s * REF_S / p.reference_s for p in passes]), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
    return {
        "info": info,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        },
    }


def traced_metrics(workload: Workload, passes: list[Pass], import_s: float) -> dict:
    """Per-layer metrics, each the median over the traced passes.

    The tracing overhead is estimated as the calibrated cost of one span or
    count wrapper times the number of wrapped calls, over the pass's wall
    time; timing an untraced pass against a traced one is swamped by the
    run-to-run noise of a shared machine.
    """
    span_cost, count_cost = tracing.wrapper_cost()
    per_pass = []
    for p in passes:
        values = tracing.layer_metrics(p.trace)
        values["tetra.max_coeff_bits"] = max(c.coeff_bits for c in p.checked)
        values["trace_coverage_frac"] = p.trace["top_level_s"] / p.wall_s
        spans, counts = tracing.wrapped_calls(p.trace)
        values["trace_overhead_frac"] = (spans * span_cost + counts * count_cost) / p.wall_s
        if isinstance(workload, LibGrid):
            values["import_s"] = import_s
            values["process.self_s"] = 0.0
        else:
            values["import_s"] = median(p.trace["import_samples"])
            values["process.self_s"] = p.trace["process_self_s"]
        per_pass.append(values)
    absent = sorted({name for p in passes for name in p.trace.get("absent", [])})
    if absent:
        print("absent from tetrabox (reported as 0): " + ", ".join(absent), file=sys.stderr)
    return {name: (median([v[name] for v in per_pass]), unit) for name, unit, _ in tracing.METRICS}
