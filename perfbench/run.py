"""End-to-end and per-layer benchmark of `heavenlab verify`.

    python3 perfbench/run.py --workload exact-dense --seed 1 --seconds 30 --trace 0

Run from a source checkout; heavenlab is imported from its `src/`.  One
verify is `heavenlab.cli.main(["verify", <scenario>, "--format",
"structured", "--out", <report>])`, called in this process on scenario files
generated from `--seed` (see workloads.py).  One caller runs verifies back to
back (a closed loop of one client, single thread), in whole passes over the
workload's scenario list, until `--seconds` of verify time have been spent.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates untraced
and traced passes over the same scenarios and reports the per-layer metrics
of tracing.py; the spans go to `.perfbench/` in the checkout.

Every verify is checked: it fails if it raises, exits 2, or its report's
check-to-verdict map differs from the generator's prediction.  The last line
of standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 11

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402


@dataclass
class Case:
    """One scenario file of a pass and what its report must say."""

    name: str
    path: Path
    text_sha: str
    expected: dict


@dataclass
class Outcome:
    seconds: float
    ok: bool
    checks: int
    digest: str


def import_heavenlab():
    """Import heavenlab.cli afresh from the checkout's src/, never from elsewhere."""
    for name in [m for m in sys.modules if m == "heavenlab" or m.startswith("heavenlab.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import heavenlab.cli

    if Path(heavenlab.cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"heavenlab imported from {heavenlab.cli.__file__}, not {SRC}")
    return heavenlab.cli


def scenario_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def setup(workload: str, seed: int, workdir: Path):
    """Import heavenlab, write and parse the scenarios and build their instances.

    Repeated SETUP_REPEATS times; returns the last import, the cases and the
    median set-up seconds.  Drawing the scenarios is the generator's work and
    is not timed; numpy is imported once beforehand, as heavenlab's modules
    are the ones a change to the program can make slower to load.
    """
    import numpy  # noqa: F401

    drawn = workloads.scenarios(workload, seed)
    times = []
    for repeat in range(SETUP_REPEATS):
        # fresh files each time: truncating an existing file can block on
        # some filesystems, which would time the disk instead of heavenlab
        folder = workdir / f"setup{repeat}"
        folder.mkdir()
        start = time.perf_counter()
        cli = import_heavenlab()
        cases = []
        for i, (doc, expected) in enumerate(drawn):
            text = scenario_text(doc)
            path = folder / f"{i:02d}-{doc['name']}.json"
            path.write_text(text, encoding="utf-8")
            sc = cli.parse_scenario(path.read_text(encoding="utf-8"))
            cli.build_instance(sc.instance_spec)
            sha = hashlib.sha256(text.encode()).hexdigest()
            cases.append(Case(doc["name"], path, sha, expected))
        times.append(time.perf_counter() - start)
    return cli, cases, statistics.median(times)


def verify(cli, case: Case, out: Path, call=None) -> Outcome:
    """Time one verify and check its report against the prediction.

    `call`, when given, runs the verify (the tracer's root span); its cost
    is part of the timed interval.
    """
    argv = ["verify", str(case.path), "--format", "structured", "--out", str(out)]
    call_main = lambda: cli.main(argv)
    start = time.perf_counter()
    try:
        code = call(call_main) if call else call_main()
    except (Exception, SystemExit):
        seconds = time.perf_counter() - start
        print(f"verify {case.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return Outcome(seconds, False, 0, "")
    seconds = time.perf_counter() - start
    if code not in (0, 1):
        print(f"verify {case.name} exited {code}", file=sys.stderr)
        return Outcome(seconds, False, 0, "")
    data = out.read_bytes()
    out.unlink()  # so the next verify writes a new file (see setup)
    report = json.loads(data)
    observed = workloads.observed_verdicts(report)
    fails_expected = any("fail" in v for v in case.expected.values())
    ok = observed == case.expected and code == int(fails_expected)
    if not ok:
        diff = sorted(k for k in set(observed) | set(case.expected)
                      if observed.get(k) != case.expected.get(k))
        print(f"verify {case.name}: exit {code}, verdicts differ at {diff}", file=sys.stderr)
    return Outcome(seconds, ok, len(report["checks"]), hashlib.sha256(data).hexdigest())


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}


def measure(cli, cases: list[Case], seconds: float, out: Path) -> dict:
    """--trace 0: whole passes until `seconds` of verify time; end-to-end metrics."""
    samples: list[float] = []
    failed = 0
    while not samples or sum(samples) < seconds:
        for case in cases:
            o = verify(cli, case, out)
            samples.append(o.seconds)
            failed += not o.ok
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "scenarios_per_s": (len(samples) - failed) / sum(samples),
        "verify_s.p50": statistics.median(samples),
        "verify_s.p90": statistics.quantiles(samples, n=10, method="inclusive")[8],
        "peak_rss_mb": rss_kib / 1024.0,
    }
    return {"attempted": len(samples), "failed": failed, "metrics": metrics}


def measure_traced(cli, cases: list[Case], seconds: float, out: Path, span_file: Path) -> dict:
    """--trace 1: alternate untraced and traced passes; per-layer metrics.

    The untraced passes also compare each report's sha256 with digests.json.
    """
    digests = load_digests()
    tracer = tracing.Tracer()
    pass_s: dict[bool, list[float]] = {False: [], True: []}
    attempted = failed = checks = 0
    checked: set[str] = set()
    mismatched: set[str] = set()
    while not pass_s[True] or sum(pass_s[False]) + sum(pass_s[True]) < seconds:
        for traced in (False, True):
            total = 0.0
            with tracer if traced else contextlib.nullcontext():
                for case in cases:
                    o = verify(cli, case, out, tracer.verify if traced else None)
                    total += o.seconds
                    attempted += 1
                    failed += not o.ok
                    if traced:
                        checks += o.checks
                    elif case.text_sha in digests:
                        checked.add(case.text_sha)
                        if digests[case.text_sha] != o.digest:
                            mismatched.add(case.text_sha)
            pass_s[traced].append(total)
        # one pass of spans is enough to read; later passes only add to the sums
        tracer.keep_spans = False
    tracer.write(str(span_file))
    metrics = layer_metrics(tracer, cli.SUITES)
    metrics["report.checks"] = checks / tracer.verifies
    metrics["report.digest_checked"] = len(checked)
    metrics["report.digest_mismatch"] = len(mismatched)
    metrics["trace.overhead_ratio"] = (
        statistics.median(pass_s[True]) / statistics.median(pass_s[False])
    )
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def layer_metrics(tracer: tracing.Tracer, suites) -> dict:
    """Per-verify means of span counts and self times, by the names in BENCHMARK.json."""
    totals = tracer.totals
    verifies = tracer.verifies

    def per_verify(span: str, column: int) -> float:
        """column 0: calls, 1: inclusive seconds, 2: self seconds."""
        return totals.get(span, (0, 0.0, 0.0))[column] / verifies

    calls = lambda span: per_verify(span, 0)
    self_s = lambda span: per_verify(span, 2)

    m = {}
    for mode in ("exact", "float"):
        m[f"opcore.matmul.{mode}.calls"] = calls(f"opcore.matmul.{mode}")
        m[f"opcore.matmul.{mode}.self_s"] = self_s(f"opcore.matmul.{mode}")
        m[f"opcore.addsub.{mode}.self_s"] = self_s(f"opcore.addsub.{mode}")
    m["opcore.scale.exact.calls"] = calls("opcore.scale.exact")
    m["opcore.scale.exact.self_s"] = self_s("opcore.scale.exact")
    m["opcore.frobenius.self_s"] = self_s("opcore.frobenius")
    m["opcore.operator_exp.calls"] = calls("opcore.operator_exp")
    m["opcore.operator_exp.self_s"] = self_s("opcore.operator_exp")
    m["opcore.fraction_bits.max"] = tracer.fraction_bits_max
    for span in ("besselop.bessel_series", "besselop.series_eval", "besselop.bessel_eval",
                 "prolong.solution_cal_form"):
        m[f"{span}.calls"] = calls(span)
    for span in ("besselop.check_recurrence", "besselop.bessel_series", "besselop.series_eval",
                 "besselop.bessel_eval", "besselop.sum_rule_residual", "adjoint.bch_series",
                 "adjoint.bch_conjugate", "prolong.solution_cal_form", "prolong.cal_bessel",
                 "prolong.solution_L_form", "prolong.ode_residual",
                 "prolong.prolongation_residual", "eds.closure_check",
                 "eds.check_proposition1", "eds.constraint_residuals",
                 "report.render_structured", "cli.parse_scenario"):
        m[f"{span}.self_s"] = self_s(span)
    m["adjoint.ad_apply.calls"] = calls("adjoint.ad_apply")
    m["prolong.to_float.calls"] = calls("prolong.to_float")
    m["eds.ideal_membership.calls"] = calls("eds.ideal_membership")
    m["eds.ideal_membership.found_ratio"] = (
        tracer.membership_found / tracer.membership_attempts
        if tracer.membership_attempts else 0.0
    )
    for suite in suites:
        m[f"cli.suite.{suite}.s"] = per_verify(f"cli.suite.{suite}", 1)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        try:
            cli, cases, setup_s = setup(args.workload, args.seed, workdir)
        except ImportError as e:
            print(f"error: cannot import heavenlab from {SRC}: {e}", file=sys.stderr)
            return 2
        out = workdir / "report.json"
        if args.trace:
            span_file = WORK / f"spans-{args.workload}-{args.seed}.jsonl.gz"
            result = measure_traced(cli, cases, args.seconds, out, span_file)
        else:
            result = measure(cli, cases, args.seconds, out)
            result["metrics"]["setup_s"] = setup_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = declared["per_layer" if args.trace else "end_to_end"]
    metrics = result["metrics"]
    names = [m["name"] for m in declared]
    if set(metrics) != set(names):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(names))}")
    for m in declared:
        print(f"{args.workload:14s} {m['name']:40s} {metrics[m['name']]:.6g} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload:14s} {'error_rate':40s} {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
