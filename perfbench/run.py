"""cbnorm benchmark: seeded workloads, checked results, one JSON result line.

    python3 perfbench/run.py --workload dense-solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, a table

Load model: a closed loop, one caller in one process making one call at a
time; in ``cli-roundtrip`` one child process at a time.  A run sets up
``SETUP_REPEATS`` times (a fresh-interpreter import of numpy and cbnorm,
instance generation, references, problem files and one warm-up call), then
repeats whole passes over the workload's call list until another pass would
end after ``--seconds`` (at least one pass always runs), then sets up
``SETUP_REPEATS`` times again; ``setup_s`` is the median of all set-ups.
With ``--trace 1`` the run makes one untraced pass, then traced passes, and
reports the per-layer metrics of ``tracing.py`` instead of the end-to-end
ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full report,
with the environment, every failed call and the metrics that are not in
``BENCHMARK.json``, is written under ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import checks
import common

THREADS = common.pin_threads()

# Set-ups made before the timed passes, and again after them, so that the
# median does not hang on one stretch of the machine's speed.
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120
# The tail latency is reported only from this many samples on, so that the
# percentile with ten samples above it is at least the median.
TAIL_MIN_SAMPLES = 20
STARTUP_PROBES = 5
# The exit code with which each CLI command still writes an answer that can
# be judged: a non-optimal ``compute`` and a rejecting ``certify``.
CLI_ANSWER_EXIT = {"cli-compute": 2, "cli-certify": 3, "cli-fidelity": 0}


@dataclass
class Outcome:
    """What one call produced, and what the gate found wrong with it."""

    latency: float = 0.0
    problems: list = field(default_factory=list)
    lower: float | None = None
    upper: float | None = None
    exit_code: int | None = None
    iterations: int | None = None


class Runner:
    """Set-up and calls of one workload, library or CLI."""

    def __init__(self, workload: str, seed: int, in_process_cli: bool):
        import cbnorm
        import cbnorm.cli
        import workloads

        self.cbnorm = cbnorm
        self.workloads = workloads
        self.workload = workload
        self.seed = seed
        self.in_process_cli = in_process_cli
        self.workdir = None
        self.calls = []
        self.raw = {}
        self.refs = {}
        # Bounds reported by the last cli compute call, per problem file and
        # norm, for the certify call that follows it.
        self.computed = {}
        # Set in a traced run: every call gets its own call id in the spans.
        self.tracer = None

    # -------------------------------------------------------------- set-up

    def setup(self) -> None:
        wl = self.workloads
        self.calls = wl.calls_for(self.workload)
        warmup = wl.warmup_call(self.workload)
        refs = json.loads(common.REFS.read_text())["members"]
        members = {c.member for c in self.calls} | {warmup.member}
        self.raw, self.refs = {}, {}
        for member in sorted(members):
            key = f"{member[0]}/{member[1]}"
            base = wl.generate(*member)
            if key not in refs or not wl.same_fingerprint(
                    wl.fingerprint(base), refs[key]["fingerprint"]):
                raise SystemExit(f"error: refs.json has no reference for {key}, or "
                                 "its generator changed; run perfbench/make_refs.py")
            rng = wl.rotation_rng(self.workload, self.seed, member)
            self.raw[member], self.refs[member] = wl.rotate(base, rng), refs[key]
        if self.workload == "cli-roundtrip":
            self._write_problem_files()
        self.call(warmup)

    def _write_problem_files(self) -> None:
        from cbnorm.serialize import dump_json, matrix_to_json, problem_to_json

        if self.workdir is None:
            common.OUT.mkdir(exist_ok=True)
            self.workdir = tempfile.mkdtemp(prefix="cli-", dir=common.OUT)
        wl, so = self.workloads, self.cbnorm.SuperOp
        for call in self.calls + [wl.warmup_call(self.workload)]:
            if call.entry.startswith("cli-certify"):
                continue
            raw = self.raw[call.member]
            fmt = "fidelity" if call.entry == "cli-fidelity" else call.entry.split("/")[1]
            if fmt == "fidelity":
                p, q = wl.to_package(raw)
                doc = {"version": "1", "kind": "fidelity", "dim_in": p.shape[0],
                       "payload": {"p": matrix_to_json(p), "q": matrix_to_json(q)}}
            elif fmt == "channel_pair":
                # problem_to_json cannot write channel pairs: compose the file
                # from the Kraus payloads of the two channels.
                halves = [problem_to_json(so.from_kraus(list(raw[k])), "kraus")
                          for k in ("kraus0", "kraus1")]
                doc = dict(halves[0], kind="channel_pair", payload={
                    f"channel{i}": {"kind": "kraus", "payload": h["payload"]}
                    for i, h in enumerate(halves)})
            else:
                doc = problem_to_json(wl.to_package(raw), fmt)
            with open(self._path(call, "problem"), "w") as fh:
                dump_json(doc, fh)

    def _path(self, call, what: str) -> str:
        pool, index = call.member
        fmt = call.entry.split("/")[1] if "/" in call.entry else "fidelity"
        norm = call.entry.split("/")[-1]
        name = {"problem": f"{pool}-{index}-{fmt}.json",
                "cert": f"{pool}-{index}-{fmt}-{norm}.cert.json",
                "out": f"{pool}-{index}-{fmt}-{norm}.{call.entry.split('/')[0]}.json"}
        return os.path.join(self.workdir, name[what])

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None

    # --------------------------------------------------------------- calls

    def call(self, call) -> Outcome:
        """Make one call, timed, then judge it.  Exceptions are failures of
        the call, not of the run."""
        out = Outcome()
        if self.tracer is not None:
            self.tracer.call_id += 1
        start = time.perf_counter()
        try:
            if call.entry.startswith("cli"):
                result = self._cli(call, out)
            else:
                result = self._library(call)
        except Exception as exc:  # the run must go on; the call failed
            out.latency = time.perf_counter() - start
            out.problems.append(self._raised(exc))
            return out
        out.latency = time.perf_counter() - start
        try:
            self._judge(call, result, out)
        except Exception as exc:  # malformed output is a failed call
            out.problems.append(self._raised(exc))
        return out

    @staticmethod
    def _raised(exc):
        return checks.Problem(f"raised {type(exc).__name__}: {exc}", False)

    def _library(self, call):
        cb, raw = self.cbnorm, self.raw[call.member]
        if call.entry == "fidelity":
            return cb.fidelity_sdp(*self.workloads.to_package(raw))
        phi = self.workloads.to_package(raw, call.scale)
        if call.entry == "diamond":
            res = cb.diamond_norm(phi)
            target = phi
        else:
            res = cb.cb_spectral_norm(phi)
            target = cb.adjoint(phi)
        return res, cb.verify_certificate(target, res.certificate)

    def _cli(self, call, out: Outcome) -> dict:
        """Run one CLI command.  Returns its stderr and, where the exit code
        says the command wrote one, its parsed ``--output``."""
        kind = call.entry.split("/")[0]
        args = [kind.removeprefix("cli-"), "--input", self._path(call, "problem"),
                "--output", self._path(call, "out")]
        if kind != "cli-fidelity":
            norm = "cb-spectral" if call.entry.endswith("/cb") else "diamond"
            args += ["--certificate", self._path(call, "cert")]
            if kind == "cli-compute":
                args += ["--norm", norm]
        # Files left by an earlier pass must not be judged as this one's.
        stale = ["out"] + (["cert"] if kind == "cli-compute" else [])
        for what in stale:
            if os.path.exists(self._path(call, what)):
                os.remove(self._path(call, what))
        if self.in_process_cli:
            out.exit_code = self.cbnorm.cli.main(args)
            stderr = ""
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "cbnorm.cli", *args], env=common.child_env(),
                cwd=common.ROOT, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S)
            out.exit_code, stderr = proc.returncode, proc.stderr
        # ``compute`` still writes its bounds when the solve is not optimal
        # (exit 2), and ``certify`` its verdict when it rejects (exit 3):
        # those answers are judged too.
        answer = None
        if out.exit_code in (0, CLI_ANSWER_EXIT[kind]):
            with open(self._path(call, "out")) as fh:
                answer = json.load(fh)
        return {"stderr": stderr, "answer": answer}

    def _judge(self, call, result, out: Outcome) -> None:
        ref = self.refs[call.member]
        if call.entry.startswith("cli"):
            out.problems += checks.judge_exit(out.exit_code, 0, result["stderr"])
            result = result["answer"]
            if result is None:
                return
            if call.entry == "cli-fidelity":
                out.problems += checks.judge_fidelity(result["fidelity"],
                                                      ref["fidelity"]["value"])
                return
            norm = ref["cb" if call.entry.endswith("/cb") else "diamond"]["value"]
            out.lower, out.upper = result["lower_bound"], result["upper_bound"]
            out.problems += checks.judge_bracket(out.lower, out.upper, norm)
            key = (call.member, call.entry.split("/", 1)[1])
            if call.entry.startswith("cli-compute"):
                self.computed[key] = (out.lower, out.upper)
            else:
                out.problems += checks.judge_verified(
                    result["valid"], result["violations"], (out.lower, out.upper),
                    self.computed.pop(key, (None, None)))
            return
        if call.entry == "fidelity":
            out.problems += checks.judge_fidelity(result.fidelity,
                                                  ref["fidelity"]["value"])
            return
        res, check = result
        out.lower, out.upper = res.lower_bound, res.upper_bound
        out.iterations = res.solver_stats.iterations
        norm = ref["cb" if call.entry == "cb" else "diamond"]["value"] * call.scale
        out.problems += checks.judge_bracket(out.lower, out.upper, norm)
        out.problems += checks.judge_verified(check.valid, check.violations,
                                              (check.lower, check.upper),
                                              (out.lower, out.upper))


# ------------------------------------------------------------------ phases


def timed_passes(runner: Runner, seconds: float, budget_start: float):
    """Whole passes over the call list, at least one, until another would
    end after ``seconds`` from ``budget_start``.  Returns pass walls and
    outcomes."""
    walls, outcomes = [], []
    while True:
        start = time.perf_counter()
        for call in runner.calls:
            outcomes.append((call, runner.call(call)))
        walls.append(time.perf_counter() - start)
        done = time.perf_counter() - budget_start
        if done + walls[-1] > seconds:
            return walls, outcomes


def cli_startup_s() -> float:
    """Median wall time of ``cbnorm --version`` as a child process."""
    times = []
    for _ in range(STARTUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "cbnorm.cli", "--version"],
                       env=common.child_env(), cwd=common.ROOT, check=True,
                       capture_output=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def tail(latencies: list) -> dict | None:
    """The highest percentile with at least ten samples above it."""
    n = len(latencies)
    if n < TAIL_MIN_SAMPLES:
        return None
    return {"value": sorted(latencies)[n - 11], "percentile": 100 * (n - 10) / n,
            "samples": n}


def peak_rss_mb(with_child: bool) -> float:
    """Peak RSS of this process, plus that of its largest child if
    ``with_child``.  The set-up import children load a subset of what every
    CLI child loads, so the largest child is a CLI child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if with_child else 0
    return (own + child) / 1024


def fresh_import() -> None:
    """Import numpy and cbnorm in a fresh interpreter: the import cost of
    a set-up, which this process can pay only once."""
    subprocess.run([sys.executable, "-c", "import numpy, cbnorm, cbnorm.cli"],
                   env=common.child_env(), cwd=common.ROOT, check=True,
                   timeout=CHILD_TIMEOUT_S)


def run(args) -> dict:
    import_start = time.perf_counter()
    common.import_package()
    import cbnorm.cli  # noqa: F401

    import_s = time.perf_counter() - import_start
    runner = Runner(args.workload, args.seed, in_process_cli=bool(args.trace))
    setups = []

    def set_up(repeats: int) -> None:
        for _ in range(repeats):
            start = time.perf_counter()
            fresh_import()
            runner.setup()
            setups.append(time.perf_counter() - start)

    try:
        set_up(SETUP_REPEATS)
        budget_start = time.perf_counter()
        tracer = None
        if args.trace:
            import tracing

            untraced, _ = timed_passes(runner, 0, budget_start)
            runner.tracer = tracer = tracing.Tracer()
            tracer.install()
            try:
                walls, outcomes = timed_passes(runner, args.seconds, budget_start)
            finally:
                tracer.uninstall()
        else:
            walls, outcomes = timed_passes(runner, args.seconds, budget_start)
        set_up(SETUP_REPEATS)
    finally:
        runner.close()
    setup_s = statistics.median(setups)

    failed = [(c, o) for c, o in outcomes if o.problems]
    widths = [checks.rel_width(o.lower, o.upper) for _, o in outcomes
              if not o.problems and o.upper is not None]
    latencies = [o.latency for _, o in outcomes]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": common.environment(THREADS),
        "passes": len(walls),
        "calls_per_pass": len(runner.calls),
        "attempted": len(outcomes),
        "failed": len(failed),
        "wrong": sum(any(p.wrong for p in o.problems) for _, o in outcomes),
        "setup": {"in_process_import_s": import_s, "repeats_s": setups},
        "pass_walls_s": walls,
        "failures": sorted({f"{c.label}: {'; '.join(p.text for p in o.problems)}"
                            for c, o in failed}),
        "calls": [{"call": c.label, "latency_s": o.latency, "iterations": o.iterations,
                   "failed": bool(o.problems)} for c, o in outcomes[:len(runner.calls)]],
    }
    e2e = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "peak_rss_mb": (peak_rss_mb(args.workload == "cli-roundtrip"), "MB"),
        "error_rate": (len(failed) / len(outcomes), "ratio"),
        "bracket_rel_width_max": (max(widths, default=0.0), "ratio"),
    }
    report["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    report["end_to_end"]["latency_tail_s"] = tail(latencies) and dict(
        tail(latencies), unit="s")
    if tracer is not None:
        per_layer = tracing.layer_metrics(tracer, len(walls))
        per_layer["cli.startup_s"] = cli_startup_s()
        per_layer["cli.exit_mismatch"] = sum(
            1 for _, o in outcomes if o.exit_code not in (None, 0)) / len(walls)
        per_layer["trace.overhead_s"] = statistics.median(walls) - untraced[0]
        report["per_layer"] = per_layer
        report["untraced_pass_s"] = untraced[0]
        common.OUT.mkdir(exist_ok=True)
        tracer.write(common.OUT / f"spans-{args.workload}-{args.seed}.json")
    return report


def result_line(report: dict, spec: dict) -> dict:
    """The metrics ``BENCHMARK.json`` names for this kind of run."""
    if report["trace"]:
        metrics = {m["name"]: {"value": report["per_layer"][m["name"]],
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: report["end_to_end"][m["name"]]
                   for m in spec["end_to_end"]}
    return {"correct": report["wrong"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def print_table(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"passes {report['passes']} x {report['calls_per_pass']} calls  "
          f"threads {report['environment']['blas_threads']}")
    for name, m in report["end_to_end"].items():
        if m is None:
            print(f"  {name:24s} not reported (< {TAIL_MIN_SAMPLES} samples)")
            continue
        extra = (f"  (p{m['percentile']:.1f} of {m['samples']} samples)"
                 if "percentile" in m else "")
        print(f"  {name:24s} {m['value']:.6g} {m['unit']}{extra}")
    for name, value in report.get("per_layer", {}).items():
        print(f"  {name:34s} {value:.6g}")
    for text in report["failures"]:
        print(f"  FAILED {text}")


def run_all(args, names) -> int:
    """Each workload in a fresh process, so peak RSS is its own."""
    lines = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(lines))
    return 0


def main(argv=None) -> int:
    # Nothing imports numpy before run(), which times the in-process import.
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]] + ["all"])
    parser.add_argument("--seed", type=int, required=True,
                        help="non-negative workload seed")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args, [w["name"] for w in spec["workloads"]])
    report = run(args)
    common.OUT.mkdir(exist_ok=True)
    path = common.OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print_table(report)
    print(json.dumps(result_line(report, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
