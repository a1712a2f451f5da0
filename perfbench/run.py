"""Seeded, self-checking benchmark of the frobdiag CLI verbs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload closed_system --seed 1 \
        --seconds 40 --trace 0

Each workload is a list of CLI cases run in this one process through
``frobdiag.cli.main(argv)`` with ``--output json``; stdout is captured
and every output goes through the correctness gate (``gate.py``).  A run
sets up three times (import, input generation, document writing,
reference inverses, gate self-test, warm-up) and reports the median as
``setup_s``; then it repeats passes over the case list for the rest of
``--seconds``.  Each case is timed from outside and converted to
reference seconds (``refclock.py``); a timing is the median over passes.

``--trace 0`` patches nothing and prints the end-to-end metrics.
``--trace 1`` spends half its time on untraced passes and half on passes
with every layer boundary wrapped (``spans.py``), checks that both print
byte-identical stdout and that the wrappers are gone afterwards, and
prints the per-layer metrics.

The last stdout line is the JSON result; the line before it holds the
run's metadata.  Both also go to ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

# the package is imported three times per run; keep it from writing
# bytecode caches into src/, so the run leaves the source tree untouched
sys.dont_write_bytecode = True

import cases  # noqa: E402  (after the flag above)
import gate  # noqa: E402
import refclock  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUPS = 3
EXIT_ENVIRONMENT = 2


class EnvironmentFailure(Exception):
    """The checkout holds no package source to benchmark."""


def import_package():
    """Import frobdiag afresh from this checkout's ``src/``."""
    if not (SRC / "frobdiag" / "__init__.py").is_file():
        raise EnvironmentFailure(f"no package source under {SRC}")
    for name in [m for m in sys.modules
                 if m == "frobdiag" or m.startswith("frobdiag.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    fd = importlib.import_module("frobdiag")
    importlib.import_module("frobdiag.cli")
    if not Path(fd.__file__).resolve().is_relative_to(SRC.resolve()):
        raise EnvironmentFailure(f"frobdiag imported from {fd.__file__}, "
                                 f"not from {SRC}")
    return fd


def layer_modules(fd) -> dict[str, object]:
    return {name: getattr(fd, name) for name in
            ("cli", "document", "catalog", "ring", "diagonal", "boundary",
             "linalg")}


def run_case(main, case, inputs, probe: refclock.Probe | None = None
             ) -> tuple[int | None, str, float, str | None, list[float]]:
    """One CLI call, timed from outside.

    Returns (exit code, stdout, seconds, error, kernel times).  Without a
    probe the call is run but not timed against the kernel.
    """
    argv = cases.argv_for(case, inputs)
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    gc.collect()
    kernels = [refclock.kernel()] if probe else []
    first = len(probe.kernels) if probe else 0
    clock = probe.clock if probe else perf_counter
    with probe.armed() if probe else nullcontext():
        start = clock()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else EXIT_ENVIRONMENT
        except Exception as exc:  # a traceback is a failed case, not a crash
            error = "".join(traceback.format_exception_only(exc)).strip()
        elapsed = clock() - start
    if probe:
        kernels += probe.kernels[first:] + [refclock.kernel()]
    stdout = out.getvalue()
    if case.writes is not None:
        inputs[case.writes].path.write_text(stdout, encoding="utf-8")
    return code, stdout, elapsed, error, kernels


class Fixture:
    """What one set-up leaves behind for the timed passes."""

    def __init__(self, workload: cases.Workload, seed: int, work: Path):
        self.fd = import_package()
        self.modules = layer_modules(self.fd)
        self.inputs = cases.make_inputs(self.fd, workload, seed, work)
        self.problems: list[str] = []
        samples = []
        seen = set()
        for case in workload.cases:
            if case.verb in seen:
                continue
            seen.add(case.verb)
            code, stdout, _, error, _ = run_case(self.fd.cli.main, case,
                                                 self.inputs)
            reason = gate.check(case, self.inputs, code, stdout, error)
            if reason is None:
                samples.append((case, stdout))
            else:
                self.problems.append(f"warm-up {case.verb}: {reason}")
        self.problems += [f"gate self-test missed {m}"
                          for m in gate.self_test(samples, self.inputs)]


class Passes:
    """Timings, outputs and failures of repeated passes over a case list."""

    def __init__(self, workload: cases.Workload):
        self.cases = workload.cases
        self.probe = refclock.Probe()
        self.raw: list[list[float]] = [[] for _ in self.cases]
        self.ref: list[list[float]] = [[] for _ in self.cases]
        self.kernel: list[list[float]] = []
        self.outputs: list[str | None] = [None] * len(self.cases)
        self.attempted = 0
        self.failures: list[str] = []
        self.stdout_bytes: list[int] = []

    def run(self, fixture: Fixture, main, budget_s: float,
            before_case=None) -> int:
        """Repeat passes until another would overrun ``budget_s``."""
        started = perf_counter()
        walls = []
        while True:
            pass_start = perf_counter()
            pass_kernels = []
            written = 0
            for index, case in enumerate(self.cases):
                if before_case is not None:
                    before_case(index)
                code, stdout, elapsed, error, kernels = run_case(
                    main, case, fixture.inputs, self.probe)
                pass_kernels += kernels
                self.raw[index].append(elapsed)
                self.ref[index].append(refclock.to_reference(elapsed,
                                                             kernels))
                self.attempted += 1
                written += len(stdout.encode("utf-8"))
                reason = gate.check(case, fixture.inputs, code, stdout, error)
                if reason is None:
                    if self.outputs[index] is None:
                        self.outputs[index] = stdout
                    elif stdout != self.outputs[index]:
                        reason = "stdout differs from the first untraced pass"
                if reason is not None:
                    self.failures.append(
                        f"{' '.join(case.argv)}: {reason}")
            self.kernel.append(pass_kernels)
            self.stdout_bytes.append(written)
            walls.append(perf_counter() - pass_start)
            if (perf_counter() - started + statistics.median(walls)
                    > budget_s):
                return len(walls)

    def wall(self, reference: bool = True) -> float:
        """One pass: the sum over cases of each case's median time."""
        times = self.ref if reference else self.raw
        return sum(statistics.median(t) for t in times)

    def verb_seconds(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for case, times in zip(self.cases, self.ref):
            out[case.verb] = out.get(case.verb, 0.0) + statistics.median(times)
        return out

    def pass_speed(self, index: int) -> float:
        """Reference seconds per raw second during pass ``index``."""
        return refclock.REFERENCE_S / statistics.median(self.kernel[index])


def commit_of(root: Path) -> str | None:
    """HEAD commit read from ``.git`` without running git, if present."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "frobdiag").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def input_facts(inputs: dict[str, cases.Input]) -> dict:
    generated = [i for i in inputs.values() if i.reference_mu is not None]
    return {
        "integer_share": sum(i.all_integer for i in generated)
        / len(generated),
        "max_bits": max(i.max_bits for i in generated),
        "basis_sizes": {i.key: i.basis_size for i in generated},
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(cases.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def benchmark(args: argparse.Namespace, work: Path) -> tuple[dict, dict]:
    workload = cases.WORKLOADS[args.workload]
    run_start = perf_counter()
    setup_raw, setup_ref = [], []
    probe = refclock.Probe()
    for _ in range(SETUPS):
        before = refclock.kernel()
        first = len(probe.kernels)
        with probe.armed():
            start = probe.clock()
            fixture = Fixture(workload, args.seed, work)
            elapsed = probe.clock() - start
        setup_raw.append(elapsed)
        setup_ref.append(refclock.to_reference(
            elapsed, [before, *probe.kernels[first:], refclock.kernel()]))
    main = fixture.fd.cli.main
    problems = list(fixture.problems)

    # set-up counts against --seconds, so a run lasts about --seconds
    remaining = args.seconds - (perf_counter() - run_start)
    plain = Passes(workload)
    budget = remaining / 2 if args.trace else remaining
    samples = {"setups": SETUPS, "passes": plain.run(fixture, main, budget)}

    if args.trace:
        traced = Passes(workload)
        traced.outputs = list(plain.outputs)
        recorder = spans.Recorder(traced.probe.clock)
        bounds = []

        def before_case(index: int) -> None:
            if index == 0:
                bounds.append(len(recorder.spans))
            recorder.case = f"{len(bounds) - 1}.{index}"

        recorder.install(fixture.modules)
        try:
            samples["traced_passes"] = traced.run(
                fixture, recorder.span("cli.main", main),
                remaining - budget, before_case)
        finally:
            problems += [f"not restored: {n}" for n in recorder.uninstall()]
        problems += [f"still traced: {n}"
                     for n in spans.traced_names(fixture.modules)]
        bounds.append(len(recorder.spans))
        per_pass = [spans.pass_metrics(recorder.spans, a, b,
                                       traced.pass_speed(i))
                    for i, (a, b) in enumerate(zip(bounds, bounds[1:]))]
        layers = spans.median_metrics(per_pass)
        layers["cli.stdout_bytes"] = traced.stdout_bytes[0]
        layers["trace.overhead_ratio"] = traced.wall() / plain.wall()
        verbs = plain.verb_seconds()
        for verb in cases.VERBS:
            layers[f"verb.{verb}_s"] = verbs.get(verb, 0.0)
        attempted = plain.attempted + traced.attempted
        failures = plain.failures + traced.failures
        recorder.dump(OUT / "results" / (f"{args.workload}-seed{args.seed}"
                                         "-spans.jsonl"))
        metrics = {name: metric(value, _unit(name))
                   for name, value in sorted(layers.items())}
    else:
        attempted = plain.attempted
        failures = plain.failures
        metrics = {
            "wall_s": metric(plain.wall(), "s"),
            "setup_s": metric(statistics.median(setup_ref), "s"),
            "peak_rss_mib": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MiB"),
            "pass_ratio": metric((attempted - len(failures)) / attempted,
                                 "ratio"),
        }

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_of(ROOT),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "samples": samples,
        "reference_s": refclock.REFERENCE_S,
        "kernel_median_s": statistics.median(
            k for ks in plain.kernel for k in ks),
        "raw_wall_s": plain.wall(reference=False),
        "kernel_s": plain.kernel,
        "raw_setup_s": setup_raw,
        "setup_s": setup_ref,
        "verbs_s": plain.verb_seconds(),
        "cases": [{"verb": c.verb, "argv": list(c.argv),
                   "median_s": statistics.median(ref), "samples": len(ref),
                   "raw_s": raw}
                  for c, ref, raw in zip(workload.cases, plain.ref,
                                         plain.raw)],
        "inputs": input_facts(fixture.inputs),
        "problems": problems,
        "failures": failures[:20],
    }
    result = {"correct": not failures and not problems,
              "attempted": attempted,
              "failed": len(failures),
              "metrics": metrics}
    return meta, result


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if "bytes" in name:
        return "bytes"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return EXIT_ENVIRONMENT
    work = OUT / f"work-{os.getpid()}"
    try:
        meta, result = benchmark(args, work)
    except EnvironmentFailure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return EXIT_ENVIRONMENT
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = OUT / "results" / (f"{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json")
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"meta": meta, "result": result}, indent=2)
                      + "\n", encoding="utf-8")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
