"""The qsa benchmark: seeded workloads over `decide` and the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one fresh process each

Run from the repository root (the benchmark imports `qsa` from `src/`).
A run builds the workload's 40 inputs from the seed, makes one untimed
warm-up pass whose outputs are checked independently (`checks.py`), then
times whole passes over the same list, in the same order, for about
`--seconds` seconds: a closed loop with one client, one thread, one
process.  Each timed output must hash to the checked warm-up output; for
the default seed it must also hash to the digest recorded in
`digests.json`.  Timings are scaled to a nominal machine speed (see
`Clock`), and each input's latency is its median over the timed passes.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json
(plus `setup_s`, the median time of `import qsa` in fresh interpreters).
With `--trace 1` it splits the time between untraced and traced passes and
reports the per-layer metrics (`tracer.py`).  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
SETUP_REPEATS = 15
TAIL_BEYOND = 10
SEARCH_ENV = ("QSA_WITNESS_RADIUS", "QSA_WITNESS_SIZE", "QSA_WITNESS_BUDGET")
SETUP_CODE = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
              "import qsa; print(time.perf_counter() - t)")


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_qsa():
    """Import the library from the checkout, with the search bounds pinned."""
    for var in SEARCH_ENV:
        os.environ.pop(var, None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qsa
    return qsa


# --- machine speed ----------------------------------------------------------------
#
# The CPU speed of a shared host drifts: on a 2-vCPU virtual machine (Xeon,
# 2.1 GHz) a fixed task took from 9.5 to 16 ms in 5-second windows of one
# two-minute stretch.  Every timing is therefore reported at a nominal speed:
# scaled by NOMINAL_REFERENCE_S over the duration of a fixed reference task
# timed right before and right after the call.  The task is pure Python with
# no qsa code (an exact Fraction elimination plus dict and tuple work), so a
# change to qsa does not change it.

NOMINAL_REFERENCE_S = 0.0015
_REFERENCE_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3)
                      + Fraction((j * 7 + i * 3) % 11 - 5, 1 + (i + j) % 3)
                      for j in range(10)] for i in range(10)]


def reference_seconds():
    """Duration of the reference task, with the garbage collector paused so
    that it does not pay for collections the timed code made due."""
    gc.disable()
    try:
        t0 = perf_counter()
        checks.ldlt_semidefinite(_REFERENCE_MATRIX)
        table = {}
        for i in range(3000):
            key = (i % 97, i % 13)
            table[key] = table.get(key, ()) + (i,)
        return perf_counter() - t0
    finally:
        gc.enable()


class Clock:
    """Times calls at the nominal speed, keeping the wall-clock times too.

    The speed estimate for a call is the mean of the reference task's
    durations right before and right after it.
    """

    def __init__(self):
        self.reference = [reference_seconds()]

    def time(self, fn):
        """(nominal seconds, wall seconds, fn() or the exception it raised).

        A full collection first, so that each call pays only for the garbage
        it makes itself, whatever ran before it.
        """
        gc.collect()
        t0 = perf_counter()
        try:
            result = fn()
        except Exception as e:
            result = e
        wall = perf_counter() - t0
        self.reference.append(reference_seconds())
        speed = (self.reference[-2] + self.reference[-1]) / 2
        return wall * NOMINAL_REFERENCE_S / speed, wall, result


def measure_setup():
    """Median time of `import qsa` in a fresh interpreter, one at a time.

    Returns (nominal seconds, wall seconds).
    """
    cmd = [sys.executable, "-I", "-c", SETUP_CODE]
    subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True)   # writes bytecode
    clock = Clock()
    runs = [clock.time(lambda: subprocess.run(cmd, cwd=ROOT, check=True,
                                              capture_output=True, text=True))
            for _ in range(SETUP_REPEATS)]
    for _, _, proc in runs:
        if isinstance(proc, Exception):
            raise proc
    # the child reports its own import time; scale it like the call around it
    times = [(float(proc.stdout) * nominal / wall, float(proc.stdout))
             for nominal, wall, proc in runs]
    return tuple(statistics.median(t[k] for t in times) for k in (0, 1))


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Op:
    """One input bound to the call that runs it and to the check of its output."""

    def __init__(self, qsa, inp, workdir, index):
        self.inp = inp
        if inp.argv is None:
            self.run = lambda: qsa.decide_derived_type(
                qsa.parse_presentation(inp.text),
                workloads.WITNESS_RADIUS, workloads.WITNESS_SIZE)
            return
        path = os.path.join(workdir, f"{index}.qsa")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(inp.text)
        argv = [path if a == "{file}" else a for a in inp.argv]

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = qsa.run_cli(argv)
            return code, out.getvalue(), err.getvalue()
        self.run = run

    def output(self, result):
        """The text whose digest identifies the output: payload JSON or stdout."""
        if self.inp.argv is None:
            return json.dumps(result.to_payload(), sort_keys=True)
        return result[1]

    def check(self, result):
        if self.inp.argv is None:
            return checks.check_decide(self.inp, result.to_payload())
        return checks.check_cli(self.inp, *result)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, msg):
        self.failed += 1
        if self.failed <= 5:
            print(f"FAIL: {msg}", file=sys.stderr)


def warm_up(ops, tally, recorded):
    """Untimed pass: run, check and hash every operation once."""
    digests = []
    for i, op in enumerate(ops):
        tally.attempted += 1
        try:
            result = op.run()
            err = op.check(result)
            digest = sha(op.output(result))
        except Exception:
            tally.fail(f"input {i} ({op.inp.kind}) raised\n{traceback.format_exc()}")
            digests.append(None)
            continue
        if err is None and recorded is not None and recorded[i] != digest:
            err = "output digest differs from the recorded one"
        if err is not None:
            tally.fail(f"input {i} ({op.inp.kind}): {err}")
            digest = None
        digests.append(digest)
    return digests


def timed_passes(ops, digests, budget, tally, trace=None):
    """Whole passes until the next one would overrun `budget` seconds.

    Returns (nominal, wall, clock): the durations of each operation, one
    per pass, at nominal speed and on the wall clock.  A timed output counts
    as failed unless it hashes to the checked warm-up output.
    """
    nominal = [[] for _ in ops]
    wall = [[] for _ in ops]
    clock = Clock()
    passes = 0
    start = perf_counter()
    while True:
        for i, op in enumerate(ops):
            tally.attempted += 1
            run_op = (lambda: trace.run_op(i, op.run)) if trace else op.run
            scaled, seconds, result = clock.time(run_op)
            if isinstance(result, Exception):
                tally.fail(f"input {i} raised\n" + "".join(traceback.format_exception(result)))
                continue
            nominal[i].append(scaled)
            wall[i].append(seconds)
            if digests[i] is None or sha(op.output(result)) != digests[i]:
                tally.fail(f"input {i}: timed output differs from the checked one")
        passes += 1
        elapsed = perf_counter() - start
        if elapsed * (passes + 1) / passes > budget:
            return nominal, wall, clock


def latency_summary(times):
    """Each input's median over the passes; then their rate, median and tail.

    The rate is inputs per second of summed per-input medians: one pass of
    the list at typical speed, with interference from other processes on
    the machine filtered out of each input by the median.
    """
    per_input = sorted(statistics.median(t) for t in times if t)
    n = len(per_input)
    tail_index = max(n - TAIL_BEYOND - 1, 0)
    return {
        "ops_per_s": n / sum(per_input),
        "latency_p50_ms": statistics.median(per_input) * 1000,
        "latency_tail_ms": per_input[tail_index] * 1000,
        "tail_percentile": 100 * (tail_index + 1) / n,
        "samples": n,
    }


def run_workload(name, seed, seconds, trace):
    spec = load_spec()
    qsa = import_qsa()
    setup_s, setup_wall = measure_setup() if not trace else (None, None)
    inputs = workloads.build(name, seed)
    if [x.digest() for x in inputs] != [x.digest() for x in workloads.build(name, seed)]:
        raise RuntimeError(f"{name}: the same seed built different inputs")
    recorded = None
    if seed == DEFAULT_SEED:
        with open(HERE / "digests.json", encoding="utf-8") as fh:
            recorded = json.load(fh)["outputs"].get(name)

    tally = Tally()
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        ops = [Op(qsa, inp, workdir, i) for i, inp in enumerate(inputs)]
        digests = warm_up(ops, tally, recorded)
        if not trace:
            times, wall, clock = timed_passes(ops, digests, seconds, tally)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            lat = latency_summary(times)
            raw = latency_summary(wall)
            print(f"# {name} seed {seed}: {len(ops)} inputs, {len(times[0])} timed passes; "
                  f"latency_tail_ms is p{lat['tail_percentile']:g} of {lat['samples']} "
                  f"per-input medians ({TAIL_BEYOND} beyond); "
                  f"fail_frac {tally.failed}/{tally.attempted}")
            print(f"# wall clock: ops_per_s {raw['ops_per_s']:.4g}, latency_p50_ms "
                  f"{raw['latency_p50_ms']:.4g}, latency_tail_ms {raw['latency_tail_ms']:.4g}, "
                  f"setup_s {setup_wall:.4g}; reference task median "
                  f"{statistics.median(clock.reference) * 1000:.4g} ms, nominal "
                  f"{NOMINAL_REFERENCE_S * 1000:g} ms")
            values = dict(lat, peak_rss_mb=rss_mb, setup_s=setup_s)
            metrics = spec["end_to_end"]
        else:
            plain = timed_passes(ops, digests, seconds / 2, tally)[0]
            tr = tracer.Tracer()
            tr.install()
            try:
                traced = timed_passes(ops, digests, seconds / 2, tally, tr)[0]
            finally:
                tr.uninstall()
            values = tracer.layer_metrics(tr, [m["name"] for m in spec["per_layer"]])
            values["trace.overhead_frac"] = (latency_summary(plain)["ops_per_s"]
                                             / latency_summary(traced)["ops_per_s"] - 1)
            print(f"# {name} seed {seed}: {len(ops)} inputs, {len(plain[0])} untraced and "
                  f"{len(traced[0])} traced passes; values are per operation")
            metrics = spec["per_layer"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}
    for key, m in out.items():
        print(f"{key:48s} {m['value']:14.6g} {m['unit']}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": out}


def run_all(args):
    """Each workload in its own fresh interpreter, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            total["correct"] = False
            continue
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            total["metrics"][f"{name}.{key}"] = m
    return total


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed seconds per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "qsa" / "__init__.py").is_file():
        print(f"error: no qsa package under {SRC}; run from a qsa checkout",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
