"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py            # run every self-test
    python3 perfbench/selftest.py --record   # rewrite digests.json, then test

* seeds: the same seed builds byte-identical inputs, another seed does not;
* tracing: traced and untraced runs of every default-seed input give the
  same output digests, and those equal the digests recorded in digests.json;
* budget: every exhaustive `witness_search` input (no witness within radius
  8, size 10) gives the same verdict and the same number of
  `covering.graph_type` calls with QSA_WITNESS_BUDGET raised tenfold, so
  the default budget of 400,000 did not cut those searches short;
* checks: tampered evidence is rejected by `checks.py`.

Exits 0 when every test passes.
"""

import copy
import json
import os
import shutil
import sys
import tempfile

import checks
import run
import tracer
import workloads


class SelfTestError(Exception):
    pass


def require(ok, msg):
    if not ok:
        raise SelfTestError(msg)


def outputs(ops, trace=None):
    res = []
    for i, op in enumerate(ops):
        result = trace.run_op(i, op.run) if trace else op.run()
        res.append(run.sha(op.output(result)))
    return res


def test_seeds():
    for name in workloads.WORKLOADS:
        a = [x.digest() for x in workloads.build(name, 7)]
        b = [x.digest() for x in workloads.build(name, 7)]
        c = [x.digest() for x in workloads.build(name, 8)]
        require(a == b, f"{name}: same seed, different inputs")
        require(a != c, f"{name}: seeds 7 and 8 built the same inputs")


def test_tracing(qsa, workdir, record):
    recorded = {}
    for name in workloads.WORKLOADS:
        ops = [run.Op(qsa, x, workdir, i)
               for i, x in enumerate(workloads.build(name, run.DEFAULT_SEED))]
        for op in ops:
            result = op.run()
            err = op.check(result)
            require(err is None, f"{name} {op.inp.spec.name}: {err}")
        plain = outputs(ops)
        tr = tracer.Tracer()
        tr.install()
        try:
            traced = outputs(ops, tr)
        finally:
            tr.uninstall()
        require(plain == traced, f"{name}: tracing changed an output")
        recorded[name] = plain
    path = os.path.join(run.HERE, "digests.json")
    if record:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"seed": run.DEFAULT_SEED, "outputs": recorded}, fh, indent=1)
            fh.write("\n")
    with open(path, encoding="utf-8") as fh:
        require(json.load(fh)["outputs"] == recorded, "outputs differ from digests.json")


def graph_type_calls(op):
    tr = tracer.Tracer()
    tr.install()
    try:
        result = tr.run_op(0, op.run)
    finally:
        tr.uninstall()
    calls = sum(1 for _, name, _, _ in tr.spans if name == "covering.graph_type")
    return result.tag, calls, run.sha(op.output(result))


def test_budget(qsa, workdir):
    default = qsa.covering.DEFAULT_WITNESS_BUDGET
    for i, inp in enumerate(workloads.build("witness_search", run.DEFAULT_SEED)):
        if inp.expect["tag"] != workloads.NOT_QUADRATIC_STRING:
            continue
        op = run.Op(qsa, inp, workdir, i)
        base = graph_type_calls(op)
        os.environ["QSA_WITNESS_BUDGET"] = str(10 * default)
        try:
            raised = graph_type_calls(op)
        finally:
            del os.environ["QSA_WITNESS_BUDGET"]
        require(base == raised, f"{inp.spec.name}: {base[:2]} vs {raised[:2]} with 10x budget")
        print(f"  {inp.spec.name}: {base[0]}, {base[1]} graph_type calls at both budgets")


def test_checks(qsa, workdir):
    """Evidence altered in a way the program would never print must be caught."""
    def first(name, kind, tag=None):
        for i, inp in enumerate(workloads.build(name, run.DEFAULT_SEED)):
            if inp.kind == kind:
                payload = run.Op(qsa, inp, workdir, i).run().to_payload()
                if tag is None or payload["tag"] == tag:
                    return inp, payload
        raise LookupError(kind)

    def rejects(inp, payload, edit):
        bad = copy.deepcopy(payload)
        edit(bad)
        require(checks.check_decide(inp, bad) is not None, f"{inp.kind}: tampering not caught")

    inp, p = first("tree_euler", "branching", "Wild")
    rejects(inp, p, lambda d: d.update(tag="Tame", nonnegative=True))
    rejects(inp, p, lambda d: d["euler"]["matrix"][0].__setitem__(1, "7"))
    rejects(inp, p, lambda d: d.update(negative_at=[1] + [0] * (len(d["negative_at"]) - 1)))
    inp, p = first("tree_euler", "linear")
    rejects(inp, p, lambda d: d.update(tag="Wild"))
    inp, p = first("gqs_reduce", "glued-gqs")
    rejects(inp, p, lambda d: d["certificate"]["steps"].pop())
    inp, p = first("witness_search", "glued-wild")
    # a path through the witness vertices is a Dynkin graph
    rejects(inp, p, lambda d: d["witness"].update(
        paths=[[u, v, []] for u, v in zip(d["witness"]["vertices"],
                                           d["witness"]["vertices"][1:])]))
    rejects(inp, p, lambda d: d.pop("witness"))
    cli = next(x for x in workloads.build("cli_edit", run.DEFAULT_SEED) if x.kind == "blowup")
    require(checks.check_cli(cli, 0, "quiver x\nvertices: 1 2\n", "") is not None,
            "wrong vertex count not caught")
    require(checks.check_cli(cli, 1, "", "error: boom") is not None, "failed command not caught")


def main(argv):
    record = "--record" in argv
    qsa = run.import_qsa()
    workdir = tempfile.mkdtemp(prefix=".work-", dir=run.HERE)
    try:
        for label, test in (("seeds", test_seeds),
                            ("tracing", lambda: test_tracing(qsa, workdir, record)),
                            ("budget", lambda: test_budget(qsa, workdir)),
                            ("checks", lambda: test_checks(qsa, workdir))):
            try:
                test()
            except SelfTestError as e:
                print(f"FAIL: {label}: {e}", file=sys.stderr)
                return 1
            print(f"ok: {label}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
