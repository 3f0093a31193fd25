"""conelab benchmark: cold-CLI time to a verified result.

Run from the root of a conelab checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

One op is one ``conelab`` CLI invocation in a fresh process (through
``perfbench/opchild.py``, which imports ``conelab.cli`` from ``src/`` and
calls ``main(argv)``). Ops run in a closed loop with one client: the next op
starts when the previous one has been reaped and its output checked. The seed
picks the CLI flags of every op; the program sees only those flags.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reruns the same
ops with span wrappers and reports the per-layer metrics. Earlier lines of
standard output carry the environment, the known-defect probes, one line per
op (with the sha256 of its output) and a readable metric table; the last line
is the JSON result. See perfbench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time

import checks
import spans

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, ".work")
SRC = os.path.join(ROOT, "src")
OPCHILD = os.path.join(HERE, "opchild.py")

# A child still running after this long is killed and its op counts as failed.
OP_TIMEOUT_S = 60.0

# The op timings are medians of host-adjusted times. On a shared host the
# speed of a core changes by up to 60% for spells of seconds to minutes, in
# CPU time as much as in wall time, so the median of a 30 s run moved by 30%
# from run to run. Around every op the parent times a fixed Python loop (the
# calibration); an op's time is scaled by CAL_REF_S / (calibration time),
# which gives the time the op would take on a host where the loop takes
# CAL_REF_S. The program cannot change the loop, so a slower program still
# reads slower. The table prints the raw times beside them. The loop stays in
# the first-level cache: a loop over 11 MB slowed down by nearly twice as
# much as the ops in the same spells, so scaling by it overcorrected.
CAL_REF_S = 1.0e-3
CAL_LOOP = 20000
CAL_REPS = 9

END_TO_END = (
    ("op_s_p50_adj", "s"),
    ("run_s_p50_adj", "s"),
    ("setup_s", "s"),
    ("cpu_s_p50_adj", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ops_ratio", "ratio"),
    ("lambda_rel_err_max", "ratio"),
)

FACES_LAYER = ("faces.label_arrays", "faces.param_distances",
               "faces.verify_exposure", "faces.build_catalogue")
LIFTING_LAYER = ("lifting.verify_cone_exposure",)


def layer_metrics(layers):
    """Per-layer metrics of one traced op, from its span summary."""
    rows, counters = layers["spans"], layers["counters"]

    def calls(name):
        return rows.get(name, {}).get("calls", 0)

    def self_s(name):
        return rows.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return rows.get(name, {}).get("total_s", 0.0)

    solver_calls = calls("linalg.nnls") + calls("linalg.linprog") + calls("linalg.lsq_linear")
    out = {}
    for name in ("faces.label_arrays", "faces.verify_exposure",
                 "lifting.verify_cone_exposure", "linalg.conic_membership",
                 "niceness.shift_profile", "construction.sample_body",
                 "construction.ruling_data"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    for name in ("faces.param_distances", "faces.build_catalogue", "niceness.refined_cone",
                 "construction.homogenize", "niceness.nice3d_ingredients",
                 "meshes.build_mesh"):
        out[f"{name}.self_s"] = self_s(name)
    for name in ("faces.linprog", "linalg.linprog"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = total_s(name)
    out["linalg.nnls.calls"] = calls("linalg.nnls")
    out["linalg.lsq_linear.calls"] = calls("linalg.lsq_linear")
    out["linalg.stalls"] = counters.get("linalg.conic_membership:SolverStallError", 0)
    out["linalg.verdicts_per_solver_call"] = (
        counters.get("linalg.verdicts", 0) / solver_calls if solver_calls else 0.0)
    for name in ("faces.failed_reports", "lifting.failed_reports",
                 "niceness.generators_profiled", "meshes.triangles", "reporting.bytes_out"):
        out[name] = counters.get(name, 0)
    out["meshes.write_obj_s"] = total_s("meshes.write_obj")
    out["reporting.serialize_s"] = sum(total_s(n) for n in spans.WRITERS)
    return out


PER_LAYER_UNITS = {
    "import.scipy_optimize_s": "s",
    "trace.overhead_s": "s",
    "faces.scale_exp": "exponent",
    "lifting.scale_exp": "exponent",
    "linalg.verdicts_per_solver_call": "ratio",
    "reporting.bytes_out": "B",
}


def per_layer_unit(name):
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    return "s" if name.endswith("_s") or name.endswith(".s") else "count"


# Metric names in report order: the keys layer_metrics always returns, then
# the ones measured outside a single op.
PER_LAYER = tuple(layer_metrics({"spans": {}, "counters": {}})) + (
    "import.scipy_optimize_s", "trace.overhead_s", "faces.scale_exp", "lifting.scale_exp")


# --------------------------------------------------------------------------
# workloads: each makes the CLI flags of one op and the check of its output

def jittered_levels(rng, decades):
    """One level per decade 10^-k, scaled by 10^U(0, 0.7) (at most 5x), so
    the levels stay strictly decreasing and below the arc length pi/4."""
    return [10.0 ** -k * 10.0 ** rng.uniform(0.0, 0.7) for k in decades]


def eps_flag(levels):
    return ",".join(repr(e) for e in levels)


# Sizes are chosen so that a run holds a few dozen ops to take the median of.
VERIFY_SIZE = ("512", "64")


def verify_op(rng, out):
    levels = jittered_levels(rng, range(1, 5))
    argv = ["verify", "--samples", VERIFY_SIZE[0], "--theta-grid", VERIFY_SIZE[1],
            "--eps", eps_flag(levels), "--out", out]
    return argv, lambda: checks.check_verify(out)


def nice3d_op(rng, out):
    return ["nice3d", "--out", out], lambda: checks.check_nice3d(out)


# The finest sweep level is pinned at the floor 1e-6, where the cancellation
# error of lambda* is largest today; the other five are jittered.
SWEEP_FLOOR = 1e-6
SWEEP_SAMPLES = 8192


def sweep_op(rng, out):
    levels = jittered_levels(rng, range(1, 6)) + [SWEEP_FLOOR]
    argv = ["sweep", "--samples", str(SWEEP_SAMPLES), "--eps", eps_flag(levels), "--out", out]
    return argv, lambda: checks.check_sweep(out, levels)


MESH_SAMPLES = 128


def mesh_op(rng, out):
    which = rng.choice(("C", "Cprime"))
    argv = ["mesh", "--which", which, "--samples", str(MESH_SAMPLES), "--out", out]
    return argv, lambda: checks.check_mesh(out, which, MESH_SAMPLES)


WORKLOADS = {
    "verify": (verify_op, ".json"),
    "nice3d": (nice3d_op, ".json"),
    "sweep": (sweep_op, ".csv"),
    "mesh": (mesh_op, ".obj"),
}


# --------------------------------------------------------------------------
# children

class BenchError(RuntimeError):
    """The benchmark cannot measure this checkout; no result is printed."""


# BLAS threads of every child, unless the caller sets them. OpenBLAS would
# start one thread per core, and on a shared host a second core is free in
# some seconds and busy in others, so a `sweep` op at 32,768 samples took
# 1.9 s or 2.8 s of wall time for the same 2.8 s of CPU. With one thread the wall time follows the
# CPU time.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env():
    env = {**BLAS_THREADS, **os.environ}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(mode, argv=()):
    """Run one child to completion; wall time runs from spawn until reaped."""
    result = os.path.join(WORK, "child.json")
    if os.path.exists(result):
        os.remove(result)
    cmd = [sys.executable, OPCHILD, result, mode, "--", *argv]
    with open(os.path.join(WORK, "child.log"), "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    payload = None
    if os.path.exists(result):
        with open(result, encoding="utf-8") as fh:
            payload = json.load(fh)
        conelab_file = payload.get("conelab_file")
        if conelab_file is not None and not conelab_file.startswith(SRC + os.sep):
            raise BenchError(f"conelab imported from {conelab_file}, outside {SRC}")
    return {
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        # ru_maxrss also counts the parent's memory, which the child shares
        # until exec; the child reports its own peak when it can
        "rss_mb": (payload or {}).get("rss_mb") or usage.ru_maxrss / 1024.0,
        "rc": proc.returncode,
        "payload": payload,
    }


def calibrate():
    """Wall times of CAL_REPS runs of the calibration loop."""
    samples = []
    for _ in range(CAL_REPS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CAL_LOOP):
            acc += i * i
        samples.append(time.perf_counter() - t0)
    return samples


def run_op(mode, argv, check, out):
    """One checked op; returns its record with ``failure`` None when it passed.
    ``speed`` scales its times to the reference host (see CAL_REF_S)."""
    cal = calibrate()
    rec = spawn(mode, argv)
    rec["cal_s"] = statistics.median(cal + calibrate())
    rec["speed"] = CAL_REF_S / rec["cal_s"]
    if rec["payload"] is None:
        rec["failure"] = f"exit {rec['rc']} before reporting timings"
    elif rec["rc"] != 0:
        rec["failure"] = f"exit {rec['rc']}"
    else:
        try:
            rec["failure"] = check()
            if out.endswith(".csv"):
                rec["lambda_rel_err"] = checks.lambda_rel_errors(checks.sweep_rows(out)[0])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            rec["failure"] = f"unreadable output: {exc!r}"
    rec["sha256"] = checks.sha256(out) if os.path.exists(out) else None
    rec["argv"] = [a for a in argv if a not in ("--out", out)]
    rec["mode"] = mode
    return rec


def warm_up():
    """One import-only child: it fills the bytecode cache, so that no op pays
    for compiling ``src/`` in a fresh checkout."""
    rec = spawn("import")
    if rec["payload"] is None:
        raise BenchError(f"import conelab.cli failed (exit {rec['rc']}), see {WORK}/child.log")


# --------------------------------------------------------------------------
# known-defect probes and the lambda* accuracy reference

def _probe_verify(rec, out):
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    lifts = report["sections"]["homogenization"]["lift_failures"]
    return {"failures": report["failures"], "lift_failures": lifts,
            "defect_present": rec["rc"] == 1 and any(
                f.startswith(("lift:F02", "lift:F03")) for f in lifts)}


def _probe_sweep(rec, out):
    _, verdict = checks.sweep_rows(out)
    return {"verdict": verdict, "defect_present": verdict == "Inconclusive"}


def _probe_mesh(rec, out):
    reason = checks.check_mesh(out, "C", 256)
    return {"check": reason, "defect_present": reason is not None and "convexity" in reason}


def _reference_sweep(rec, out):
    rows, verdict = checks.sweep_rows(out)
    return {"verdict": verdict, "levels": [e for e, _ in rows],
            "lambda_rel_err": checks.lambda_rel_errors(rows)}


PROBES = (
    # ROADMAP item 2: fine theta grids fail the lifted exposure check.
    ("verify_theta_grid_512", ["verify", "--samples", "512", "--theta-grid", "512"],
     ".json", _probe_verify),
    # ROADMAP item 3: eps = 1e-7 leaves the lambda interval empty.
    ("sweep_eps_1e-7", ["sweep", "--eps", "1e-1,1e-3,1e-5,1e-7"], ".csv", _probe_sweep),
    # The C mesh fails its own convexity oracle from 256 samples per curve on.
    ("mesh_C_256", ["mesh", "--which", "C", "--samples", "256"], ".obj", _probe_mesh),
    # Accuracy reference for lambda_rel_err_max: the six decades to the floor.
    ("sweep_reference", ["sweep", "--eps", "0.1,0.01,0.001,0.0001,1e-05,1e-06"],
     ".csv", _reference_sweep),
)


def source_key():
    """Hash of everything the probes' results depend on."""
    import numpy
    import scipy

    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode())
            digest.update(checks.sha256(path).encode())
    digest.update(repr((sys.version, numpy.__version__, scipy.__version__,
                        [p[1] for p in PROBES])).encode())
    return digest.hexdigest()[:16]


def run_probes():
    """Probe results, once per source tree: the probes are deterministic, so a
    result cached under the hash of ``src/`` and the library versions is what
    a rerun would print."""
    cache = os.path.join(WORK, f"probes-{source_key()}.json")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8") as fh:
            return json.load(fh), True
    results = {}
    for name, argv, ext, read in PROBES:
        out = os.path.join(WORK, f"probe{ext}")
        rec = spawn("op", [*argv, "--out", out])
        entry = {"argv": argv, "exit_code": rec["rc"]}
        try:
            entry.update(read(rec, out))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            entry["error"] = repr(exc)
        results[name] = entry
        if os.path.exists(out):
            os.remove(out)
    tmp = f"{cache}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    os.replace(tmp, cache)
    return results, False


# --------------------------------------------------------------------------
# measurement

def measure(workload, seed, seconds, traced):
    """Ops until ``seconds`` have passed; an op (or traced pair) is not started
    when the previous one says it would end past that, so a run of long ops
    does not overrun by most of an op."""
    make, ext = WORKLOADS[workload]
    rng = random.Random(seed)
    out = os.path.join(WORK, f"out{ext}")
    records = []
    t0 = time.perf_counter()
    step_s = 0.0
    while not records or time.perf_counter() - t0 + step_s < seconds:
        argv, check = make(rng, out)
        argv = list(argv)
        modes = ("op", "trace") if traced else ("op",)
        t_step = time.perf_counter()
        for mode in modes:
            records.append(run_op(mode, argv, check, out))
            if os.path.exists(out):
                os.remove(out)
        step_s = time.perf_counter() - t_step
    return records


def scipy_import_samples(n=3):
    samples = []
    for _ in range(n):
        rec = spawn("scipy")
        if rec["payload"] is None:
            raise BenchError(f"import scipy.optimize failed (exit {rec['rc']})")
        samples.append(rec["payload"]["scipy_optimize_s"])
    return samples


def scale_probe():
    """Traced verify at 512/64 and 2048/256 for the faces/lifting exponents."""
    out = os.path.join(WORK, "scale.json")
    recs = []
    for samples, grid in ((512, 64), (2048, 256)):
        argv = ["verify", "--samples", str(samples), "--theta-grid", str(grid), "--out", out]
        recs.append(run_op("trace", argv, lambda: checks.check_verify(out), out))
        if os.path.exists(out):
            os.remove(out)
    return recs


def layer_self_s(rec, names):
    rows = rec["payload"]["layers"]["spans"] if rec["payload"] else {}
    return sum(rows.get(n, {}).get("self_s", 0.0) for n in names)


def scale_exp(small, large, names):
    a, b = layer_self_s(small, names), layer_self_s(large, names)
    return math.log(b / a) / math.log(4.0) if a > 0 and b > 0 else 0.0


def largest_self_time(traced):
    """The span name with the largest median self time over the traced ops."""
    names = {n for r in traced for n in r["payload"]["layers"]["spans"]}
    medians = {n: median([r["payload"]["layers"]["spans"].get(n, {}).get("self_s", 0.0)
                          for r in traced]) for n in names}
    return max(medians, key=medians.get, default=None)


def lambda_err_max(probes, records):
    """Largest relative lambda* error over the reference and every sweep op,
    floored at the unit roundoff (smaller errors do not resolve in binary64)."""
    errs = list(probes["sweep_reference"].get("lambda_rel_err", []))
    for rec in records:
        errs.extend(rec.get("lambda_rel_err", []))
    finite = [e for e in errs if math.isfinite(e)]
    return max([checks.UNIT_ROUNDOFF, *finite])


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "inherited": {name: os.environ.get(name) for name in BLAS_THREADS},
        "children": {name: child_env()[name] for name in BLAS_THREADS},
    }


def median(values):
    return statistics.median(values) if values else 0.0


def print_table(metrics, extra=()):
    for name, (value, unit, n) in [*metrics.items(), *extra]:
        print(f"# {name:40s} {value:>14.6g} {unit:8s} n={n}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its child (see spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "conelab", "cli.py")):
        print(f"error: no conelab sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    sys.path.insert(0, SRC)
    try:
        env = environment()
        print("# env " + json.dumps(env, sort_keys=True))
        warm_up()
        probes, cached = run_probes()
        for name, entry in probes.items():
            print(f"# probe {name} cached={cached} " + json.dumps(entry, sort_keys=True))
        records = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        scaled = scale_probe() if args.trace else []
        scipy_s = scipy_import_samples() if args.trace else []
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for rec in [*records, *scaled]:
        inner = {k: rec["payload"].get(k) for k in ("setup_s", "run_s")} if rec["payload"] else {}
        print("# op " + json.dumps({**{k: rec[k] for k in (
            "mode", "argv", "rc", "wall_s", "cal_s", "cpu_s", "rss_mb", "failure", "sha256")}, **inner}))

    attempted = len(records) + len(scaled)
    failed = sum(rec["failure"] is not None for rec in [*records, *scaled])
    plain = [r for r in records if r["mode"] == "op"]
    timed = [r for r in plain if r["payload"] is not None]

    extra = []
    if args.trace:
        traced = [r for r in records if r["mode"] == "trace" and r["payload"] is not None]
        per_op = [layer_metrics(r["payload"]["layers"]) for r in traced]
        values = {name: median([m[name] for m in per_op]) for name in per_op[0]} if per_op else {}
        values["import.scipy_optimize_s"] = median(scipy_s)
        values["trace.overhead_s"] = (median([r["payload"]["run_s"] for r in traced])
                                      - median([r["payload"]["run_s"] for r in timed]))
        small, large = scaled
        values["faces.scale_exp"] = scale_exp(small, large, FACES_LAYER)
        values["lifting.scale_exp"] = scale_exp(small, large, LIFTING_LAYER)
        metrics = {name: (values.get(name, 0), per_layer_unit(name), len(traced))
                   for name in PER_LAYER}
        print(f"# largest self time: {largest_self_time(traced)}")
    else:
        raw = {
            "op_s": [(r["wall_s"], r["speed"]) for r in plain],
            "run_s": [(r["payload"]["run_s"], r["speed"]) for r in timed],
            "setup_s": [(r["payload"]["setup_s"], r["speed"]) for r in timed],
            "cpu_s": [(r["cpu_s"], r["speed"]) for r in plain],
        }
        samples = {f"{name}_p50_adj": [t * speed for t, speed in v] for name, v in raw.items()}
        samples["setup_s"] = samples.pop("setup_s_p50_adj")
        samples["peak_rss_mb"] = [r["rss_mb"] for r in plain]
        values = {name: median(v) for name, v in samples.items()}
        values["ok_ops_ratio"] = (attempted - failed) / attempted
        values["lambda_rel_err_max"] = lambda_err_max(probes, records)
        metrics = {name: (values[name], unit, len(samples.get(name, records)))
                   for name, unit in END_TO_END}
        for name, v in raw.items():
            times = [t for t, _ in v]
            extra += [(f"raw {name}_p50", (median(times), "s", len(times))),
                      (f"raw {name}_min", (min(times, default=0.0), "s", len(times)))]
        extra.append(("calibration_s_p50", (median([r["cal_s"] for r in plain]), "s", len(plain))))
    print_table(metrics, extra=[*extra, ("failed_ops_ratio", (failed / attempted, "ratio", attempted))])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
