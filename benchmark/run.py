#!/usr/bin/env python3
"""End-to-end benchmark of biomc on the paper's own workloads.

Gated run (one workload, as BENCHMARK.json describes it):

    python3 benchmark/run.py --workload cardiac --seed 1 --seconds 30 --trace 0

builds benchmark/gate.exe from source with dune, then spawns one fresh
process per pass (cold caches, as a CLI user pays them).  Each pass
issues the workload's queries back to back; passes repeat until
--seconds have been measured.  --trace 0 reports the end-to-end metrics
(medians over the passes); --trace 1 alternates untraced and traced
passes and reports the per-layer ledger.  Every pinned verdict is
asserted inside the pass; all passes of one run, traced or not, must
give identical answers.  The last stdout line is the JSON result.

Layer-ablation diagnostic (not gated, one traced pass per switch):

    python3 benchmark/run.py --ablate [--seed 1] [--out FILE]
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("cardiac", "therapy", "calibrate", "decide")
GATE = os.path.join("_build", "default", "benchmark", "gate.exe")
SETUP_SPAWNS = 30  # set-up-only processes per gated run: one takes ~3 ms
PASS_TIMEOUT_S = 150.0
ABLATIONS = (
    ("default", {}),
    ("no_tm", {"BIOMC_NO_TM": "1"}),
    ("no_affine", {"BIOMC_NO_AFFINE": "1"}),
    ("no_newton", {"BIOMC_NO_NEWTON": "1"}),
    ("no_cache", {"BIOMC_NO_CACHE": "1"}),
    ("no_tape", {"BIOMC_NO_TAPE": "1"}),
    ("portfolio", {"BIOMC_PORTFOLIO": "1"}),
)


def fail(msg):
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a biomc checkout (dune-project and lib/ missing)")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./benchmark/gate.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0 or not os.path.isfile(GATE):
        fail("build failed:\n" + proc.stdout[-4000:])


children = set()


def stop(signum, _frame):
    """Kill and reap the running pass before leaving on a signal."""
    for proc in children:
        proc.kill()
        proc.wait()
    sys.exit(128 + signum)


def spawn(workload, seed, traced=False, setup_only=False, leaves=False, env=None):
    """One pass in a fresh process: its record plus set-up, CPU and RSS."""
    cmd = [GATE, "--workload", workload, "--seed", str(seed)]
    cmd += ["--traced"] * traced + ["--setup-only"] * setup_only + ["--leaves"] * leaves
    t_spawn = time.time()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            env=env)
    children.add(proc)
    watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read().decode(errors="replace")
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    children.discard(proc)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    records = [line for line in out.splitlines() if line.startswith('{"workload"')]
    if not records or proc.returncode not in (0, 3):
        fail(f"{' '.join(cmd)} exited {proc.returncode}:\n{out[-4000:]}")
    rec = json.loads(records[-1])
    rec["exit"] = proc.returncode
    rec["setup_s"] = rec["t_first_query"] - t_spawn
    rec["cpu_s"] = usage.ru_utime + usage.ru_stime
    rec["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    for line in out.splitlines():
        if line.startswith("gate:"):
            print(line, file=sys.stderr)
    return rec


def answers(rec):
    return [(q["name"], q.get("verdict"), q.get("detail"), q.get("error"))
            for q in rec["queries"]]


def rigorous_frac(recs):
    """Conclusive verdicts backed by a tube, a proof or a certified
    witness, over conclusive verdicts whose rigor the API exposes."""
    rigor = [q["rigor"] for r in recs for q in r["queries"] if "verdict" in q]
    exposed = [x for x in rigor if x != "hidden"]
    return sum(x == "rigorous" for x in exposed) / len(exposed) if exposed else 0.0


def counts(recs):
    attempted = sum(len(r["queries"]) for r in recs)
    failed = sum("error" in q for r in recs for q in r["queries"])
    return attempted, failed


def undecided_frac(recs):
    """Mean undecided share of the box over the pavings (0 without any)."""
    shares = [q["undecided"] for r in recs for q in r["queries"]
              if q.get("undecided") is not None]
    return statistics.fmean(shares) if shares else 0.0


def provenance():
    """Configuration the numbers were measured under."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "none (not a git checkout)"
    digest = hashlib.sha256()
    for root in ("lib", "benchmark"):
        for d, dirs, files in sorted(os.walk(root)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", ".py", "dune")):
                    path = os.path.join(d, f)
                    digest.update(path.encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return {"nproc": os.cpu_count(), "git_revision": rev,
            "source_sha256": digest.hexdigest()[:16]}


def measure(workload, seed, seconds, trace):
    """Passes for [seconds]: at least one, and another only while it is
    expected to end in time.  Traced runs alternate an untraced and a
    traced pass."""
    recs, traced = [], []
    setups = [spawn(workload, seed, setup_only=True)["setup_s"]
              for _ in range(SETUP_SPAWNS)] if not trace else []
    t0 = time.monotonic()
    while True:
        t_pass = time.monotonic()
        recs.append(spawn(workload, seed))
        if trace:
            traced.append(spawn(workload, seed, traced=True))
        now = time.monotonic()
        if now + (now - t_pass) - t0 > seconds:
            return recs, traced, setups


def gated(args):
    leaked = sorted(k for k in os.environ if k.startswith("BIOMC_"))
    if leaked:
        fail("refusing to measure with " + ", ".join(leaked) +
             " set: these change the configuration under test")
    build()
    recs, traced, setups = measure(args.workload, args.seed, args.seconds, args.trace)
    everything = recs + traced
    reference = answers(recs[0])
    correct = all(r["exit"] == 0 for r in everything) and all(
        answers(r) == reference for r in everything)
    attempted, failed = counts(everything)
    med = lambda key, rs=recs: statistics.median(r[key] for r in rs)
    if args.trace:
        values = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in traced[0]["layers"]}
        values["telemetry.overhead"] = med("wall_s", traced) / med("wall_s")
        values["failed_frac"] = failed / attempted
        values["undecided_frac"] = undecided_frac(recs)
    else:
        values = {
            "wall_s": med("wall_s"),
            "cpu_s": med("cpu_s"),
            "setup_s": statistics.median(setups + [r["setup_s"] for r in recs]),
            "peak_rss_mb": med("peak_rss_mb"),
            "rigorous_frac": rigorous_frac(recs),
        }
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec}
    info = dict(provenance(), workload=args.workload, jobs=recs[0]["jobs"],
                ocaml=recs[0]["ocaml"], seed=args.seed, passes=len(recs),
                traced_passes=len(traced))
    print("config: " + " ".join(f"{k}={v}" for k, v in info.items()))
    for q in recs[0]["queries"]:
        print(f"  {q['name']:<28} {q.get('verdict', 'FAILED: ' + q.get('error', ''))}"
              f"  (expect {q['expect']}, {q.get('rigor', '-')})")
    if not args.trace:
        print(f"  failed_frac = {failed / attempted:.4g}  "
              f"undecided_frac = {undecided_frac(recs):.4g}  (per-layer report)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def overlaps(a, b):
    """Two boxes (lists of [var, lo, hi]) share interior points."""
    hb = {v: (lo, hi) for v, lo, hi in b}
    return all(min(hi, hb[v][1]) > max(lo, hb[v][0]) for v, lo, hi in a)


def ablate(args):
    """One traced pass per workload under each layer switch."""
    build()
    base_env = {k: v for k, v in os.environ.items() if not k.startswith("BIOMC_")}
    report, problems = {}, []
    for w in WORKLOADS:
        runs = {name: spawn(w, args.seed, traced=True, leaves=True, env=dict(base_env, **env))
                for name, env in ABLATIONS}
        base = runs["default"]
        verdicts = lambda r: [(q["name"], q.get("verdict")) for q in r["queries"]]
        rows = {}
        for name, rec in runs.items():
            if rec["exit"] != 0 or verdicts(rec) != verdicts(base):
                problems.append(f"{w}/{name}: verdicts differ from the default stack")
            for other_name, other in runs.items():
                for qa, qb in zip(rec["queries"], other["queries"]):
                    if any(overlaps(c, i) for c in qa.get("consistent", [])
                           for i in qb.get("inconsistent", [])):
                        problems.append(f"{w}: {qa['name']} consistent under {name}, "
                                        f"inconsistent under {other_name}")
            rows[name] = {
                "wall_s": rec["wall_s"],
                # the switch's net effect: negative when flipping it saves time
                "effect_s": rec["wall_s"] - base["wall_s"],
                "rigorous_frac": rigorous_frac([rec]),
                "undecided_frac": undecided_frac([rec]),
                "layers": rec["layers"],
            }
            print(f"{w:<10} {name:<10} wall {rec['wall_s']:8.3f} s  effect "
                  f"{rows[name]['effect_s']:+8.3f} s  rigorous "
                  f"{rows[name]['rigorous_frac']:.3f}  undecided "
                  f"{rows[name]['undecided_frac']:.4f}", flush=True)
        report[w] = rows
    report["config"] = dict(provenance(), seed=args.seed)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    for p in sorted(set(problems)):
        print("ABLATION MISMATCH: " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ablate", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    if args.ablate:
        return ablate(args)
    if args.workload is None:
        ap.error("--workload is required")
    return gated(args)


if __name__ == "__main__":
    sys.exit(main())
