#!/usr/bin/env python3
"""Benchmark of the simulated Grid'5000 testing framework (g5ktest).

Builds perfbench/simbench.exe from the checkout, then measures one workload:

    python3 perfbench/run.py --workload campaign-default --seed 3 \\
        --seconds 50 --trace 0

--trace 0 repeats fresh-process runs of the workload for about --seconds
seconds and reports the end-to-end metrics over them; --trace 1 makes a
separate traced run and reports the per-layer metrics (on campaign-default
also those of a federation of default campaigns).  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; progress and diagnostics go to stderr.  Every run checks the
simulated reports against perfbench/references.json and checks that the
deterministic counts repeat exactly between runs of the same seed.

    python3 perfbench/run.py --record-references

rewrites perfbench/references.json from the current build.  See
perfbench/README.md for the workloads and what each metric measures.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "simbench.exe")
REFERENCES = os.path.join(HERE, "references.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("campaign-default", "campaign-attached")
# Measured for its per-layer figures only, in the traced run of
# campaign-default: two domains on a shared 2-core host spread its time and
# peak heap by 0.3 (IQR over median) between identical runs.
FEDERATION = "federation-par"
# --seed N selects seed variant N mod VARIANTS; variant 0 is the default
# seed path, and every variant's report fingerprint is recorded.
VARIANTS = 8
SETUP_SAMPLES = 7
MIN_REPS = 2  # the exact-repeat check needs two runs of one seed
CHILD_TIMEOUT_S = 170
# Share of a traced drive that the step loop may spend outside the timed
# steps (next_time, clock reads, label lookup) before the host-time
# attribution counts as unaccounted.
MAX_TIMER_OVERHEAD_PCT = 5.0

# Engine event labels, "unlabelled" standing for events scheduled without one.
LABELS = ("scheduler", "workload", "oar", "oar-refresh", "deploy", "faults",
          "serve", "audit", "health", "triage-delay", "ci-cron", "unlabelled")

# Counts that a fixed binary and seed must reproduce exactly.
CAMPAIGN_COUNTS = ("events", "minor_words", "fingerprint", "scheduler", "serve",
                   "triage", "health", "audit", "builds_total", "bugs_filed")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Failure(Exception):
    pass


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/simbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise SystemExit("perfbench: build failed")


def child(mode, workload, variant):
    """One fresh measured process; returns its JSON result or raises Failure."""
    cmd = [EXE, mode, "--workload", workload, "--seed", str(variant)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise Failure(f"{mode} timed out")
    if proc.returncode != 0:
        raise Failure(f"{mode} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median(xs):
    return statistics.median(xs)


def load_references():
    with open(REFERENCES) as f:
        return json.load(f)


def check_reference(refs, workload, variant, fingerprint):
    expected = refs[workload][str(variant)]
    if fingerprint != expected:
        raise Failure(f"report fingerprint {fingerprint} differs from the "
                      f"reference {expected} (seed variant {variant})")


def check_repeat(first, other, keys, what):
    diff = [k for k in keys if first.get(k) != other.get(k)]
    if diff:
        raise Failure(f"{what}: counts did not repeat exactly: {', '.join(diff)}")


class Tally:
    """Processes attempted and failed in one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Failure as e:
            self.failed += 1
            log(f"perfbench: FAILED: {e}")
            return None


def end_to_end(workload, variant, seconds, refs, tally):
    """Host times are scaled to the reference host speed by each process's
    calibration ("speed"): other tenants of the shared host slow runs by
    tens of percent for minutes at a time, which repeats cannot average
    out, and the calibration kernel is slowed with them."""
    deadline = time.monotonic() + seconds
    setups = []
    for _ in range(SETUP_SAMPLES):
        r = tally.attempt(child, "setup", workload, variant)
        if r is not None:
            setups.append(r["setup_s"] * r["speed"])
    reps = []

    def rep():
        r = child("run", workload, variant)
        check_reference(refs, workload, variant, r["fingerprint"])
        if reps:
            check_repeat(reps[0], r, CAMPAIGN_COUNTS, "run")
        reps.append(r)

    # Start another repeat only while it should end before the deadline.
    attempts, last = 0, 0.0
    while attempts < MIN_REPS or time.monotonic() + last <= deadline:
        t0 = time.monotonic()
        tally.attempt(rep)
        attempts += 1
        last = time.monotonic() - t0
        log(f"perfbench: {workload} run {attempts} took {last:.1f} s")
    if not setups or not reps:
        return {}
    drive = median(r["drive_s"] * r["speed"] for r in reps)
    return {
        "setup_s": median(setups),
        "run_s": median((r["run_s"] - r["drive_s"]) * r["speed"] for r in reps) + drive,
        "sim_days_per_s": reps[0]["sim_days"] / drive,
        "minor_words_per_sim_day":
            median(r["minor_words"] / r["sim_days"] for r in reps),
        "peak_heap_mb": min(r["top_heap_words"] * 8 / 1e6 for r in reps),
    }


def check_conservation(tr):
    """Every event is charged to exactly one label, and the labels' host
    time accounts for the traced drive up to the step loop's overhead."""
    eng = tr["trace"]["engine"]
    labels = tr["trace"]["labels"]
    events = sum(v["events"] for v in labels.values())
    if not events == eng["events"] == tr["engine_events"]:
        raise Failure(f"label events sum to {events}, engine executed "
                      f"{tr['engine_events']} ({eng['events']} traced steps)")
    host = sum(v["host_s"] for v in labels.values()) + eng["cancelled_s"]
    overhead = 100.0 * (eng["drive_s"] - host) / eng["drive_s"]
    if not 0.0 <= overhead <= MAX_TIMER_OVERHEAD_PCT:
        raise Failure(f"label host time {host:.3f} s against a traced drive of "
                      f"{eng['drive_s']:.3f} s ({overhead:.2f}% unaccounted)")
    return overhead


def label_counts(tr):
    return {k: v["events"] for k, v in tr["trace"]["labels"].items()}


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(traces, untraced_drive_s):
    """Per-label, engine, scheduler, CI and subsystem figures from the
    traced runs (medians for timings, counts from the first run)."""
    tr = traces[0]
    m = {}
    eng = [t["trace"]["engine"] for t in traces]
    m["engine.events"] = eng[0]["events"]
    for q in ("step_p50_us", "step_p99_us", "step_max_us"):
        m[f"engine.{q}"] = median(e[q] for e in eng)
    traced_drive = median(e["drive_s"] for e in eng)
    m["engine.tracing_overhead_pct"] = 100.0 * (traced_drive / untraced_drive_s - 1.0)
    m["engine.timer_overhead_pct"] = median(check_conservation(t) for t in traces)
    for label in LABELS:
        per = [t["trace"]["labels"].get(label) for t in traces]
        if per[0] is None:
            events, host_ms, words, step_max = 0, 0.0, 0.0, 0.0
        else:
            events = per[0]["events"]
            host_ms = median(p["host_s"] for p in per) * 1e3
            words = ratio(per[0]["words"], events)
            step_max = median(p["step_max_us"] for p in per)
        m[f"{label}.events"] = events
        m[f"{label}.host_ms"] = host_ms
        m[f"{label}.words_per_event"] = words
        m[f"{label}.step_max_us"] = step_max
    s = tr.get("scheduler", {})
    m["scheduler.polls"] = s.get("polls", 0)
    m["scheduler.triggered"] = s.get("triggered", 0)
    m["scheduler.skipped_no_resources"] = s.get("skipped_no_resources", 0)
    m["scheduler.useful_ratio"] = ratio(s.get("completed_success", 0), s.get("triggered", 0))
    ci = tr["ci"]
    m["ci.builds"] = ci["builds"]
    m["ci.unstable_ratio"] = ratio(ci["unstable"], ci["builds"])
    m["ci.queue_wait_p50_s"] = ci["queue_wait_p50_s"]
    m["ci.queue_wait_p99_s"] = ci["queue_wait_p99_s"]
    sv = tr.get("serve", {})
    serve_host_s = m["serve.host_ms"] / 1e3
    m["serve.reads"] = sv.get("reads", 0)
    m["serve.hit_ratio"] = sv.get("hit_ratio", 0.0)
    m["serve.shed_ratio"] = ratio(sv.get("shed", 0), sv.get("reads", 0))
    m["serve.staleness_p99_s"] = sv.get("staleness_p99", 0.0)
    m["serve.reads_per_host_s"] = ratio(sv.get("reads", 0), serve_host_s)
    tg = tr.get("triage", {})
    m["triage.bundles"] = tg.get("bundles", 0)
    m["triage.dedup_ratio"] = tg.get("dedup_ratio", 0.0)
    h = tr.get("health", {})
    m["health.quarantined"] = h.get("quarantined", 0)
    m["health.released"] = h.get("released", 0)
    a = tr.get("audit", {})
    m["audit.checks"] = a.get("checks", 0)
    m["audit.violations"] = a.get("violations", 0)
    return m


def checked_run(workload, variant, refs, mode="run"):
    r = child(mode, workload, variant)
    check_reference(refs, workload, variant, r["fingerprint"])
    return r


def traced_campaign(workload, variant, refs, tally):
    run = tally.attempt(checked_run, workload, variant, refs)
    traces = []

    def trace():
        t = child("trace", workload, variant)
        check_conservation(t)
        if run is not None:
            # Set-up, drive and finalize must not notice the probe.
            check_repeat(run, t, ("unobserved_fingerprint", "scheduler", "serve", "triage",
                                  "health", "builds_total", "bugs_filed"), "traced run")
            if t["engine_events"] != run["events"]:
                raise Failure("traced run executed a different number of events")
        if traces:
            first = traces[0]
            check_repeat(first, t, ("engine_events", "ci"), "traced run")
            if label_counts(first) != label_counts(t):
                raise Failure("traced run: per-label event counts did not repeat exactly")
        traces.append(t)

    tally.attempt(trace)
    tally.attempt(trace)
    if run is None or not traces:
        return {}
    m = layer_metrics(traces, run["drive_s"])
    m["campaign.prepare_ms"] = run["prepare_ms"]
    m["campaign.finalize_ms"] = run["finalize_ms"]
    m["lint.ms"] = run["lint_ms"]
    m["gc.minor_collections"] = run["minor_collections"]
    m["gc.major_collections"] = run["major_collections"]
    return m


def traced_federation(variant, refs, tally):
    """The federation layer's figures: a 10-testbed federation of default
    campaigns under Parallel (K = cores) and Sequential K = 1, and its
    members run standalone."""
    par = tally.attempt(checked_run, FEDERATION, variant, refs)
    # Shard count and driver must not change the report.
    seq = tally.attempt(checked_run, FEDERATION, variant, refs, "run-seq")
    members = tally.attempt(child, "members", FEDERATION, variant)
    if None in (seq, par, members):
        return {}
    k = min(par["shards"], os.cpu_count() or 1)
    return {
        "federation.seq_s": seq["drive_s"],
        "federation.par_s": par["drive_s"],
        "federation.parallel_efficiency": seq["drive_s"] / (par["drive_s"] * k),
        "federation.coordinator_s": seq["drive_s"] - members["drive_s"],
        "federation.barriers": par["barriers"],
    }


def record_references():
    refs = {}
    for w in WORKLOADS + (FEDERATION,):
        refs[w] = {}
        for v in range(VARIANTS):
            refs[w][str(v)] = child("run", w, v)["fingerprint"]
            log(f"perfbench: recorded {w} variant {v}")
    with open(REFERENCES, "w") as f:
        json.dump(refs, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=50)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-references", action="store_true")
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "dune-project")) or not os.path.isdir(
            os.path.join(ROOT, "lib")):
        raise SystemExit("perfbench: run from a g5ktest checkout (dune-project and lib/ missing)")
    build()
    if args.record_references:
        record_references()
        return
    if args.workload is None:
        p.error("--workload is required")
    variant = args.seed % VARIANTS
    refs = load_references()
    tally = Tally()
    if args.trace == 0:
        metrics = end_to_end(args.workload, variant, args.seconds, refs, tally)
    else:
        metrics = traced_campaign(args.workload, variant, refs, tally)
        if args.workload == "campaign-default" and metrics:
            fed = traced_federation(variant, refs, tally)
            metrics = {**metrics, **fed} if fed else {}
    with open(SPEC) as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
    extra = set(metrics) - {m["name"] for m in spec}
    if extra:
        raise SystemExit(f"perfbench: metrics missing from BENCHMARK.json: {sorted(extra)}")
    # A layer the workload does not have reports 0.
    print(json.dumps({
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in spec},
    }))


if __name__ == "__main__":
    main()
