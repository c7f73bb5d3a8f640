#!/usr/bin/env python3
"""ldapbound benchmark over a seeded, generated white-pages directory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run builds ldapbound and the
perfbench program (Release) into .bench_build/, from the checkout's source.

Workloads (BENCHMARK.json records why each was chosen):
  lookup      read-only wire traffic against `ldapbound serve` (WAL on)
  churn       durable writes beside reads over the same directory
  bulk_check  in process: LoadLdif of a 400k-entry export with planted
              violations, then repeated full legality checks

--trace 0 prints the end-to-end metrics; --trace 1 runs the traced
measurement and prints the per-layer metrics and the layer ledger. The last
stdout line is the result JSON: correct, attempted, failed, metrics. Every
run also leaves .bench_build/results/<workload>-s<seed>-t<trace>.json with
the full detail and the recorded environment.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SCHEMA = os.path.join(HERE, "white-pages.schema")

# Directory sizes: 100k entries behind the wire, 400k for the bulk check.
ENTRIES = {"lookup": 100000, "churn": 100000, "bulk_check": 400000}
# The open-loop rates, the closed-loop window and the generator's lateness
# limit are constants of the load generator (src/gen.h); each run records
# them from its output.
# The op whose open-loop median latency is p50_us: lookup's team listing
# (the read the query layer does the most work for) and churn's durable
# add (Figure-5 check, publish, WAL fsync). A mix's overall median falls
# between its cheap and its expensive ops and jumps between them. Tail
# percentiles of every op class are kept in the results file, not gated:
# on the shared host even a 5%-load p90 swung 2-5 ms between runs, with
# the host stealing vCPU time.
HEADLINE = {"lookup": "list", "churn": "add"}
# Set-ups per run; setup_s and rss_mb report their median.
SETUPS = 3
PHASE_TIMEOUT_S = 120.0

WIRE = ("lookup", "churn")
WORKLOADS = WIRE + ("bulk_check",)

END_TO_END = {
    "setup_s": "s", "rss_mb": "MB", "ops_s": "1/s", "cpu_us_per_op": "us",
    "p50_us": "us",
}

# Per-layer metrics (unit, source). Replay self times are CPU ns per op of
# the workload (summed over traced ops, divided by their number).
REPLAY_NS = {
    "wire.decode_ns": "wire.decode",
    "wire.encode_ns": "wire.encode",
    "model.pin_ns": "model.pin",
    "model.apply_ns": "model.apply",
    "model.publish_ns": "model.publish",
    "query.lookup_ns": "query.lookup",
    "query.list_ns": "query.list",
    "query.page_ns": "query.page",
    "ldap.dn_parse_ns": "ldap.dn_parse",
    "update.insert_check_ns": "update.insert_check",
    "update.delete_check_ns": "update.delete_check",
    "update.reject_ns": "update.reject",
    "server.add_ns": "server.add",
    "server.delete_ns": "server.delete",
    "server.wal.append_ns": "server.wal.append",
}
# The ledger rows: disjoint per-op self times that together cover one
# request's path through the server. server.add/delete are not rows; their
# parts are (the replica rows plus server.commit_residual_ns).
LEDGER_ROWS = [
    "wire.decode_ns", "ldap.dn_parse_ns", "model.pin_ns", "query.lookup_ns",
    "query.list_ns", "query.page_ns", "model.apply_ns",
    "update.insert_check_ns", "update.delete_check_ns", "update.reject_ns",
    "model.publish_ns", "server.wal.append_ns", "server.commit_residual_ns",
    "wire.encode_ns",
]
COMMIT_PARTS = ["model.apply_ns", "update.insert_check_ns",
                "update.delete_check_ns", "model.publish_ns",
                "server.wal.append_ns"]
SETUP_MS = {
    "schema.parse_ms": ("schema.parse", "wall"),
    "consistency.check_ms": ("consistency.check", "wall"),
    "ldap.load_ldif_ms": ("ldap.load_ldif", "wall"),
    "ldap.load_ldif_cpu_ms": ("ldap.load_ldif", "cpu"),
    "core.content_ms": ("core.content", "wall"),
    "core.content_cpu_ms": ("core.content", "cpu"),
    "core.structure_ms": ("core.structure", "wall"),
    "core.structure_cpu_ms": ("core.structure", "cpu"),
    "core.keys_ms": ("core.keys", "wall"),
    "core.keys_cpu_ms": ("core.keys", "cpu"),
}
PER_LAYER = dict(
    [(name, "ns") for name in REPLAY_NS]
    + [("server.commit_residual_ns", "ns"), ("server.wal.append_wall_ns", "ns"),
       ("wire.response_bytes", "bytes"), ("query.list_scanned_per_hit", "count"),
       ("query.page_scanned_per_hit", "count"),
       ("server.wal.bytes_per_write", "bytes"),
       ("server.group_commit.writes_per_fsync", "count"),
       ("server.commit_wait_p50_us", "us"), ("net.queue_wait_p50_us", "us"),
       ("net.queue_wait_p99_us", "us"), ("net.flush_p99_us", "us")]
    + [(name, "ms") for name in SETUP_MS]
    + [("core.violations", "count"), ("ledger.cpu_us_per_op", "us"),
       ("ledger.layers_us_per_op", "us"), ("ledger.residual_us_per_op", "us"),
       ("bench.gen_late_p99_us", "us"), ("bench.trace_overhead_pct", "%")])


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build():
    """Configures (once) and builds ldapbound and perfbench, Release."""
    cmake_dir = os.path.join(BUILD, "cmake")
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    with open(build_log, "a") as out:
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", cmake_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.call(configure, stdout=out, stderr=out) != 0:
                shutil.rmtree(cmake_dir, ignore_errors=True)
                raise BenchError("cmake configure failed; see " + build_log)
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        cmd = ["cmake", "--build", cmake_dir, "-j", jobs, "--target",
               "ldapbound", "perfbench"]
        if subprocess.call(cmd, stdout=out, stderr=out) != 0:
            raise BenchError("build failed; see " + build_log)
    return {
        "ldapbound": os.path.join(cmake_dir, "ldapbound", "tools", "ldapbound"),
        "perfbench": os.path.join(cmake_dir, "perfbench"),
    }


# ---------------------------------------------------------------- helpers

def cpu_sets():
    """Disjoint CPU sets for the load generator and the program."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) == 1:
        return cpus, cpus
    return cpus[:1], cpus[1:]


def pinned(cpus):
    return lambda: os.sched_setaffinity(0, set(cpus))


def run_json(cmd, cpus, timeout, what):
    """Runs a perfbench subcommand and parses its JSON stdout."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          preexec_fn=pinned(cpus), timeout=timeout, text=True)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError("%s exited with %d" % (what, proc.returncode))
    try:
        return json.loads(proc.stdout)
    except ValueError:
        raise BenchError("%s printed no JSON" % what)


def rss_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return float(line.split()[1]) / 1024.0
    raise BenchError("no VmRSS for pid %d" % pid)


class Serve:
    """One `ldapbound serve` process: start to "wire listening" is set-up."""

    def __init__(self, binary, ldif, wal_dir, cpus, log_path):
        self.flags = ["--monitor-port", "0", "--port", "0", "--wal-dir",
                      wal_dir, "--net-reactors", str(len(cpus))]
        self.cmd = [binary, "serve", SCHEMA, ldif] + self.flags
        self.log = open(log_path, "a")
        start = time.perf_counter()
        self.proc = subprocess.Popen(self.cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.log,
                                     preexec_fn=pinned(cpus))
        self.monitor_port = self.wire_port = None
        buf = b""
        deadline = start + PHASE_TIMEOUT_S
        while self.wire_port is None:
            left = deadline - time.perf_counter()
            ready = left > 0 and select.select([self.proc.stdout], [], [], left)[0]
            chunk = os.read(self.proc.stdout.fileno(), 4096) if ready else b""
            if not chunk:
                self.stop()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-2000:])
                raise BenchError("serve did not start listening")
            buf += chunk
            for line in buf.decode(errors="replace").splitlines():
                if line.startswith("monitor listening on"):
                    self.monitor_port = int(line.rsplit(":", 1)[1])
                if line.startswith("wire listening on"):
                    self.wire_port = int(line.rsplit(":", 1)[1])
        self.setup_s = time.perf_counter() - start
        self.rss_mb = rss_mb(self.proc.pid)

    def metrics(self):
        url = "http://127.0.0.1:%d/metrics" % self.monitor_port
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.read().decode()

    def stop(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(b"quit\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def parse_prometheus(text):
    """{(name, labels): value} of a Prometheus text exposition."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        name, _, labels = series.partition("{")
        try:
            out[(name, "{" + labels if labels else "")] = float(value)
        except ValueError:
            pass
    return out


def delta(after, before):
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


def histogram_quantile(samples, name, label, q):
    """Quantile (interpolated in its bucket) of a histogram's deltas."""
    buckets = []
    for (series, labels), value in samples.items():
        if series != name + "_bucket" or label not in labels:
            continue
        le = labels.split('le="', 1)[1].split('"', 1)[0]
        buckets.append((float("inf") if le == "+Inf" else float(le), value))
    buckets.sort()
    total = buckets[-1][1] if buckets else 0.0
    if total <= 0:
        return 0.0
    rank, lower, seen = q * total, 0.0, 0.0
    for upper, cumulative in buckets:
        if cumulative >= rank and cumulative > seen:
            if upper == float("inf"):
                return lower
            return lower + (upper - lower) * (rank - seen) / (cumulative - seen)
        lower, seen = upper, cumulative
    return lower


def environment(cpus_gen, cpus_prog, serve_flags):
    model = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return {
        "nproc": os.cpu_count(), "cpu_model": model,
        "generator_cpus": cpus_gen, "program_cpus": cpus_prog,
        "build_type": "Release", "git_sha": sha,
        "source_sha256": digest.hexdigest(), "serve_flags": serve_flags,
        "flush_policy": "WAL fsync per commit (serve defaults: inline, "
                        "group-commit batch 1) on %s; sandbox latency, not "
                        "a device's" % filesystem(BUILD),
    }


def filesystem(path):
    best, fstype = "", "unknown"
    with open("/proc/self/mounts") as f:
        for line in f:
            parts = line.split()
            if len(parts) > 2 and path.startswith(parts[1]) and len(parts[1]) > len(best):
                best, fstype = parts[1], parts[2]
    return fstype


# ---------------------------------------------------------------- workloads

def wire_run(bins, workload, seed, seconds, trace, entries, rundir):
    cpus_gen, cpus_prog = cpu_sets()
    conns = min(4, os.cpu_count() or 1)
    ldif = os.path.join(rundir, "directory.ldif")
    run_json([bins["perfbench"], "gen", "--seed", str(seed), "--entries",
              str(entries), "--out", ldif], cpus_prog, PHASE_TIMEOUT_S, "gen")
    serve_log = os.path.join(rundir, "serve.log")
    setups, serve = [], None
    for i in range(1 if trace else SETUPS):
        if serve is not None:
            serve.stop()
        serve = Serve(bins["ldapbound"], ldif, os.path.join(rundir, "wal%d" % i),
                      cpus_prog, serve_log)
        setups.append((serve.setup_s, serve.rss_mb))
    try:
        before = parse_prometheus(serve.metrics())
        load = run_json(
            [bins["perfbench"], "load", "--workload", workload, "--seed",
             str(seed), "--entries", str(entries), "--port",
             str(serve.wire_port), "--server-pid", str(serve.proc.pid),
             "--conns", str(conns),
             "--seconds", str(seconds / 2 if trace else seconds)],
            cpus_gen, seconds + PHASE_TIMEOUT_S, "load")
        stages = delta(parse_prometheus(serve.metrics()), before)
    finally:
        serve.stop()
    fsync = "ldapbound_wal_fsync_ns"
    detail = {
        "entries": entries, "conns": conns, "window": load["closed"]["window"],
        "rate": load["open"]["rate"], "setups": setups, "load": load,
        "env": environment(cpus_gen, cpus_prog, serve.flags),
        # The disk under the WAL: churn's closed loop waits for it inside
        # the write mutex, so its ops_s follows this latency.
        "wal_fsync": {
            "count": stages.get((fsync + "_count", ""), 0.0),
            "p50_us": histogram_quantile(stages, fsync, "", 0.5) / 1e3,
            "p99_us": histogram_quantile(stages, fsync, "", 0.99) / 1e3,
        },
    }
    attempted, failed = load["attempted"], load["failed"]
    correct = failed == 0 and load["valid"]
    if not load["valid"]:
        log("invalid run: generator p90 lateness %.1f us > %.1f us"
            % (load["open"]["gen_late_p90_us"], load["open"]["max_late_us"]))
    if not trace:
        lat = load["open"]["latency"][HEADLINE[workload]]
        metrics = {
            "setup_s": statistics.median(s for s, _ in setups),
            "rss_mb": statistics.median(r for _, r in setups),
            "ops_s": load["closed"]["ops_s"],
            "cpu_us_per_op": load["closed"]["cpu_us_per_op"],
            "p50_us": lat["p50_us"],
        }
        return correct, attempted, failed, metrics, detail

    wal = os.path.join(rundir, "replay-wal")
    trace_file = os.path.join(rundir, "trace.json")
    replay = run_json(
        [bins["perfbench"], "replay", "--workload", workload, "--seed",
         str(seed), "--entries", str(entries), "--conns", str(conns),
         "--seconds", str(seconds / 2), "--schema", SCHEMA, "--ldif", ldif,
         "--wal-dir", wal, "--trace-out", trace_file],
        cpus_prog, seconds + PHASE_TIMEOUT_S, "replay")
    detail["replay"] = replay
    attempted += replay["attempted"]
    failed += replay["failed"]
    per_op = mix_weighted(replay, load["closed"]["mix"])
    detail["replay_per_op"] = per_op
    metrics = layer_metrics(per_op, replay, load, stages)
    detail["ledger"] = ledger_table(workload, metrics, per_op, replay)
    return failed == 0 and load["valid"], attempted, failed, metrics, detail


def mix_weighted(replay, mix):
    """Per-op self times of each span: the replay's times per op of each
    kind, weighted by `mix`, the op kinds the closed-loop phase completed.
    So the layers are summed over the same ops the server's CPU was."""
    total = sum(mix.values())
    if total == 0:
        raise BenchError("the closed loop completed no op")
    out = {}
    for kind, n in mix.items():
        if n == 0:
            continue
        per_kind = replay["per_kind"][kind]
        if per_kind["ops"] == 0:
            raise BenchError("the replay traced no %s op" % kind)
        for span, t in per_kind["spans"].items():
            acc = out.setdefault(span, {"calls": 0.0, "wall_ns": 0.0, "cpu_ns": 0.0})
            for key in acc:
                acc[key] += t[key] * n / total
    return out


def layer_metrics(per_op, replay, load, stages):
    m = {name: 0.0 for name in PER_LAYER}
    for metric, span in REPLAY_NS.items():
        m[metric] = per_op.get(span, {}).get("cpu_ns", 0.0)
    m["server.wal.append_wall_ns"] = per_op.get("server.wal.append", {}).get("wall_ns", 0.0)
    m["server.commit_residual_ns"] = (
        m["server.add_ns"] + m["server.delete_ns"] - sum(m[p] for p in COMMIT_PARTS))
    counts = replay["counts"]
    m["wire.response_bytes"] = counts["response_bytes_per_op"]
    m["query.list_scanned_per_hit"] = counts["list_scanned_per_hit"]
    m["query.page_scanned_per_hit"] = counts["page_scanned_per_hit"]
    m["server.wal.bytes_per_write"] = counts["wal_bytes_per_write"]
    for metric, (span, clock) in SETUP_MS.items():
        m[metric] = replay["setup"].get(span, {}).get(clock + "_ms", 0.0)
    fsyncs = stages.get(("ldapbound_wal_fsync_ns_count", ""), 0.0)
    frames = stages.get(("ldapbound_wal_frames_appended_total", ""), 0.0)
    m["server.group_commit.writes_per_fsync"] = frames / fsyncs if fsyncs else 0.0
    stage = "ldapbound_wire_stage_ns"
    m["server.commit_wait_p50_us"] = histogram_quantile(stages, stage, 'stage="commit_wait"', 0.5) / 1e3
    m["net.queue_wait_p50_us"] = histogram_quantile(stages, stage, 'stage="queue_wait"', 0.5) / 1e3
    m["net.queue_wait_p99_us"] = histogram_quantile(stages, stage, 'stage="queue_wait"', 0.99) / 1e3
    m["net.flush_p99_us"] = histogram_quantile(stages, stage, 'stage="write_back"', 0.99) / 1e3
    m["ledger.cpu_us_per_op"] = load["closed"]["cpu_us_per_op"]
    m["ledger.layers_us_per_op"] = sum(m[r] for r in LEDGER_ROWS) / 1e3
    m["ledger.residual_us_per_op"] = m["ledger.cpu_us_per_op"] - m["ledger.layers_us_per_op"]
    m["bench.gen_late_p99_us"] = load["open"]["gen_late_p99_us"]
    ops = replay["op_ns"]
    m["bench.trace_overhead_pct"] = (
        100.0 * (ops["traced"] - ops["untraced"]) / ops["untraced"]
        if ops["untraced"] else 0.0)
    return m


def ledger_table(workload, m, per_op, replay):
    """The ROADMAP item 2 ledger: ns/op by layer vs end-to-end CPU/op."""
    cpu_ns = m["ledger.cpu_us_per_op"] * 1e3
    lines = ["### %s: CPU per op by layer (traced replay, weighted by the "
             "closed loop's op mix) vs server CPU per op (closed loop)" % workload,
             "",
             "| layer | calls/op | CPU ns/op | share |",
             "|---|---:|---:|---:|"]
    for row in LEDGER_ROWS:
        span = REPLAY_NS.get(row)
        calls = "%.3f" % per_op.get(span, {}).get("calls", 0.0) if span else "-"
        lines.append("| %s | %s | %.1f | %.1f%% |" % (
            row, calls, m[row],
            100.0 * m[row] / cpu_ns if cpu_ns else 0.0))
    lines += [
        "| **layers total** | | %.1f | %.1f%% |" % (
            m["ledger.layers_us_per_op"] * 1e3,
            100.0 * m["ledger.layers_us_per_op"] * 1e3 / cpu_ns if cpu_ns else 0.0),
        "| **residual (unattributed)** | | %.1f | %.1f%% |" % (
            m["ledger.residual_us_per_op"] * 1e3,
            100.0 * m["ledger.residual_us_per_op"] * 1e3 / cpu_ns if cpu_ns else 0.0),
        "| **server cpu_us_per_op** | | %.1f | 100.0%% |" % cpu_ns,
        ""]
    if m["ledger.residual_us_per_op"] < 0:
        lines += ["The residual is negative: the layers took more CPU in the "
                  "replay than the server spent per op in the closed loop "
                  "(the host's speed moved between the two).", ""]
    lines += [
        "Tracing overhead: %.1f%% of a replayed op (traced %.0f ns vs "
        "untraced %.0f ns per op). Not in any row: the replay loop itself "
        "(span `op` self time, %.0f ns/op)." % (
            m["bench.trace_overhead_pct"], replay["op_ns"]["traced"],
            replay["op_ns"]["untraced"],
            per_op.get("op", {}).get("cpu_ns", 0.0))]
    return "\n".join(lines)


def bulk_run(bins, seed, seconds, trace, entries, rundir):
    cpus = sorted(os.sched_getaffinity(0))
    ldif = os.path.join(rundir, "export.ldif")
    run_json([bins["perfbench"], "gen", "--seed", str(seed), "--entries",
              str(entries), "--plant", "1", "--out", ldif], cpus,
             PHASE_TIMEOUT_S, "gen")
    base = [bins["perfbench"], "bulk", "--schema", SCHEMA, "--ldif", ldif,
            "--seed", str(seed), "--entries", str(entries)]
    setups = []
    if not trace:
        for _ in range(SETUPS - 1):
            s = run_json(base + ["--setup-only", "1"], cpus, PHASE_TIMEOUT_S,
                         "bulk set-up")
            setups.append((s["setup_s"], s["rss_mb"]))
    trace_file = os.path.join(rundir, "trace.json")
    res = run_json(base + ["--seconds", str(seconds), "--trace", str(trace),
                           "--trace-out", trace_file],
                   cpus, seconds + PHASE_TIMEOUT_S, "bulk")
    setups.append((res["setup_s"], res["rss_mb"]))
    detail = {"entries": entries, "setups": setups, "bulk": res,
              "env": environment([], cpus, [])}
    correct = res["failed"] == 0
    if not trace:
        metrics = {
            "setup_s": statistics.median(s for s, _ in setups),
            "rss_mb": statistics.median(r for _, r in setups),
            "ops_s": res["ops_s"], "cpu_us_per_op": res["cpu_us_per_op"],
            "p50_us": res["p50_us"],
        }
        return correct, res["attempted"], res["failed"], metrics, detail
    m = {name: 0.0 for name in PER_LAYER}
    spans = res["spans"]
    for metric, (span, clock) in SETUP_MS.items():
        m[metric] = spans.get(span, {}).get(clock + "_ms", 0.0)
    m["core.violations"] = float(res["violations"])
    # The bulk ledger: the traced checks' CPU per entry vs their passes'.
    m["ledger.cpu_us_per_op"] = res["traced_cpu_us_per_op"]
    m["ledger.layers_us_per_op"] = sum(
        spans.get(p, {}).get("cpu_ms", 0.0)
        for p in ("core.content", "core.structure", "core.keys")) * 1e3 / entries
    m["ledger.residual_us_per_op"] = m["ledger.cpu_us_per_op"] - m["ledger.layers_us_per_op"]
    m["bench.trace_overhead_pct"] = res["trace_overhead_pct"]
    detail["ledger"] = "\n".join([
        "### bulk_check: CPU per entry of one full check, by pass", "",
        "| pass | wall ms | CPU ms | CPU us/entry |", "|---|---:|---:|---:|"] + [
        "| %s | %.2f | %.2f | %.4f |" % (
            p, spans.get(p, {}).get("wall_ms", 0.0), spans.get(p, {}).get("cpu_ms", 0.0),
            spans.get(p, {}).get("cpu_ms", 0.0) * 1e3 / entries)
        for p in ("core.content", "core.structure", "core.keys")] + [
        "| **passes total** | | | %.4f |" % m["ledger.layers_us_per_op"],
        "| **residual** | | | %.4f |" % m["ledger.residual_us_per_op"],
        "| **traced checks' CPU us/entry** | | | %.4f |" % m["ledger.cpu_us_per_op"],
        "", "Tracing overhead: %.2f%% of a check." % m["bench.trace_overhead_pct"]])
    return correct, res["attempted"], res["failed"], m, detail


def run(bins, workload, seed, seconds, trace, entries=None):
    entries = entries or ENTRIES[workload]
    rundir = os.path.join(BUILD, "run", "%s-s%d-t%d-%d" % (workload, seed, trace, os.getpid()))
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    try:
        if workload == "bulk_check":
            result = bulk_run(bins, seed, seconds, trace, entries, rundir)
        else:
            result = wire_run(bins, workload, seed, seconds, trace, entries, rundir)
        results = os.path.join(BUILD, "results")
        os.makedirs(results, exist_ok=True)
        if trace and os.path.exists(os.path.join(rundir, "trace.json")):
            shutil.move(os.path.join(rundir, "trace.json"),
                        os.path.join(results, "%s-s%d-trace.json" % (workload, seed)))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    correct, attempted, failed, metrics, detail = result
    detail.update({"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": trace, "metrics": metrics})
    with open(os.path.join(results, "%s-s%d-t%d.json" % (workload, seed, trace)), "w") as f:
        json.dump(detail, f, indent=1)
    return correct, attempted, failed, metrics, detail


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def self_test(bins):
    """Each workload briefly, small, traced and untraced: every output check
    must pass, and each ledger must leave a residual between 0 and the
    measured CPU per op (layers and CPU are measured in different runs, so
    this can fail)."""
    ok = True
    small = {"lookup": 10000, "churn": 10000, "bulk_check": 20000}
    for workload in WORKLOADS:
        for trace in (0, 1):
            correct, attempted, failed, m, detail = run(
                bins, workload, 1, 2.0, trace, small[workload])
            checks = [("outputs correct", correct and failed == 0 and attempted > 0)]
            if trace:
                cpu = m["ledger.cpu_us_per_op"]
                residual = m["ledger.residual_us_per_op"]
                checks.append(("layers measured", m["ledger.layers_us_per_op"] > 0))
                checks.append(("0 <= residual <= cpu_us_per_op (residual %.3f us, "
                               "%.1f%% of %.3f us)" % (
                                   residual, 100.0 * residual / cpu if cpu else 0.0, cpu),
                               0 <= residual <= cpu))
                if workload == "churn":
                    checks.append(("server.commit_residual_ns >= 0 (%.1f ns)"
                                   % m["server.commit_residual_ns"],
                                   m["server.commit_residual_ns"] >= 0))
            for name, passed in checks:
                print("%-4s %s trace=%d: %s" % ("PASS" if passed else "FAIL",
                                               workload, trace, name))
                ok = ok and passed
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: %s is not an ldapbound checkout (no CMakeLists.txt "
            "and src/)" % ROOT)
        return 2
    try:
        bins = build()
        if args.self_test:
            return 0 if self_test(bins) else 1
        correct, attempted, failed, metrics, detail = run(
            bins, args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log("perfbench: %s" % e)
        return 1
    if "ledger" in detail:
        print(detail["ledger"])
    if "load" in detail:
        print("open-loop latency by op (us): " + json.dumps(
            detail["load"]["open"]["latency"], sort_keys=True))
    print("environment: " + json.dumps(detail["env"], sort_keys=True))
    units = PER_LAYER if args.trace else END_TO_END
    print(result_line(correct, attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
