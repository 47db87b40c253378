#!/usr/bin/env python3
"""XSER benchmark: the paper campaign through the user-facing entry
points, with an output-correctness gate and a traced per-layer run.

    python3 perfbench/run.py --workload paper_serial --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root. The first run builds the library, the
four binaries and perfbench_probe into $CARGO_TARGET_DIR (default
.bench_build) in Release mode. --trace 0 prints the end-to-end metrics
of BENCHMARK.json, --trace 1 the per-layer ones; human-readable lines
come first and the last stdout line is one JSON object. The exit code
is nonzero when any output check fails. See perfbench/README.md.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib as bl  # noqa: E402

ROOT = os.path.dirname(HERE)
SCALE = 0.001
SESSIONS = 4
WORKERS = 2
SETUP_SAMPLES = 2
PROCESS_TIMEOUT = 150
WORKLOADS = {
    "paper_serial": {"jobs": 1, "replicates": 1, "service": False},
    "paper_fanout": {"jobs": WORKERS, "replicates": 4, "service": False},
    "paper_service": {"jobs": WORKERS, "replicates": 4, "service": True},
}
BINARIES = {"xser": "xser/xser", "server": "xser/xser-server",
            "worker": "xser/xser-worker", "client": "xser/xser-client",
            "probe": "perfbench_probe"}
TARGETS = ["xser_cli", "xser_server", "xser_worker", "xser_client",
           "perfbench_probe"]


def log(text=""):
    print(text, flush=True)


class Failure(Exception):
    """A condition that ends the run without a result line."""


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout()


class Processes:
    """Every child the run starts, so each is stopped and reaped."""

    def __init__(self):
        self.live = {}

    def spawn(self, argv, cwd, stdout=subprocess.DEVNULL,
              stderr=subprocess.DEVNULL):
        proc = subprocess.Popen([str(a) for a in argv], cwd=cwd,
                                stdout=stdout, stderr=stderr)
        self.live[proc.pid] = proc
        return proc

    def wait(self, proc, timeout=PROCESS_TIMEOUT):
        """Reap `proc`: (ok, rusage, end time). Kills it on timeout."""
        signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except Timeout:
            self.signal(proc, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        del self.live[proc.pid]
        return proc.returncode == 0, usage, end

    def signal(self, proc, signum=signal.SIGTERM):
        # os.kill, not Popen.send_signal: the latter polls first, which
        # can reap the child before wait() collects its rusage.
        try:
            os.kill(proc.pid, signum)
        except ProcessLookupError:
            pass

    def stop_all(self):
        for proc in list(self.live.values()):
            self.signal(proc)
        for proc in list(self.live.values()):
            try:
                self.wait(proc, timeout=10)
            except ChildProcessError:
                self.live.pop(proc.pid, None)


def cpu_of(usage):
    return usage.ru_utime + usage.ru_stime


def self_cpu():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return cpu_of(usage)


def read(path, mode="r"):
    with open(path, mode) as f:
        return f.read()


def wait_for(predicate, what, timeout=20.0, step=0.001):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise Failure("timed out waiting for " + what)
        time.sleep(step)


def socket_count(pid):
    """Sockets the process holds: its listener plus accepted peers."""
    fd_dir = "/proc/%d/fd" % pid
    count = 0
    try:
        fds = os.listdir(fd_dir)
    except OSError:
        return 0
    for fd in fds:
        try:
            if os.readlink(os.path.join(fd_dir, fd)).startswith("socket:"):
                count += 1
        except OSError:
            pass
    return count


class Bench:
    def __init__(self, args):
        self.args = args
        self.shape = WORKLOADS[args.workload]
        self.units = SESSIONS * self.shape["replicates"]
        self.build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                       ".bench_build"))
        self.procs = Processes()
        self.gate = bl.Gate()
        self.first_digest = None
        self.rundir = os.path.join(self.build, "runs", "%s-s%d-%d" % (
            args.workload, args.seed, os.getpid()))
        self.spec = json.loads(read(os.path.join(ROOT, "BENCHMARK.json")))
        self.pins = json.loads(read(os.path.join(HERE, "pins.json")))

    def bin(self, name):
        return os.path.join(self.build, BINARIES[name])

    # ---- build and provenance ----------------------------------------

    def ensure_built(self):
        if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
            raise Failure("no xser sources next to perfbench/; run from a "
                          "repository checkout")
        os.makedirs(self.build, exist_ok=True)
        build_log = os.path.join(self.build, "perfbench-build.log")
        with open(build_log, "w") as out:
            if not os.path.exists(os.path.join(self.build,
                                               "CMakeCache.txt")):
                generator = ["-G", "Ninja"] if shutil.which("ninja") else []
                self._step(["cmake", "-S", HERE, "-B", self.build,
                            "-DCMAKE_BUILD_TYPE=Release"] + generator,
                           out, build_log)
            jobs = str(min(4, len(os.sched_getaffinity(0))))
            self._step(["cmake", "--build", self.build, "-j", jobs,
                        "--target"] + TARGETS, out, build_log)

    def _step(self, argv, out, build_log):
        # The compiler's temporary files stay inside the build directory.
        tmp = os.path.join(self.build, "tmp")
        os.makedirs(tmp, exist_ok=True)
        if subprocess.run(argv, stdout=out, stderr=subprocess.STDOUT,
                          env=dict(os.environ, TMPDIR=tmp),
                          timeout=840).returncode != 0:
            sys.stderr.write(read(build_log)[-4000:])
            raise Failure("build failed: " + " ".join(argv))

    def stamp(self):
        cache = bl.read_cmake_cache(os.path.join(self.build,
                                                 "CMakeCache.txt"))
        compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
        version = subprocess.run([compiler, "--version"],
                                 capture_output=True, text=True)
        stamp = bl.build_stamp(cache, version.stdout.split("\n")[0])
        stamp.update(bl.host_stamp(ROOT))
        reason = bl.refuse_reason(stamp)
        if reason:
            raise Failure("refusing to report timings: " + reason)
        return stamp

    # ---- one campaign ------------------------------------------------

    def fresh_dir(self, name):
        path = os.path.join(self.rundir, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def cli_campaign(self, seed, cwd):
        """`xser campaign`, checkpoint on, telemetry and trace off."""
        cpu0 = self_cpu()
        start = time.monotonic()
        with open(os.path.join(cwd, "report.txt"), "w") as report:
            proc = self.procs.spawn(
                [self.bin("xser"), "campaign", "--scale", SCALE, "--seed",
                 seed, "--jobs", self.shape["jobs"], "--replicates",
                 self.shape["replicates"], "--csv", "results.csv",
                 "--quiet"], cwd, stdout=report)
            ok, usage, end = self.procs.wait(proc)
        artifacts = {}
        if ok:
            artifacts = {"report.txt": read(os.path.join(cwd, "report.txt")),
                         "results.csv": read(os.path.join(cwd,
                                                          "results.csv"))}
        return {"ok": ok, "wall": end - start,
                "cpu": cpu_of(usage) + self_cpu() - cpu0,
                "rss_mb": usage.ru_maxrss / 1024.0, "requeued": 0,
                "artifacts": artifacts}

    def start_service(self, cwd):
        """xser-server plus WORKERS workers, each handshaken."""
        with open(os.path.join(cwd, "server.log"), "w") as server_log:
            server = self.procs.spawn(
                [self.bin("server"), "--port", 0, "--port-file",
                 "port.txt", "--max-campaigns", 1], cwd, stderr=server_log)
        port_file = os.path.join(cwd, "port.txt")
        wait_for(lambda: os.path.exists(port_file) and
                 read(port_file).strip(), "the server's port")
        port = read(port_file).strip()
        workers = [self.procs.spawn([self.bin("worker"), "--port", port],
                                    cwd)
                   for _ in range(WORKERS)]
        wait_for(lambda: socket_count(server.pid) >= 1 + WORKERS,
                 "workers to connect")
        return server, workers, port

    def service_campaign(self, seed, cwd, spans=None):
        """The campaign through xser-server, two workers, one client."""
        cpu0 = self_cpu()
        start = time.monotonic()
        server, workers, port = self.start_service(cwd)
        ready = time.monotonic()
        with open(os.path.join(cwd, "report.txt"), "w") as report:
            client = self.procs.spawn(
                [self.bin("client"), "run", "--port", port, "--scale",
                 SCALE, "--seed", seed, "--replicates",
                 self.shape["replicates"], "--trace", "trace.xtrace",
                 "--metrics", "manifest.json"], cwd, stdout=report)
            ok, usage, end = self.procs.wait(client)
        roles = {"client": cpu_of(usage)}
        rss = [usage.ru_maxrss]
        server_ok, usage, _ = self.procs.wait(server)
        roles["server"] = cpu_of(usage)
        rss.append(usage.ru_maxrss)
        roles["worker"] = 0.0
        for worker in workers:
            _, usage, _ = self.procs.wait(worker)
            roles["worker"] += cpu_of(usage)
            rss.append(usage.ru_maxrss)
        ok = ok and server_ok
        if spans is not None:
            for sid, name, begin, finish in (
                    (0, "bench.campaign", start, end),
                    (1, "service.startup", start, ready),
                    (2, "service.run", ready, end)):
                spans.append({"name": name, "start": int(begin * 1e9),
                              "end": int(finish * 1e9), "id": sid,
                              "parent": -1 if sid == 0 else 0, "unit": -1,
                              "lane": 0})
        artifacts = {}
        if ok:
            artifacts = {
                "report.txt": read(os.path.join(cwd, "report.txt")),
                "trace.xtrace": read(os.path.join(cwd, "trace.xtrace"),
                                     "rb"),
                "manifest.json": read(os.path.join(cwd, "manifest.json"))}
        requeued = read(os.path.join(cwd, "server.log")).count("requeueing")
        return {"ok": ok, "wall": end - start,
                "cpu": sum(roles.values()) + self_cpu() - cpu0,
                "rss_mb": sum(rss) / 1024.0, "requeued": requeued,
                "roles": roles, "startup": ready - start,
                "run": end - ready, "artifacts": artifacts}

    def campaign(self, seed, name):
        cwd = self.fresh_dir(name)
        load = os.getloadavg()
        if self.shape["service"]:
            sample = self.service_campaign(seed, cwd)
        else:
            sample = self.cli_campaign(seed, cwd)
        sample["loadavg"] = [load, os.getloadavg()]
        self.check(sample, seed, "untraced campaign")
        return sample

    # ---- output checks -----------------------------------------------

    def check(self, sample, seed, label, reference=None, extra=()):
        """Gate one campaign: clean exit, the pinned digest, the same
        digest as this run's first campaign (or `reference`), and equal
        aggregates to the other replicated workload for this seed."""
        problems = list(extra)
        if not sample["ok"]:
            problems.append(label + ": a process exited with an error")
        else:
            got = bl.digest(sample["artifacts"])
            sample["digest"] = got
            pin = self.pins.get(self.args.workload, {}).get(str(seed))
            problems.append(bl.mismatch(label + " vs pin", got, pin))
            if reference is None:
                reference = self.first_digest
                self.first_digest = self.first_digest or got
            problems.append(bl.mismatch(label + " vs first campaign", got,
                                        reference))
            problems.append(self.cross_check(sample, seed, label))
        self.gate.add(self.units, problems, sample.get("requeued", 0))

    def cross_check(self, sample, seed, label):
        """paper_fanout and paper_service run the same campaign, so their
        reports (aggregates) must agree; the digest of whichever ran
        first with this seed is kept in the build directory."""
        if self.shape["replicates"] == 1:
            return None
        report = bl.strip_trace_line(sample["artifacts"]["report.txt"])
        got = bl.digest({"report.txt": report})
        path = os.path.join(self.build, "aggregate-digests.json")
        known = json.loads(read(path)) if os.path.exists(path) else {}
        key = "scale=%g replicates=%d seed=%d" % (
            SCALE, self.shape["replicates"], seed)
        entry = known.setdefault(key, {})
        entry[self.args.workload] = got
        bl.write_record(path, known)
        others = [v for k, v in entry.items() if k != self.args.workload]
        return bl.mismatch(label + " aggregates vs other workload", got,
                           others[0] if others else None)

    # ---- set-up ------------------------------------------------------

    def prefix_phase(self, seed, jobs):
        """perfbench_probe setup: the campaign's phase 1 (every golden
        prefix sealed) in a fresh process; seconds until it is ready."""
        start = time.monotonic()
        proc = self.procs.spawn([self.bin("probe"), "setup", "--scale",
                                 SCALE, "--seed", seed, "--jobs", jobs],
                                ROOT, stdout=subprocess.PIPE, stderr=None)
        line = proc.stdout.readline().decode()
        ready = time.monotonic()
        ok, _, _ = self.procs.wait(proc)
        proc.stdout.close()
        if not ok or not line.startswith("ready"):
            raise Failure("setup probe failed")
        return ready - start

    def setup_sample(self, seed):
        """Seconds from the workload's start until its first seed-
        dependent continuation could begin."""
        if not self.shape["service"]:
            return self.prefix_phase(seed, self.shape["jobs"])
        cwd = self.fresh_dir("setup")
        start = time.monotonic()
        server, workers, _ = self.start_service(cwd)
        handshake = time.monotonic() - start
        for proc in [server] + workers:
            self.procs.signal(proc)
        for proc in [server] + workers:
            self.procs.wait(proc)
        return handshake + self.prefix_phase(seed, WORKERS)

    # ---- the two kinds of run ----------------------------------------

    def untraced(self):
        seed, seconds = self.args.seed, self.args.seconds
        setups, campaigns = [], []
        start = time.monotonic()
        # Set-up, campaign, set-up; then another campaign and set-up
        # while the pair still fits in --seconds.
        while True:
            setups.append(self.setup_sample(seed))
            if len(setups) >= SETUP_SAMPLES:
                pair = campaigns[-1]["wall"] + setups[-1]
                if time.monotonic() - start + pair > seconds:
                    break
            campaigns.append(self.campaign(seed, "campaign"))
        samples = {
            "setup_s": setups,
            "campaign_s": [c["wall"] for c in campaigns],
            "units_per_cpu_s": [self.units / c["cpu"] for c in campaigns],
            "peak_rss_mb": [c["rss_mb"] for c in campaigns],
        }
        metrics, notes = {}, {}
        for name, values in samples.items():
            s = bl.summarize(values)
            metrics[name] = s["median"]
            tail = "" if s["tail"] is None else ", p%g %.6g" % s["tail"]
            notes[name] = "  (median of n=%d%s)" % (s["n"], tail)
        for c in campaigns:
            log("  campaign digest  %s  loadavg %.2f -> %.2f" % (
                c.get("digest", "-"), c["loadavg"][0][0],
                c["loadavg"][1][0]))
        log("  %-34s %.4f (%d of %d units)" % (
            "failed_frac", self.gate.failed_frac, self.gate.failed,
            self.gate.attempted))
        return metrics, notes, {"setup_s": setups, "campaigns": [
            {k: v for k, v in c.items() if k != "artifacts"}
            for c in campaigns]}

    def traced(self):
        seed = self.args.seed
        untraced = self.campaign(seed, "untraced")
        cwd = self.fresh_dir("traced")
        metrics = {}
        if self.shape["service"]:
            spans = []
            load = os.getloadavg()
            traced = self.service_campaign(seed, cwd, spans)
            traced["loadavg"] = [load, os.getloadavg()]
            manifest = traced["artifacts"].get("manifest.json")
        else:
            traced = self.probe_traced(seed, cwd)
            manifest = traced.pop("manifest", None)
            spans = traced.pop("spans", [])
        extra = []
        if manifest is not None and not self.shape["service"]:
            got = bl.digest({"manifest.json": manifest})
            log("  manifest digest  %s" % got)
            pin = self.pins.get(self.args.workload + ".manifest",
                                {}).get(str(seed))
            extra.append(bl.mismatch("traced manifest vs pin", got, pin))
        self.check(traced, seed, "traced campaign",
                   reference=untraced.get("digest"), extra=extra)
        if not traced["ok"] or manifest is None:
            raise Failure("traced campaign failed")
        log("  campaign digest  untraced %s" % untraced.get("digest"))
        log("  campaign digest  traced   %s" % traced.get("digest"))

        by_name, by_layer, coverage, worst = bl.attribution(spans)
        total = sum(by_layer.values())
        root = next(s for s in spans if s["parent"] == -1)
        traced_s = (root["end"] - root["start"]) * 1e-9
        log("  layer self time (share of traced lane time):")
        for name in sorted(by_name, key=lambda n: -by_name[n]):
            log("    %-24s %9.4f s  %5.1f%%" % (
                name, by_name[name] * 1e-9, 100.0 * by_name[name] / total))
        log("  attributed to module spans: %.1f%%" % (100.0 * coverage))
        if coverage < 0.9:
            log("  WARNING: under 90%% attributed; the remainder is "
                "mostly in %s (%.4f s)" % (worst[0], worst[1] * 1e-9))

        doc = json.loads(manifest)
        counters = doc["counters"]
        timing = doc["timing"]
        phases = timing["phase_seconds"]
        probes = json.loads(self.probe_json(["layers", "--seed", seed]))
        metrics.update(probes)
        metrics["core.checkpoint_sealed_bytes"] = \
            counters["checkpoint_sealed_bytes"]
        metrics["core.checkpoint_opens_per_seal"] = (
            counters["checkpoints_opened"] / counters["checkpoints_sealed"])
        metrics["core.units"] = counters["units_completed"]
        metrics["mem.snoop_probes"] = counters["snoop_probes"]
        metrics["mem.snoop_filtered_frac"] = (
            counters["snoops_filtered"] / counters["snoop_probes"])
        metrics["mem.scrub_lines"] = counters["scrub_lines"]
        metrics["mem.edac_ce"] = counters["edac_corrected"]
        metrics["mem.edac_ue"] = counters["edac_uncorrected"]
        metrics["rad.beam_arrivals"] = counters["beam_arrivals"]
        metrics["rad.beam_settles"] = counters["beam_settles"]
        skipped = counters["beam_quanta_skipped"]
        metrics["rad.quanta_skipped_frac"] = skipped / (
            skipped + counters["beam_settles"])

        service_only = {}
        if self.shape["service"]:
            # The work runs inside the worker processes, out of reach of
            # outside spans: the core numbers come from the manifest's
            # phase timers (summed over workers) and busy time.
            busy = sum(w["busy_seconds"] for w in timing["workers"])
            run_s = traced["run"]
            for key, phase in (("prefix_s", "prefix_run"),
                               ("snapshot_encode_s", "snapshot_encode"),
                               ("snapshot_restore_s", "snapshot_restore"),
                               ("continuation_s", "continuation"),
                               ("merge_s", "merge")):
                metrics["core." + key] = phases[phase]
            metrics["core.unit_s_p50"] = busy / counters["units_completed"]
            metrics["core.pool_busy_frac"] = busy / (WORKERS * run_s)
            metrics["core.tail_idle_s"] = WORKERS * run_s - busy
            roles = traced["roles"]
            service_only = {
                "service.startup_s": (traced["startup"], "s"),
                "service.server_cpu_s": (roles["server"], "s"),
                "service.client_cpu_s": (roles["client"], "s"),
                "service.worker_cpu_s": (roles["worker"], "s"),
                "service.worker_busy_frac": (busy / (WORKERS * run_s),
                                             "frac"),
                "service.artifact_bytes": (sum(
                    len(v) for v in traced["artifacts"].values()), "bytes"),
                "trace.events": (counters["trace_events_merged"], "count"),
                "trace.bytes": (len(traced["artifacts"]["trace.xtrace"]),
                                "bytes"),
                "trace.write_s": (phases["trace_write"], "s"),
            }
            for name, (value, unit) in service_only.items():
                log("  %-28s %.6g %s" % (name, value, unit))
            log("  core phase shares of worker capacity (workers x run):")
            for phase, seconds in phases.items():
                log("    %-24s %5.1f%%" % (
                    phase, 100.0 * seconds / (WORKERS * run_s)))
        else:
            for key in ("prefix", "snapshot_encode", "snapshot_restore",
                        "continuation", "merge"):
                metrics["core.%s_s" % key] = by_name.get("core." + key,
                                                         0) * 1e-9
            units = [s["end"] - s["start"] for s in spans
                     if s["name"] == "bench.unit"]
            metrics["core.unit_s_p50"] = bl.median(units) * 1e-9
            busy_frac, tail = bl.pool_stats(spans)
            metrics["core.pool_busy_frac"] = busy_frac
            metrics["core.tail_idle_s"] = tail
        metrics["bench.traced_campaign_s"] = traced["wall"]
        metrics["bench.tracing_overhead_s"] = traced["wall"] - untraced["wall"]
        metrics["bench.attributed_frac"] = coverage
        log("  traced campaign_s %.4f, untraced %.4f, overhead %.4f s "
            "(root span %.4f s)" % (traced["wall"], untraced["wall"],
                                    traced["wall"] - untraced["wall"],
                                    traced_s))
        return metrics, {}, {
            "spans": len(spans), "untraced_campaign_s": untraced["wall"],
            "span_self_s": {k: v * 1e-9 for k, v in by_name.items()},
            "manifest_phase_s": phases, "service_only": service_only}

    def probe_json(self, argv):
        proc = self.procs.spawn([self.bin("probe")] + argv, ROOT,
                                stdout=subprocess.PIPE, stderr=None)
        out = proc.stdout.read()
        ok, _, _ = self.procs.wait(proc)
        proc.stdout.close()
        if not ok:
            raise Failure("perfbench_probe %s failed" % argv[0])
        return out.decode()

    def probe_traced(self, seed, cwd):
        cpu0 = self_cpu()
        load = os.getloadavg()
        start = time.monotonic()
        proc = self.procs.spawn(
            [self.bin("probe"), "traced", "--scale", SCALE, "--seed", seed,
             "--jobs", self.shape["jobs"], "--replicates",
             self.shape["replicates"], "--dir", cwd], ROOT, stderr=None)
        ok, usage, end = self.procs.wait(proc)
        sample = {"ok": ok, "wall": end - start,
                  "cpu": cpu_of(usage) + self_cpu() - cpu0,
                  "rss_mb": usage.ru_maxrss / 1024.0, "requeued": 0,
                  "loadavg": [load, os.getloadavg()], "artifacts": {}}
        if ok:
            sample["artifacts"] = {
                "report.txt": read(os.path.join(cwd, "report.txt")),
                "results.csv": read(os.path.join(cwd, "results.csv"))}
            sample["manifest"] = read(os.path.join(cwd, "manifest.json"))
            sample["spans"] = json.loads(read(os.path.join(
                cwd, "spans.json")))["spans"]
        return sample

    # ---- driver ------------------------------------------------------

    def run(self):
        self.ensure_built()
        stamp = self.stamp()
        stamp["loadavg"] = {"before": os.getloadavg()}
        os.makedirs(self.rundir, exist_ok=True)
        log("xser benchmark: workload %s, seed %d, scale %g, %d session(s) "
            "x %d replicate(s), trace %d" % (
                self.args.workload, self.args.seed, SCALE, SESSIONS,
                self.shape["replicates"], self.args.trace))
        log("  built %s (%s) %s [%s], sanitizer %s, nproc %d, git %s" % (
            stamp["build_type"], stamp["flags"], stamp["compiler"],
            stamp["compiler_version"], stamp["sanitizer"], stamp["nproc"],
            stamp["git_describe"]))
        if self.args.trace:
            values, notes, detail = self.traced()
            wanted = self.spec["per_layer"]
        else:
            values, notes, detail = self.untraced()
            wanted = self.spec["end_to_end"]
        stamp["loadavg"]["after"] = os.getloadavg()
        metrics = {}
        for entry in wanted:
            name = entry["name"]
            metrics[name] = (values[name], entry["unit"])
            log("  %-34s %.6g %s%s" % (name, values[name], entry["unit"],
                                       notes.get(name, "")))
        for reason in self.gate.reasons:
            log("  MISMATCH: " + reason)
        records = os.path.join(self.build, "records")
        os.makedirs(records, exist_ok=True)
        bl.write_record(os.path.join(records, "%s-seed%d-trace%d.json" % (
            self.args.workload, self.args.seed, self.args.trace)), {
                "stamp": stamp, "workload": self.args.workload,
                "seed": self.args.seed, "scale": SCALE,
                "metrics": {k: {"value": v, "unit": u}
                            for k, (v, u) in metrics.items()},
                "attempted": self.gate.attempted,
                "failed": self.gate.failed, "reasons": self.gate.reasons,
                "detail": detail})
        log(bl.result_line(self.gate, metrics))
        return 0 if self.gate.failed == 0 else 1


def run_all(args):
    """Every workload, untraced then traced, each in its own process;
    nonzero when any of them is."""
    failed = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload",
                    workload, "--seed", str(args.seed), "--seconds",
                    str(args.seconds), "--trace", str(trace)]
            proc = subprocess.Popen(argv)
            try:
                if proc.wait() != 0:
                    failed.append("%s --trace %d" % (workload, trace))
            except BaseException:
                proc.terminate()
                proc.wait()
                raise
    log("all workloads: " + ("FAILED " + ", ".join(failed) if failed
                             else "correct"))
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds through the finally clauses, so every child is
    # stopped and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if args.workload == "all":
        return run_all(args)
    bench = Bench(args)
    try:
        return bench.run()
    except Failure as failure:
        sys.stderr.write("perfbench: %s\n" % failure)
        return 2
    finally:
        bench.procs.stop_all()
        shutil.rmtree(bench.rundir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
