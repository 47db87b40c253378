"""Pure helpers of the XSER benchmark: statistics, span self-time
arithmetic, result digests, failure accounting and the provenance
stamp. run.py does the process work; everything here is a function of
its arguments so test_benchlib.py can check it without a build."""

import hashlib
import json
import os
import platform
import re
import subprocess
from collections import defaultdict


# ---- statistics ------------------------------------------------------

def median(values):
    """Median of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def percentile(values, pct):
    """Linear-interpolated percentile (0-100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(values, min_beyond=10):
    """The highest of p90/p99/p99.9 that has at least `min_beyond`
    samples above it, as (pct, value); None when the sample is too
    small for even p90."""
    best = None
    for pct in (90.0, 99.0, 99.9):
        beyond = len(values) * (100.0 - pct) / 100.0
        if beyond + 1e-9 >= min_beyond:
            best = (pct, percentile(values, pct))
    return best


def summarize(values):
    """Median, sample count and the supported tail percentile."""
    return {"median": median(values), "n": len(values),
            "tail": tail_percentile(values)}


# ---- spans -----------------------------------------------------------

def union_length(intervals):
    """Total length covered by possibly overlapping [start, end)."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Map span id -> its duration minus the part of its interval that
    its child spans cover (children may overlap one another, as pool
    threads do)."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    result = {}
    for span in spans:
        clipped = [(max(c["start"], span["start"]), min(c["end"], span["end"]))
                   for c in children[span["id"]]]
        result[span["id"]] = (span["end"] - span["start"]
                              - union_length(clipped))
    return result


def layer_of(name):
    """Module a span belongs to: the part of its name before the first
    dot. Spans named bench.* are the benchmark's own containers."""
    return name.split(".", 1)[0]


def attribution(spans):
    """Self time per span name and per layer, plus coverage: the share
    of all self time that falls in module spans rather than in the
    benchmark's containers. Returns (by_name, by_layer, coverage,
    worst_container) with times in the spans' unit."""
    selfs = self_times(spans)
    by_name = defaultdict(int)
    by_layer = defaultdict(int)
    container = defaultdict(int)
    for span in spans:
        value = selfs[span["id"]]
        by_name[span["name"]] += value
        layer = layer_of(span["name"])
        by_layer[layer] += value
        if layer == "bench":
            container[span["name"]] += value
    total = sum(by_layer.values())
    explained = total - sum(container.values())
    coverage = explained / total if total > 0 else 0.0
    worst = max(container.items(), key=lambda kv: kv[1]) if container else None
    return dict(by_name), dict(by_layer), coverage, worst


def pool_stats(spans):
    """Busy fraction of the pool over the whole campaign and the tail
    idle time: from the first thread going idle (its last task ending)
    to the end of the pool phase. Times in seconds."""
    root = next(s for s in spans if s["parent"] == -1)
    tasks = [s for s in spans if s["name"] in ("bench.unit",
                                               "bench.prefix_task")]
    lanes = {s["lane"] for s in tasks}
    wall = root["end"] - root["start"]
    busy = sum(s["end"] - s["start"] for s in tasks)
    busy_frac = busy / (len(lanes) * wall) if wall > 0 and lanes else 0.0
    phase_span = next(s for s in spans if s["name"] == "bench.phase2")
    last_end = defaultdict(int)
    for s in spans:
        if s["name"] == "bench.unit":
            last_end[s["lane"]] = max(last_end[s["lane"]], s["end"])
    tail = (phase_span["end"] - min(last_end.values())) if last_end else 0
    return busy_frac, tail * 1e-9


# ---- digests and failures --------------------------------------------

def normalize_manifest(text):
    """A run manifest without what may differ between identical runs:
    the wall-clock "timing" section and the build's git describe."""
    doc = json.loads(text)
    doc.pop("timing", None)
    doc.get("run", {}).pop("git_describe", None)
    return json.dumps(doc, sort_keys=True)


def strip_trace_line(report):
    """The campaign report without the "trace: N units -> path" line."""
    return "".join(line for line in report.splitlines(keepends=True)
                   if not line.startswith("trace: "))


def digest(artifacts):
    """SHA-256 over named artifacts (name -> text), in name order.
    Manifests are normalized first."""
    h = hashlib.sha256()
    for name in sorted(artifacts):
        text = artifacts[name]
        if name.endswith(".json"):
            text = normalize_manifest(text)
        if isinstance(text, str):
            text = text.encode()
        h.update(name.encode() + b"\0" + str(len(text)).encode() + b"\0")
        h.update(text)
    return h.hexdigest()


def mismatch(label, got, want):
    """A failure reason when `want` is known and differs from `got`."""
    if want is None or got == want:
        return None
    return "%s: %s != %s" % (label, got[:16], want[:16])


class Gate:
    """Output-correctness ledger. Every campaign adds its units; a
    campaign that exited badly or mismatched any check counts all its
    units failed, and requeued units count failed one by one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, units, problems=(), requeued=0):
        self.attempted += units
        problems = [p for p in problems if p]
        if problems:
            self.failed += units
            self.reasons.extend(problems)
        elif requeued:
            self.failed += min(requeued, units)
            self.reasons.append("%d unit(s) requeued" % requeued)

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0


# ---- provenance ------------------------------------------------------

def read_cmake_cache(path):
    """KEY -> value from a CMakeCache.txt."""
    cache = {}
    with open(path) as f:
        for line in f:
            m = re.match(r"^([A-Za-z_0-9]+):[A-Z]+=(.*)$", line.rstrip("\n"))
            if m:
                cache[m.group(1)] = m.group(2)
    return cache


def sanitizer_of(flags):
    """Sanitizer names found in compile flags, or "none"."""
    found = []
    for m in re.finditer(r"-fsanitize=([A-Za-z,]+)", flags):
        found.extend(m.group(1).split(","))
    return ",".join(sorted(set(found))) or "none"


def build_stamp(cache, compiler_version):
    """Build part of the stamp from the benchmark build's CMake cache."""
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(filter(None, [
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")]))
    return {"compiler": cache.get("CMAKE_CXX_COMPILER", "unknown"),
            "compiler_version": compiler_version,
            "build_type": build_type or "none",
            "flags": flags,
            "sanitizer": sanitizer_of(flags)}


def refuse_reason(stamp):
    """Why timings from this build must not be reported, or None."""
    if stamp["build_type"] in ("Debug", "none"):
        return "build type %s is not optimized" % stamp["build_type"]
    if stamp["sanitizer"] != "none":
        return "sanitizer build (%s)" % stamp["sanitizer"]
    if re.search(r"(^|\s)-O0(\s|$)", stamp["flags"]):
        return "flags contain -O0"
    return None


def git_describe(root):
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def host_stamp(root):
    return {"git_describe": git_describe(root),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "kernel": platform.release()}


def write_record(path, record):
    """Write a run record (stamp, metrics, samples) as JSON."""
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)


def read_stamp(path):
    """Read the provenance stamp back from a run record, checking that
    every field a timing needs is present."""
    with open(path) as f:
        stamp = json.load(f)["stamp"]
    required = ("git_describe", "compiler", "compiler_version",
                "build_type", "flags", "sanitizer", "nproc", "loadavg")
    missing = [k for k in required if k not in stamp]
    if missing:
        raise ValueError("stamp lacks " + ", ".join(missing))
    return stamp


# ---- output ----------------------------------------------------------

def result_line(gate, metrics):
    """The final JSON line: metrics is name -> (value, unit)."""
    return json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}})
