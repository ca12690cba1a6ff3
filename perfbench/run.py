#!/usr/bin/env python3
"""perfbench: the end-to-end benchmark of the paths users run (perfbench/README.md).

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds N] [--trace 0|1]

Builds sdcctl, sdcd and the in-process probe from this checkout's sources (Release, into
.bench_build/), runs one workload for --seconds seconds and checks every output. With
--trace 0 it prints the end-to-end metrics; with --trace 1 it profiles every layer in
process and prints the per-layer metrics. Human-readable lines come first; the last line
of standard output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Exit status: 0 when every operation and check passed, 1 when one failed (the result line
is still printed, with "correct": false), 2 for a usage error, 3 when the program under
test cannot be built (nothing is printed on standard output then).

Workloads: stream_large, sweep_materialized, scrub_fleet, daemon_campaigns.
"""

import hashlib
import json
import os
import random
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True  # keep the benchmark directory free of build products
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib  # noqa: E402
import selftest  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_DIR, "cmake")
SDCCTL = os.path.join(CMAKE_DIR, "sdc", "tools", "sdcctl")
SDCD = os.path.join(CMAKE_DIR, "sdc", "tools", "sdcd")
PROBE = os.path.join(CMAKE_DIR, "perfprobe")

LANES = 4                       # --threads / --lanes of every timed run
STREAM_PROCESSORS = 64_000_000  # stream_large fleet: 7,813 shards of 8,192
SWEEP_PROCESSORS = 16_000_000   # sweep_materialized fleet
SWEEP_SCENARIOS = 8
SCRUB_FLEET = 100_000
SCRUB_HOURS = "2000"            # 2000 simulated hours = 3 monthly epochs
DAEMON_PROCESSORS = 2_000_000   # per daemon campaign
CAMPAIGN_LANES = 2              # lanes= of every daemon campaign (matches perfprobe)
SETUP_PROCESSES = 21            # perfprobe setup processes per one-shot run, and
SETUP_REPEAT = 7                # set-ups in each: the median of all 147 is reported
DAEMON_CAMPAIGNS = 200          # campaigns per daemon session, each on a fresh sdcd
DAEMON_SESSION_CAP_S = 30       # a session that has not finished its campaigns by then fails
DAEMON_SETUPS = 11              # sdcd spawn -> ping set-ups per session (last one serves)
OVERHEAD_PAIRS = 3              # untraced/traced pass pairs behind trace.overhead_*
OP_TIMEOUT_S = 120

WORKLOADS = ("stream_large", "sweep_materialized", "scrub_fleet", "daemon_campaigns")
STAGES = ("factory", "datacenter", "re-install", "regular")

# The metric catalogue (names, units) is BENCHMARK.json's, so the printed metrics and
# the declared ones cannot drift apart.
CATALOGUE = os.path.join(ROOT, "BENCHMARK.json")

USAGE = """\
usage: python3 perfbench/run.py --workload NAME [--seed N] [--seconds N] [--trace 0|1]

  --workload NAME  one of: {workloads}
  --seed N         workload seed, a whole number >= 0 (default 1); the same seed
                   gives the same inputs
  --seconds N      how long the run measures, 1..600 (default 10)
  --trace 0|1      0: end-to-end metrics, tracing off (default)
                   1: per-layer metrics from an in-process traced profile
  --help           print this text and run nothing
""".format(workloads=", ".join(WORKLOADS))


class UsageError(Exception):
    pass


class BuildError(Exception):
    pass


def parse_whole(text, low, high, what):
    """Digits only, in the src/common/parse.h discipline: no sign, no spaces, no
    exponent, no underscores; out of range is an error, never a clamp."""
    if not re.fullmatch(r"[0-9]+", text or ""):
        raise UsageError(f"invalid {what}: '{text}'")
    value = int(text)
    if not low <= value <= high:
        raise UsageError(f"{what} out of range [{low}, {high}]: '{text}'")
    return value


def parse_args(argv):
    if "--help" in argv or "-h" in argv:
        return None
    options = {"workload": None, "seed": 1, "seconds": 10, "trace": 0}
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            raise UsageError(f"unknown argument: '{flag}'")
        if i + 1 >= len(argv):
            raise UsageError(f"{flag} requires an operand")
        value = argv[i + 1]
        if flag == "--workload":
            if value not in WORKLOADS:
                raise UsageError(f"unknown workload: '{value}'")
            options["workload"] = value
        elif flag == "--seed":
            options["seed"] = parse_whole(value, 0, 2**63 - 1, "seed")
        elif flag == "--seconds":
            options["seconds"] = parse_whole(value, 1, 600, "--seconds")
        else:
            options["trace"] = parse_whole(value, 0, 1, "--trace")
        i += 2
    if options["workload"] is None:
        raise UsageError("--workload is required")
    return options


# ------------------------------------------------------------------------------------
# Build and host fingerprint.

def build():
    for required in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, required)):
            raise BuildError(f"no {required} beside perfbench/: nothing to build")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", CMAKE_DIR, "-j", str(LANES),
                      "--target", "sdcctl", "sdcd", "perfprobe"])
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=850).returncode
            except (OSError, subprocess.TimeoutExpired) as error:
                raise BuildError(f"{' '.join(step)}: {error}")
            if code != 0:
                log.flush()
                with open(log_path) as failed:
                    tail = failed.read()[-3000:]
                raise BuildError(f"{' '.join(step)} exited {code}\n{tail}")


def tree_digest():
    """sha256 over the sources the binaries are built from: identifies the code when
    the checkout carries no git metadata."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools", "perfbench"):
        for directory, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths.extend(os.path.join(directory, name) for name in sorted(files))
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as source:
            digest.update(source.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def fingerprint(seed, simd):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler, build_type = "unknown", "unknown"
    cache = os.path.join(CMAKE_DIR, "CMakeCache.txt")
    with open(cache) as entries:
        for line in entries:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                path = line.split("=", 1)[1].strip()
                try:
                    compiler = subprocess.run([path, "--version"], capture_output=True,
                                              text=True, timeout=10).stdout.splitlines()[0]
                except (OSError, IndexError, subprocess.TimeoutExpired):
                    compiler = path
            elif line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": compiler,
        "build_type": build_type,
        "simd": simd,
        "lanes": LANES,
        "git_commit": git_commit(),
        "tree_sha256": tree_digest(),
        "seed": seed,
    }


# ------------------------------------------------------------------------------------
# Running things. Every child is waited for; daemons are killed on any failure path.

class Run:
    """Operation ledger and scratch directory of one benchmark run."""

    def __init__(self, workload, trace):
        self.dir = os.path.join(BUILD_DIR, "runs", f"{workload}-trace{trace}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.attempted = 0
        self.failed = 0
        self.daemons = 0  # sdcd processes started, which names their directories
        self.problems = []

    def record(self, ok, what):
        """Counts one operation (an invocation, a request or an output check)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def path(self, name):
        return os.path.join(self.dir, name)


def timed_process(run, args, label, cwd=None):
    """Runs one program to completion. Returns (ok, wall s, max RSS MiB, CPU s, stdout)
    where wall runs from spawn until exit with all output read, and RSS and CPU come
    from the child's own rusage (wait4). A child that runs past OP_TIMEOUT_S is killed."""
    stderr_path = run.path("stderr.txt")
    start = time.perf_counter()
    with open(stderr_path, "wb") as stderr:
        child = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=stderr, cwd=cwd)
        watchdog = threading.Timer(OP_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            out = child.stdout.read()
        finally:
            # Disarmed before the child is reaped, so it can never signal a reused pid.
            watchdog.cancel()
            child.stdout.close()
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    detail = ""
    if child.returncode != 0:
        with open(stderr_path, errors="replace") as err:
            detail = err.read()[-500:]
    ok = run.record(child.returncode == 0, f"{label}: exit {child.returncode}: {detail}")
    return ok, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime, out


def probe(run, args, label):
    """Runs perfprobe; returns its JSON document or None (failure recorded)."""
    out_path = run.path(f"{label}.json")
    ok, _, _, _, _ = timed_process(run, [PROBE, *args, "--out", out_path], f"perfprobe {label}")
    if not ok:
        return None
    with open(out_path) as document:
        return json.load(document)


# ------------------------------------------------------------------------------------
# Inputs derived from the workload seed.

def fleet_seed(seed):
    return random.Random(f"fleet:{seed}").getrandbits(32)


def write_sweep_file(run, seed):
    """Eight screening scenarios derived from the seed: distinct seeds, cadences,
    regular-test temperatures and re-install durations."""
    rng = random.Random(f"sweep:{seed}")
    scenarios = []
    lines = []
    for k in range(SWEEP_SCENARIOS):
        scenario = {
            "name": f"s{k}",
            "seed": rng.getrandbits(31),
            "period": rng.choice((1.0, 2.0, 3.0, 4.0, 6.0)),
            "temp": rng.randint(50, 70),
            "seconds": rng.choice((30, 60, 90, 120)),
        }
        scenarios.append(scenario)
        lines.append(f"name={scenario['name']} seed={scenario['seed']} "
                     f"period_months={scenario['period']:.1f} "
                     f"stage.regular.temp={scenario['temp']} "
                     f"stage.reinstall.seconds={scenario['seconds']}")
    path = run.path("scenarios.txt")
    with open(path, "w") as out:
        out.write("\n".join(lines) + "\n")
    return path, scenarios


def sdcctl_args(workload, seed, lanes, sweep_file):
    """The command line a user runs for the workload."""
    base = [SDCCTL, "--threads", str(lanes), "--seed", str(fleet_seed(seed))]
    if workload == "stream_large":
        return base + ["--stream", "screen", str(STREAM_PROCESSORS)]
    if workload == "sweep_materialized":
        return base + ["--sweep", sweep_file, "screen", str(SWEEP_PROCESSORS)]
    return base + ["scrub", "--fleet", str(SCRUB_FLEET), "--hours", SCRUB_HOURS]


# ------------------------------------------------------------------------------------
# Output checks.

def permyriad(count, tested):
    return f"{count / tested * 1e4:.3f} permyriad"


def table_rows(text):
    lines = text.decode() if isinstance(text, bytes) else text
    lines = lines.splitlines()
    if len(lines) < 3 or not set(lines[1]) <= {"-"}:
        return None
    return [re.split(r"\s{2,}", line.strip()) for line in lines[2:] if line.strip()]


def check_screen_table(text, processors):
    """sdcctl screen: four stages then the total; stage sums equal the total and every
    rate is the count over `processors`, formatted as sdcctl formats it."""
    rows = table_rows(text)
    if rows is None or [row[0] for row in rows] != [*STAGES, "total"]:
        return False
    counts = [int(row[1]) for row in rows]
    if sum(counts[:4]) != counts[4]:
        return False
    return all(row[2] == permyriad(int(row[1]), processors) for row in rows)


def check_sweep_table(text, processors, scenarios):
    rows = table_rows(text)
    if rows is None or len(rows) != len(scenarios):
        return False
    for row, scenario in zip(rows, scenarios):
        if len(row) != 9 or row[0] != scenario["name"] or int(row[1]) != scenario["seed"]:
            return False
        if row[2] != f"{scenario['period']:.1f}":
            return False
        stages = [int(cell) for cell in row[3:7]]
        if sum(stages) != int(row[7]) or row[8] != permyriad(int(row[7]), processors):
            return False
    return True


def check_scrub_json(text, fleet):
    try:
        report = json.loads(text)
    except ValueError:
        return False
    budget = report["budget"]
    timeline = report["timeline"]
    epochs = -(-float(SCRUB_HOURS) / (30.44 * 24.0) // budget["epoch_months"])
    detections = report["detections"]
    return (report["fleet"]["processors"] == fleet
            and len(timeline) == int(epochs)
            and sum(point["detections"] for point in timeline) == len(detections)
            and report["outcomes"]["detections"] == len(detections)
            and len(detections) <= report["fleet"]["sessions"]
            and budget["spent_seconds"] <= budget["total_budget_seconds"] * (1 + 1e-9)
            and abs(sum(point["budget_seconds"] for point in timeline)
                    - budget["total_budget_seconds"])
            <= 1e-6 * budget["total_budget_seconds"])


def check_screening_result(payload, processors):
    """Invariants of one daemon `result` document (WriteScreeningStatsJson)."""
    try:
        stats = json.loads(payload)
    except ValueError:
        return False
    stages = stats["stages"]
    arches = stats["arches"]
    return (stats["tested"] == processors
            and [stage["stage"] for stage in stages] == list(STAGES)
            and sum(stage["detections"] for stage in stages) == stats["detected"]
            and sum(arch["tested"] for arch in arches) == processors
            and sum(arch["detections"] for arch in arches) == stats["detected"]
            and stats["detected"] <= stats["faulty"])


# ------------------------------------------------------------------------------------
# One-shot workloads (sdcctl).

def setup_times(run, workload, sweep_file):
    """Set-up times in seconds from SETUP_PROCESSES probe processes. Within one process
    the set-ups cluster around a level of that process's own (thread placement, memory
    layout), so samples come from many processes, and their median is the figure."""
    kind = {"stream_large": "stream", "sweep_materialized": "sweep",
            "scrub_fleet": "scrub"}[workload]
    processors = SWEEP_PROCESSORS if kind == "sweep" else STREAM_PROCESSORS
    args = ["setup", "--workload", kind, "--lanes", str(LANES), "--repeat",
            str(SETUP_REPEAT), "--processors", str(processors), "--sweep-file",
            sweep_file]
    times = []
    for _ in range(SETUP_PROCESSES):
        document = probe(run, args, "setup")
        if document is None:
            return None, "unknown"
        times.extend(ns / 1e9 for ns in document["setup_ns"])
    return times, document["simd"]


def output_check(workload, sweep_scenarios):
    if workload == "stream_large":
        return lambda out: check_screen_table(out, STREAM_PROCESSORS)
    if workload == "sweep_materialized":
        return lambda out: check_sweep_table(out, SWEEP_PROCESSORS, sweep_scenarios)
    return lambda out: check_scrub_json(out, SCRUB_FLEET)


def run_one_shots(run, args, label, seconds, check, minimum=1):
    """Runs `args` back to back until `seconds` have passed (at least `minimum` times).
    Every output must pass `check` and equal the first one byte for byte. Stops at the
    first failed invocation, which the run has already counted."""
    samples = []
    reference = None
    deadline = time.monotonic() + seconds
    while len(samples) < minimum or time.monotonic() < deadline:
        ok, wall, rss, cpu, out = timed_process(run, args, label)
        if not ok:
            break
        if reference is None:
            reference = out
            run.record(check(out), f"{label}: output check failed")
        else:
            run.record(out == reference, f"{label}: output differs between runs")
        samples.append((wall, rss, cpu))
    return samples, reference


def one_shot_untraced(run, workload, seed, seconds, sweep_file, scenarios):
    setups, simd = setup_times(run, workload, sweep_file)
    samples, _ = run_one_shots(run, sdcctl_args(workload, seed, LANES, sweep_file),
                               workload, seconds, output_check(workload, scenarios))
    if not samples or setups is None:
        return None, simd
    walls = [s[0] for s in samples]
    print(f"# {workload}: {len(samples)} sdcctl runs, wall s median "
          f"{benchlib.median(walls):.4f} (quartiles "
          f"{', '.join(f'{q:.4f}' for q in benchlib.quartiles(walls))}), "
          f"set-up median over {len(setups)} from {SETUP_PROCESSES} processes")
    return {
        "setup_s": benchlib.median(setups),
        "wall_s": benchlib.median(walls),
        "cpu_s": benchlib.median([s[2] for s in samples]),
        "peak_rss_mb": benchlib.median([s[1] for s in samples]),
    }, simd


# ------------------------------------------------------------------------------------
# The daemon workload (sdcd + perfprobe load).

def daemon_request(sock_path, line, timeout=10.0):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
        conn.settimeout(timeout)
        conn.connect(sock_path)
        conn.sendall(line.encode() + b"\n")
        reply = b""
        while not reply.endswith(b"\n"):
            chunk = conn.recv(4096)
            if not chunk:
                raise ConnectionError(f"connection closed mid-reply to {line!r}")
            reply += chunk
    return reply.decode().strip()


class Daemon:
    """One sdcd on a private socket in its own directory under the run directory.
    stop() sends `shutdown` and waits; on any failure it sends SIGKILL and waits, so no
    process or socket outlives the run."""

    def __init__(self, run, index):
        self.dir = run.path(f"sdcd{index}")
        os.makedirs(self.dir)
        # sdcd and perfprobe run in self.dir and name the socket relative to it, and this
        # process uses the shorter of the relative and absolute path: a deep checkout
        # path cannot overflow the 108-byte sun_path.
        self.socket = min(os.path.relpath(os.path.join(self.dir, "s.sock")),
                          os.path.join(self.dir, "s.sock"), key=len)
        self.log = open(os.path.join(self.dir, "sdcd.log"), "wb")
        start = time.perf_counter()
        self.process = subprocess.Popen([SDCD, "--socket", "s.sock", "--lanes", str(LANES)],
                                        cwd=self.dir, stdout=self.log,
                                        stderr=subprocess.STDOUT)
        self.startup_s = None
        deadline = start + 10.0
        while time.perf_counter() < deadline and self.process.poll() is None:
            try:
                if daemon_request(self.socket, "ping", timeout=1.0) == "ok pong":
                    self.startup_s = time.perf_counter() - start
                    break
            except OSError:
                time.sleep(0.0002)

    def proc_status(self):
        fields = {}
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                key, _, value = line.partition(":")
                fields[key] = value.strip()
        return fields

    def cpu_seconds(self):
        with open(f"/proc/{self.process.pid}/stat") as stat:
            parts = stat.read().rsplit(")", 1)[1].split()
        return (int(parts[11]) + int(parts[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self):
        clean = False
        if self.process.poll() is None:
            try:
                clean = daemon_request(self.socket, "shutdown") == "ok bye"
                self.process.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                clean = False
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
            self.process.wait()
        self.log.close()
        if os.path.exists(self.socket):
            os.unlink(self.socket)
        return clean and self.process.returncode == 0


def start_daemon(run):
    run.daemons += 1
    daemon = Daemon(run, run.daemons)
    if not run.record(daemon.startup_s is not None, "sdcd did not answer ping"):
        daemon.stop()
        return None
    return daemon


def daemon_load(run, daemon, seed, trace):
    args = ["load", "--socket", "s.sock", "--seconds", str(DAEMON_SESSION_CAP_S),
            "--seed", str(seed), "--processors", str(DAEMON_PROCESSORS),
            "--campaigns", str(DAEMON_CAMPAIGNS), "--trace", str(trace),
            "--out", os.path.abspath(run.path(f"load{run.daemons}.json"))]
    ok, _, _, _, _ = timed_process(run, [PROBE, *args], f"perfprobe load trace={trace}",
                                   cwd=daemon.dir)
    if not ok:
        return None
    with open(run.path(f"load{run.daemons}.json")) as document:
        load = json.load(document)
    # Every daemon request is one operation; the probe process itself was counted above.
    for request in load["requests"]:
        run.record(request["ok"], f"daemon {request['verb']} failed")
    for campaign in load["campaigns"]:
        if campaign["ok"]:
            run.record(check_screening_result(campaign["payload"], DAEMON_PROCESSORS),
                       f"campaign {campaign['id']}: result invariants failed")
    return load


def check_one_shot_match(run, load):
    """One single-scenario campaign must equal `sdcctl --stream export screening` of the
    same fleet byte for byte."""
    single = [c for c in load["campaigns"] if c["ok"] and not c["sweep"]]
    if not run.record(bool(single), "no single-scenario campaign completed"):
        return
    campaign = single[0]
    ok, _, _, _, out = timed_process(
        run, [SDCCTL, "--stream", "--threads", str(CAMPAIGN_LANES), "--processors",
              str(DAEMON_PROCESSORS), "--seed", str(campaign["seed"]), "export",
              "screening"], "sdcctl export screening")
    if ok:
        run.record(out.decode() == campaign["payload"],
                   f"campaign {campaign['id']} differs from the one-shot run")


def campaign_latencies(load, sweep=None):
    """submit -> result seconds of the completed campaigns: single-scenario ones
    (sweep=False), seeds:4 ones (sweep=True) or all (None). The two kinds alternate and
    their latencies form two modes, so a median over both would fall in the gap between
    them and jump with every shift of either mode; medians are taken per kind."""
    return [(c["result_ns"] - c["submit_ns"]) / 1e9 for c in load["campaigns"]
            if c["ok"] and (sweep is None or c["sweep"] == sweep)]


def poll_requests(load):
    return [r for r in load["requests"] if r["client"] == 3 and r["ok"]]


def daemon_summary(load):
    """Prints the daemon's user-facing figures for one session."""
    latencies = campaign_latencies(load)
    polls, _ = benchlib.open_loop(poll_requests(load))
    tail_p, tail, n = benchlib.tail_percentile(latencies)
    poll_p, poll_tail, poll_n = benchlib.tail_percentile(polls)
    wall = load["end_ns"] / 1e9
    print(f"# daemon: campaign_latency_p50_s = "
          f"{benchlib.median(campaign_latencies(load, False)):.6f} s single-scenario, "
          f"{benchlib.median(campaign_latencies(load, True)):.6f} s seeds:4; "
          f"p{tail_p:g} = {tail:.6f} s over all {n} campaigns; campaigns_per_s = "
          f"{n / wall:.3f} 1/s")
    print(f"# daemon: poll_latency_p50_ms = {benchlib.median(polls) / 1e6:.4f} ms, "
          f"p{poll_p:g} = {poll_tail / 1e6:.4f} ms over {poll_n} polls (from due time)")


def session_seed(seed, session):
    """Probe seed of one daemon session; campaign seeds derive from it."""
    return random.Random(f"daemon:{seed}:{session}").getrandbits(40)


def daemon_session(run, seed, trace, setups):
    """Spawns sdcd DAEMON_SETUPS times, timing spawn -> ping into `setups`, and runs one
    session of DAEMON_CAMPAIGNS campaigns on the last one. Returns (load, /proc status
    at the end, sdcd CPU seconds spent under the load) or None."""
    for index in range(DAEMON_SETUPS):
        daemon = start_daemon(run)
        if daemon is None:
            return None
        setups.append(daemon.startup_s)
        if index + 1 < DAEMON_SETUPS:
            run.record(daemon.stop(), "sdcd shutdown failed")
    try:
        cpu_before = daemon.cpu_seconds()
        load = daemon_load(run, daemon, seed, trace)
        status = daemon.proc_status()
        cpu = daemon.cpu_seconds() - cpu_before
    finally:
        run.record(daemon.stop(), "sdcd shutdown failed")
    if load is None:
        return None
    done = sum(1 for c in load["campaigns"] if c["ok"])
    if not run.record(done == DAEMON_CAMPAIGNS, f"session completed {done} of "
                      f"{DAEMON_CAMPAIGNS} campaigns within {DAEMON_SESSION_CAP_S} s"):
        return None
    return load, status, cpu


def mib(status, key):
    return int(status[key].split()[0]) / 1024.0


def daemon_untraced(run, seed, seconds):
    """Sessions of DAEMON_CAMPAIGNS campaigns, each on a fresh sdcd, until the run has
    measured `seconds`. A fixed amount of work per sdcd makes its peak RSS a measure of
    retention per campaign, not of how many campaigns a fast daemon fits into a session.
    Every session's first single-scenario campaign is checked against the one-shot CLI."""
    setups, single, rss, cpu, campaigns = [], [], [], 0.0, 0
    deadline = time.monotonic() + seconds
    session = 0
    while session == 0 or time.monotonic() < deadline:
        served = daemon_session(run, session_seed(seed, session), 0, setups)
        if served is None:
            return None
        load, status, session_cpu = served
        check_one_shot_match(run, load)
        daemon_summary(load)
        single.extend(campaign_latencies(load, False))
        campaigns += len(campaign_latencies(load))
        rss.append(mib(status, "VmHWM"))
        cpu += session_cpu
        session += 1
    print(f"# daemon: {session} sessions of {DAEMON_CAMPAIGNS} campaigns")
    return {
        "setup_s": benchlib.median(setups),
        "wall_s": benchlib.median(single),
        "cpu_s": cpu / campaigns,
        "peak_rss_mb": benchlib.median(rss),
    }


# ------------------------------------------------------------------------------------
# Traced run: per-layer metrics.

def pass_of(spans):
    """Index of the root span above every span."""
    roots = []
    for span in spans:
        parent = span["parent"]
        roots.append(roots[parent] if parent >= 0 else len(roots))
    return roots


def pass_spans(profile, root_name):
    spans = profile["spans"]
    roots = pass_of(spans)
    root = next(i for i, span in enumerate(spans) if span["name"] == root_name)
    return [dict(span, index=i) for i, span in enumerate(spans) if roots[i] == root]


def seconds_of(span):
    return (span["end_ns"] - span["start_ns"]) / 1e9


def only(spans, name):
    matches = [span for span in spans if span["name"] == name]
    if len(matches) != 1:
        raise ValueError(f"expected one {name} span, found {len(matches)}")
    return matches[0]


def stream_layers(profile4, profile1):
    spans = pass_spans(profile4, "stream.pass")
    drive = only(spans, "fleet.drive")
    fold = only(spans, "fleet.fold")
    generate = [s for s in spans if s["name"] == "fleet.generate"]
    screen = [s for s in spans if s["name"] == "fleet.screen"]
    screen_us = [(s["end_ns"] - s["start_ns"]) / 1e3 for s in screen]
    drive_s = seconds_of(drive)
    generate_s = sum(seconds_of(s) for s in generate)
    screen_s = sum(seconds_of(s) for s in screen)
    lanes = profile4["stream"]["lanes_seen"]
    parallel_s = (fold["start_ns"] - drive["start_ns"]) / 1e9
    drive1 = only(pass_spans(profile1, "stream.pass"), "fleet.drive")
    shard_p50 = benchlib.median(screen_us)
    return {
        "fleet.drive_s": drive_s,
        "fleet.generate_busy_s": generate_s,
        "fleet.screen_busy_s": screen_s,
        "fleet.fold_s": seconds_of(fold),
        "fleet.fold_share": seconds_of(fold) / drive_s,
        "fleet.lane_busy_frac": (generate_s + screen_s) / (lanes * parallel_s),
        "fleet.screen_shard_p50_us": shard_p50,
        "fleet.screen_shard_max_us": max(screen_us),
        "fleet.straggler_ratio": max(screen_us) / shard_p50,
        "fleet.scaling_x": seconds_of(drive1) / drive_s,
    }


def sweep_layers(profile4, profile1):
    spans = pass_spans(profile4, "sweep.pass")
    run_batch = seconds_of(only(spans, "fleet.run_batch"))
    run_batch1 = seconds_of(only(pass_spans(profile1, "sweep.pass"), "fleet.run_batch"))
    return {
        "fleet.materialize_s": seconds_of(only(spans, "fleet.materialize")),
        "fleet.run_batch_s": run_batch,
        "fleet.run_batch_scaling_x": run_batch1 / run_batch,
    }


def scrub_layers(profile4, profile1):
    spans = pass_spans(profile4, "scrub.pass")
    epochs = [seconds_of(s) for s in spans if s["name"] == "scrub.epoch"]
    run4 = seconds_of(only(spans, "scrub.run"))
    run1 = seconds_of(only(pass_spans(profile1, "scrub.pass"), "scrub.run"))
    return {
        "scrub.discovery_s": seconds_of(only(spans, "scrub.discovery")),
        "scrub.epoch_p50_s": benchlib.median(epochs),
        "scrub.epoch_max_s": max(epochs),
        "scrub.scaling_x": run1 / run4,
        "report.scrub_render_s": seconds_of(only(spans, "report.scrub_render")),
    }


def setup_layers(profile4):
    spans = profile4["spans"]
    return {
        "common.context_s": benchlib.median(
            [seconds_of(s) for s in spans if s["name"] == "common.context"]),
        "toolchain.suite_build_s": benchlib.median(
            [seconds_of(s) for s in spans if s["name"] == "toolchain.suite_build"]),
    }


def status_fields(line):
    return dict(token.split("=", 1) for token in line.split() if "=" in token)


def daemon_layers(load, vm_size_mb):
    requests = load["requests"]
    campaigns = [c for c in load["campaigns"] if c["ok"]]

    def rtt_ms(verb):
        return [(r["end_ns"] - r["start_ns"]) / 1e6 for r in requests
                if r["verb"] == verb and r["ok"] and r["client"] < 3]

    queue_wait, run_s = [], []
    for campaign in campaigns:
        fields = status_fields(campaign["status"])
        queue_wait.append(float(fields["started"]) - float(fields["submitted"]))
        run_s.append(float(fields["finished"]) - float(fields["started"]))
    polls = poll_requests(load)
    poll_latency, lateness = benchlib.open_loop(polls)
    poll_rtt = [(r["end_ns"] - r["start_ns"]) / 1e6 for r in polls]
    busy = []
    for r in polls:
        if r["verb"] == "status":
            used, total = status_fields(r["reply"])["lanes"].split("/")
            busy.append(int(used) / int(total))
    latencies = campaign_latencies(load)
    return {
        "daemon.campaign_latency_p50_s": benchlib.median(campaign_latencies(load, False)),
        "daemon.sweep_latency_p50_s": benchlib.median(campaign_latencies(load, True)),
        "daemon.campaign_latency_p90_s": benchlib.tail_percentile(latencies)[1],
        "daemon.campaigns_per_s": len(latencies) / (load["end_ns"] / 1e9),
        "daemon.poll_latency_p50_ms": benchlib.median(poll_latency) / 1e6,
        "daemon.poll_latency_p90_ms": benchlib.tail_percentile(poll_latency)[1] / 1e6,
        "daemon.submit_rtt_ms_p50": benchlib.median(rtt_ms("submit")),
        "daemon.queue_wait_s_p50": benchlib.median(queue_wait),
        "daemon.queue_wait_s_p90": benchlib.tail_percentile(queue_wait)[1],
        "daemon.run_s_p50": benchlib.median(run_s),
        "daemon.result_rtt_ms_p50": benchlib.median(rtt_ms("result")),
        "daemon.poll_rtt_ms_p90": benchlib.tail_percentile(poll_rtt)[1],
        "daemon.poller_late_ms_max": max(lateness) / 1e6,
        "daemon.lanes_busy_frac": sum(busy) / len(busy) if busy else 0.0,
        "daemon.connections": load["connections"],
        "daemon.vm_size_mb": vm_size_mb,
    }


def print_self_times(profile, root_name):
    spans = pass_spans(profile, root_name)
    local = {span["index"]: i for i, span in enumerate(spans)}
    table = benchlib.self_time_by_name(
        [dict(span, parent=local.get(span["parent"], -1)) for span in spans])
    print(f"# {root_name} at {profile['lanes']} lane(s): span, count, total s, self s")
    for name, (duration, self_ns, count) in sorted(table.items(), key=lambda x: -x[1][0]):
        print(f"#   {name:24s} {count:6d} {duration / 1e9:10.4f} {self_ns / 1e9:10.4f}")


def print_outputs(p4, load):
    """The simulated counts. They are outputs, not performance: the run checks them for
    equality (1 lane against 4, traced against untraced), and any change in them is a
    failed output check."""
    stream, sweep, scrub = p4["stream"], p4["sweep"], p4["scrub"]
    result_bytes = sorted(len(c["payload"]) for c in load["campaigns"] if c["ok"])
    print(f"# outputs: stream shards={stream['shards']} faulty={stream['faulty']} "
          f"detections={stream['detections']}; sweep faulty={sweep['faulty']} "
          f"detections={sweep['detections']}; scrub epochs={scrub['epochs']} "
          f"sessions_funded={scrub['sessions_funded']} detections={scrub['detections']}; "
          f"daemon result bytes {result_bytes[0]}..{result_bytes[-1]}")


def print_drive_coverage(profile):
    """How much of fleet.drive_s its child spans cover. A generate span is the gap between
    two screen spans of one lane, starting at drive start, so the children tile every
    lane's busy time by definition: the uncovered rest is the pool's join after the last
    shard and Drive's return. This is an identity of the span definitions, not a check."""
    spans = pass_spans(profile, "stream.pass")
    drive = only(spans, "fleet.drive")
    uncovered_s = benchlib.self_times(profile["spans"])[drive["index"]] / 1e9
    print(f"# stream_large: the child spans cover {1 - uncovered_s / seconds_of(drive):.5f} "
          f"of fleet.drive_s by construction; the rest, {uncovered_s * 1e3:.3f} ms, is the "
          f"pool join and Drive's return")


def traced(run, workload, seed, sweep_file, scenarios):
    """Profiles every layer in process at 4 and at 1 lane, drives a traced daemon load,
    and measures this workload's tracing overhead."""
    one_shot = {"stream_large": ("stream", "table"),
                "sweep_materialized": ("sweep", "table"),
                "scrub_fleet": ("scrub", "json")}.get(workload)
    if one_shot is not None:
        samples, out4 = run_one_shots(run, sdcctl_args(workload, seed, LANES, sweep_file),
                                      workload, 0, lambda out: True)
        _, out1 = run_one_shots(run, sdcctl_args(workload, seed, 1, sweep_file),
                                workload + " 1 lane", 0, lambda out: True)
        if not samples or out1 is None:
            return None, "unknown"

    fleet = fleet_seed(seed)
    profiles = {}
    for lanes in (LANES, 1):
        args = ["profile", "--lanes", str(lanes), "--seed", str(fleet),
                "--stream-processors", str(STREAM_PROCESSORS),
                "--sweep-processors", str(SWEEP_PROCESSORS), "--sweep-file", sweep_file,
                "--scrub-fleet", str(SCRUB_FLEET), "--scrub-hours", SCRUB_HOURS]
        if one_shot is not None and lanes == LANES:
            args += ["--overhead-pass", one_shot[0],
                     "--overhead-pairs", str(OVERHEAD_PAIRS)]
        profiles[lanes] = probe(run, args, f"profile{lanes}")
    p4, p1 = profiles[LANES], profiles[1]
    if p4 is None or p1 is None:
        return None, "unknown"

    # Traced outputs: identical at 1 and 4 lanes, and complete.
    for section in ("stream", "sweep", "scrub"):
        run.record({k: v for k, v in p4[section].items() if k != "lanes_seen"}
                   == {k: v for k, v in p1[section].items() if k != "lanes_seen"},
                   f"{section}: 1-lane and 4-lane traced outputs differ")
    run.record(p4["stream"]["tested"] == STREAM_PROCESSORS, "stream: tested != N")
    run.record(check_screen_table(p4["stream"]["table"], STREAM_PROCESSORS),
               "stream: traced table check failed")
    run.record(p4["sweep"]["tested"] == [SWEEP_PROCESSORS] * SWEEP_SCENARIOS,
               "sweep: tested != N")
    run.record(check_sweep_table(p4["sweep"]["table"], SWEEP_PROCESSORS, scenarios),
               "sweep: traced table check failed")
    run.record(check_scrub_json(p4["scrub"]["json"], SCRUB_FLEET),
               "scrub: traced report check failed")

    # The daemon, traced: DaemonClient round trips timed in the probe.
    served = daemon_session(run, session_seed(seed, 0), 1, [])
    if served is None:
        return None, p4["simd"]
    load, status, _ = served

    metrics = {}
    metrics.update(setup_layers(p4))
    metrics.update(stream_layers(p4, p1))
    metrics.update(sweep_layers(p4, p1))
    metrics.update(scrub_layers(p4, p1))
    metrics.update(daemon_layers(load, mib(status, "VmSize")))

    # This workload's output against the traced pass at 4 and 1 lanes, and the tracing
    # overhead: the median traced pass minus the median untraced one, both in process.
    if one_shot is not None:
        section, field = one_shot
        run.record(out4.decode() == p4[section][field],
                   f"{workload}: sdcctl at {LANES} lanes differs from the traced pass")
        run.record(out1.decode() == p1[section][field],
                   f"{workload}: sdcctl at 1 lane differs from the traced pass")
        overhead = p4["overhead"]
        run.record(overhead["outputs_match"],
                   f"{workload}: an untraced pass differs from the traced one")
        untraced_s = benchlib.median(overhead["untraced_ns"]) / 1e9
        traced_s = benchlib.median(overhead["traced_ns"]) / 1e9
        sdcctl_s = benchlib.median([s[0] for s in samples])
        print(f"# {workload}: one sdcctl run took {sdcctl_s:.4f} s, the untraced in-process "
              f"pass {untraced_s:.4f} s (median of {OVERHEAD_PAIRS}); a note, not a metric: "
              f"the difference mixes process start and exit with run-to-run noise")
    else:
        served = daemon_session(run, session_seed(seed, 0), 0, [])
        if served is None:
            return None, p4["simd"]
        untraced = served[0]
        check_one_shot_match(run, untraced)

        def payloads(session):
            return {c["ticket"]: c["payload"] for c in session["campaigns"]}
        run.record(payloads(load) == payloads(untraced),
                   "daemon: traced and untraced results differ")
        untraced_s = benchlib.median(campaign_latencies(untraced, False))
        traced_s = metrics["daemon.campaign_latency_p50_s"]
        daemon_summary(untraced)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s

    for root in ("stream.pass", "sweep.pass", "scrub.pass"):
        print_self_times(p4, root)
    print_outputs(p4, load)
    print(f"# tracing overhead on {workload}: traced median {traced_s:.4f} s - untraced "
          f"median {untraced_s:.4f} s = {traced_s - untraced_s:+.4f} s")
    print(f"# stream_large: fold share of fleet.drive_s = {metrics['fleet.fold_share']:.3f}")
    print_drive_coverage(p4)
    return metrics, p4["simd"]


# ------------------------------------------------------------------------------------

def emit(run, metrics, catalogue, finger):
    correct = run.failed == 0 and metrics is not None
    values = {}
    for name, unit in catalogue.items():
        value = (metrics or {}).get(name)
        if not benchlib.finite(value):
            # No inf/NaN reaches the JSON: a metric that could not be measured is a
            # failed run, reported with a zero placeholder.
            if metrics is not None:
                run.problems.append(f"metric {name} is not a finite number: {value!r}")
            correct = False
            value = 0
        values[name] = {"value": value, "unit": unit}
    finger["attempted"] = run.attempted
    finger["failed"] = run.failed
    with open(run.path("result.json"), "w") as out:
        json.dump({"fingerprint": finger, "metrics": values, "problems": run.problems},
                  out, indent=2)
    print("# fingerprint: " + json.dumps(finger, sort_keys=True))
    for name, metric in values.items():
        print(f"# {name} = {metric['value']} {metric['unit']}")
    attempted = max(run.attempted, 1)
    print(f"# ops_failed_frac = {run.failed / attempted} ratio "
          f"({run.failed} of {attempted} operations)")
    for problem in run.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": run.failed,
                      "metrics": values}))
    return 0 if correct else 1


def main(argv):
    try:
        options = parse_args(argv)
    except UsageError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        print(USAGE, file=sys.stderr, end="")
        return 2
    if options is None:
        print(USAGE, end="")
        return 0
    if not selftest.run_quietly():
        print("perfbench: self-tests of the benchmark arithmetic failed "
              "(python3 perfbench/selftest.py)", file=sys.stderr)
        return 1
    try:
        build()
    except BuildError as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 3

    try:
        with open(CATALOGUE) as declared:
            section = "per_layer" if options["trace"] else "end_to_end"
            catalogue = {m["name"]: m["unit"] for m in json.load(declared)[section]}
    except (OSError, ValueError, KeyError, TypeError) as error:
        print(f"perfbench: cannot read the metric catalogue {CATALOGUE}: {error}",
              file=sys.stderr)
        return 3

    workload, seed, seconds = options["workload"], options["seed"], options["seconds"]
    run = Run(workload, options["trace"])
    sweep_file, scenarios = write_sweep_file(run, seed)
    simd = "unknown"
    try:
        if options["trace"]:
            metrics, simd = traced(run, workload, seed, sweep_file, scenarios)
        elif workload == "daemon_campaigns":
            metrics = daemon_untraced(run, seed, seconds)
        else:
            metrics, simd = one_shot_untraced(run, workload, seed, seconds, sweep_file,
                                              scenarios)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as error:
        run.record(False, f"{type(error).__name__}: {error}")
        metrics = None
    if simd == "unknown":
        simd = _simd_level(run)
    return emit(run, metrics, catalogue, fingerprint(seed, simd))


def _simd_level(run):
    document = probe(run, ["setup", "--workload", "stream", "--lanes", "1", "--repeat",
                           "1"], "simd")
    return document["simd"] if document else "unknown"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
