"""Shared pieces of the benchmark: statistics, calibration, environment.

Nothing here imports the program under test, so the orchestrator
(`run.py`) and the unit tests can use it without paying for `repro`.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# Each calibration kernel's nominal duration.  Every time-based
# end-to-end metric is reported as ``raw * nominal / cal`` where ``cal``
# is the kernel's duration measured next to the operation, so a machine
# that runs the kernel at its nominal speed reports raw times.
NOMINAL_CAL_S = {"interpreter": 2.0e-3, "mixed": 1.6e-3}


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default), ``q`` in [0, 100]."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    position = (len(data) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(data) - 1)
    fraction = position - low
    return data[low] + (data[high] - data[low]) * fraction


def median(values) -> float:
    return percentile(values, 50.0)


def tail_percentile(count: int) -> float | None:
    """Highest of p99/p95/p90 that leaves at least ten samples beyond it."""
    for q in (99.0, 95.0, 90.0):
        if count * (100.0 - q) / 100.0 >= 10.0:
            return q
    return None


def summary(values) -> dict:
    """Median and quartiles of a sample, with its size."""
    data = list(values)
    if not data:
        return {"n": 0}
    return {
        "n": len(data),
        "p25": percentile(data, 25.0),
        "p50": percentile(data, 50.0),
        "p75": percentile(data, 75.0),
    }


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------

_KERNEL_WORDS = [f"w{i:03d}" for i in range(64)]
_KERNEL_ARRAYS: list = []


def _interpreter_work(rounds: int, products: int) -> int:
    """Dict, sort and string work in the interpreter, and numpy calls on
    a few hundred values (like ranking a small candidate pool)."""
    import numpy as np

    table: dict[str, int] = {}
    total = 0
    for round_index in range(rounds):
        for position, word in enumerate(_KERNEL_WORDS):
            key = word + str(round_index)
            table[key] = table.get(key, 0) + position
        items = sorted(table.items(), key=lambda item: (-item[1], item[0]))
        total += sum(value for _, value in items[:16])
    vector = np.arange(64, dtype=np.float64)
    matrix = np.outer(vector[:32], vector) / 1024.0
    for _ in range(products):
        scores = matrix @ vector
        order = np.argsort(-scores, kind="stable")
        total += int(order[0]) + int(scores.sum()) % 7
    return total


def interpreter_kernel() -> int:
    """Calibration for interpreter-bound work (serving, the service)."""
    return _interpreter_work(12, 40)


def mixed_kernel() -> int:
    """Calibration for numpy-heavy work (training, the GBDT): half the
    interpreter work plus passes over arrays of a few MB, like the GBDT's
    histogram search, which slow less than the interpreter when the
    machine is contended."""
    import numpy as np

    if not _KERNEL_ARRAYS:
        rng = np.random.default_rng(0)
        _KERNEL_ARRAYS.extend([
            rng.integers(0, 256, size=200_000),
            rng.normal(size=200_000),
            rng.permutation(200_000)[:50_000],
        ])
    bins, weights, picks = _KERNEL_ARRAYS
    total = _interpreter_work(6, 20)
    histogram = np.bincount(bins, weights=weights, minlength=256)
    return total + int(np.cumsum(histogram)[-1]) + int(weights[picks].sum())


KERNELS = {"interpreter": interpreter_kernel, "mixed": mixed_kernel}


class Calibration:
    """Timed calls of one of the ``KERNELS``, kept with their instants.

    On a shared host a CPU's speed can flip between a fast and a slow state (the
    kernel reads ~1.8 or ~2.9 ms) for stretches of 50 ms to a few
    seconds.  A call's slowdown follows the share of its time spent in
    the slow state, so long stretches are summarised by the mean of the
    readings; readings over three times the fastest (the process was
    preempted) are left out.
    """

    def __init__(self, kernel: str = "interpreter", cpu: int | None = None) -> None:
        self.readings: list[tuple[float, float]] = []  # (perf_counter, seconds)
        self.kernel = kernel
        self.nominal = NOMINAL_CAL_S[kernel]
        self._run = KERNELS[kernel]
        # When set, readings are taken on this CPU (the one the program
        # is pinned to), moving the calling thread there and back.
        self.cpu = cpu
        self._run()  # the first call pays for imports; not a reading

    def take(self, calls: int = 1) -> float:
        """Run the kernel ``calls`` times; return the mean duration."""
        first = len(self.readings)
        home = None
        if self.cpu is not None:
            home = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {self.cpu})
        try:
            for _ in range(calls):
                start = time.perf_counter()
                self._run()
                end = time.perf_counter()
                self.readings.append((end, end - start))
        finally:
            if home is not None:
                os.sched_setaffinity(0, home)
        return trimmed_mean(seconds for _, seconds in self.readings[first:])

    def burst(self, seconds: float) -> float:
        """Run the kernel for about ``seconds``; return the mean duration."""
        first = len(self.readings)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.take()
        return trimmed_mean(seconds for _, seconds in self.readings[first:])

    def seconds(self) -> list[float]:
        return [seconds for _, seconds in self.readings]

    def mean(self) -> float:
        """Trimmed mean of every reading: the run's average speed."""
        return trimmed_mean(self.seconds())

    def local(self, instant: float, window: int = 8) -> float:
        """Trimmed mean of the ``2 * window + 1`` readings nearest ``instant``."""
        if not self.readings:
            raise ValueError("no calibration readings")
        times = [at for at, _ in self.readings]
        centre = bisect.bisect_left(times, instant)  # readings are in time order
        low = max(0, centre - window)
        high = min(len(times), centre + window + 1)
        return trimmed_mean(seconds for _, seconds in self.readings[low:high])

    def as_dict(self) -> dict:
        base = self.readings[0][0] if self.readings else 0.0
        return {
            "kernel": self.kernel,
            "nominal_s": self.nominal,
            **summary(self.seconds()),
            "mean": self.mean() if self.readings else None,
            "readings": [
                [round(at - base, 4), seconds] for at, seconds in self.readings
            ],
        }


def trimmed_mean(values) -> float:
    """Mean of the values no larger than three times the smallest."""
    data = list(values)
    if not data:
        raise ValueError("mean of an empty sequence")
    limit = 3.0 * min(data)
    kept = [value for value in data if value <= limit]
    return sum(kept) / len(kept)


def scale_time(raw: float, cal: float, nominal: float) -> float:
    """A duration expressed at the nominal calibration speed."""
    return raw * nominal / cal


def scaled_samples(samples, calibration: Calibration) -> list[float]:
    """Scale each ``(instant, seconds)`` sample by the calibration near it."""
    return [
        scale_time(seconds, calibration.local(instant), calibration.nominal)
        for instant, seconds in samples
    ]


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------


def _git_commit() -> str | None:
    """The commit named by ``.git/HEAD`` of this checkout, if it has one."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
    except OSError:
        return None
    if not text.startswith("ref: "):
        return text
    ref = ROOT / ".git" / text[5:]
    try:
        return ref.read_text().strip()
    except OSError:
        return None


def source_digest() -> str:
    """SHA-1 over every file under ``src/``: the program that ran."""
    digest = hashlib.sha1()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def blas_info() -> dict:
    import ctypes

    import numpy as np

    info: dict = {"numpy": np.__version__}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception as error:  # show_config's layout varies by numpy version
        info["blas"] = f"unknown ({type(error).__name__})"
    threads = None
    try:
        with open("/proc/self/maps") as maps:
            paths = {
                line.split()[-1]
                for line in maps
                if "openblas" in line.lower() and ".so" in line.split()[-1]
            }
        for path in sorted(paths):
            library = ctypes.CDLL(path)
            for name in (
                "scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                function = getattr(library, name, None)
                if function is not None:
                    function.restype = ctypes.c_int
                    threads = int(function())
                    break
            if threads is not None:
                break
    except OSError:
        pass
    info["blas_threads"] = threads
    return info


def environment(seed: int, seeds: dict | None = None) -> dict:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "commit": _git_commit(),
        "source_sha1": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        **blas_info(),
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "seed": seed,
        "seeds": seeds or {},
    }


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------


def peak_rss_mb_self() -> float:
    """Peak resident set size of this process, MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set size (VmHWM) of another live process, MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def machine_cpu_seconds() -> tuple[float, float]:
    """Busy and stolen CPU seconds of the whole machine since boot (``/proc/stat``)."""
    with open("/proc/stat") as stat:
        ticks = [int(field) for field in stat.readline().split()[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = ticks
    hz = os.sysconf("SC_CLK_TCK")
    return (user + nice + system + irq + softirq) / hz, steal / hz


def cpu_seconds_of(pid: int) -> float:
    """User plus system CPU time of another live process, seconds."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    # fields[0] is the state (field 3); utime and stime are fields 14, 15
    return (int(fields[11]) + int(fields[12])) / ticks


def child_env() -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT / "perfbench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # String hashing otherwise varies per process and with it the
    # iteration order of every set of strings the program builds.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True))
    tmp.replace(path)


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def ensure_src() -> None:
    """Exit with status 2 when the program's sources are not beside us."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: program sources not found at {SRC}/repro; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
