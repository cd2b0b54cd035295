"""Plumbing shared by the workload processes (the ones that run the program)."""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from common import Calibration, write_json

SETUP_BURST_S = 0.2  # calibration right after set-up (see run.py)


def parse_args(description: str) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    parser.add_argument("--probe", action="store_true",
                        help="set up, report readiness and exit")
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    return parser.parse_args()


class Outcome:
    """What a workload process hands back to the orchestrator."""

    def __init__(self, kernel: str = "interpreter") -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.calibration = Calibration(kernel)
        self.raw: dict = {}
        self.scaled: dict = {}
        self.layers: dict = {}
        self.info: dict = {}

    def fail(self, problem: str) -> None:
        """Record a failed operation (a raised error or a failed check)."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def write(self, path: Path) -> None:
        write_json(path, {
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "raw": self.raw,
            "scaled": self.scaled,
            "layers": self.layers,
            "info": self.info,
            "calibration": self.calibration.as_dict(),
        })


def mark_ready(outcome: Outcome) -> None:
    """The program is set up: note the instant and a calibration burst."""
    outcome.info["ready_at"] = time.perf_counter()
    outcome.info["ready_cal_s"] = outcome.calibration.burst(SETUP_BURST_S)
