"""The two workloads: seeded inputs, program set-up and timed blocks.

Inputs come in blocks.  Block b of a workload draws from its own
`random.Random` seeded with "<workload>:<seed>:<b>", so one seed always
gives the same blocks, however many a run reaches.  Every block has the
same composition, and runs end on a block boundary, so the mix of item
kinds in a run does not depend on how long the run was.

Calls into the program go through module attributes at call time, so the
tracer's wrappers are seen when tracing is on.

Between items the runner runs the workload's reference kernel
(reference.py) and records, for every item, the mean of the kernel times
just before and just after it, so each item's time can be reported in
reference seconds.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import random
import time

import checks
from tracer import NO_ITEM

WORKLOADS = ("advantage-map", "fock-gate")

# advantage-map: one `gaussqi sweep` of a seeded GRID x GRID map per block.
ADVANTAGE_GRID = 4
ADVANTAGE_KAPPA = 1e-2
ADVANTAGE_NS = (1e-3, 10.0)
ADVANTAGE_NB = (1e-3, 100.0)

# fock-gate: criterion 1's box and anchor, 1:3:3:3 transmitter mix.
FOCK_MIX = ("vacuum",) + ("coherent",) * 3 + ("smsv",) * 3 + ("tmss",) * 3
FOCK_BOX_N = (0.1, 0.5)
FOCK_BOX_KAPPA = (0.1, 0.3)
FOCK_S = (0.3, 0.5, 0.7)
FOCK_ANCHOR = dict(n_s=0.5, kappa=0.3, n_b=0.5, tol=1e-8)
FOCK_TMSS_CUTOFF = 24


def _rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{block}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def block_inputs(workload: str, seed: int, block: int):
    """Inputs of one block; pure standard library, no program code."""
    rng = _rng(workload, seed, block)
    if workload == "advantage-map":
        n_s = sorted(_log_uniform(rng, *ADVANTAGE_NS) for _ in range(ADVANTAGE_GRID))
        n_b = sorted(_log_uniform(rng, *ADVANTAGE_NB) for _ in range(ADVANTAGE_GRID))
        return {"n_s": n_s, "n_b": n_b, "kappa": ADVANTAGE_KAPPA}
    if workload == "fock-gate":
        kinds = list(FOCK_MIX)
        rng.shuffle(kinds)
        return [
            (
                kind,
                0.0 if kind == "vacuum" else rng.uniform(*FOCK_BOX_N),
                rng.uniform(*FOCK_BOX_N),
                rng.uniform(*FOCK_BOX_KAPPA),
            )
            for kind in kinds
        ]
    raise ValueError(f"unknown workload {workload!r}")


class Block:
    """Outcome of one block: program time, per-item latencies and failures.

    `kernel_s[k]` is the reference kernel's time around item k (0 when no
    kernel ran).
    """

    def __init__(self):
        self.seconds = 0.0
        self.latencies_ms: list[float] = []
        self.kernel_s: list[float] = []
        self.failures: list[str | None] = []
        self.digest = hashlib.sha256()

    def summary(self) -> dict:
        return {
            "seconds": self.seconds,
            "items": len(self.failures),
            "latencies_ms": self.latencies_ms,
            "kernel_s": self.kernel_s,
            "failures": [f for f in self.failures if f is not None],
            "digest": self.digest.hexdigest(),
        }


class Runner:
    """Imports and sets up the program for one workload, then runs blocks.

    `set_item` receives the id of the item about to run (the tracer's hook);
    it is a no-op when tracing is off.  `kernel`, when given, is run before
    the first item and after every item and returns its own time in seconds.
    """

    MODULES = {
        "advantage-map": ("cli",),
        "fock-gate": ("fock_oracle", "target", "transmitters", "divergence", "highprec"),
    }

    def __init__(self, workload: str, work_dir: str, set_item=lambda item: None, kernel=None):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.work_dir = work_dir
        self.set_item = set_item
        self.kernel = kernel
        self.next_item = 0
        self.setup_info: dict = {}

    def setup(self) -> None:
        """What a user pays before the first item: imports, then cutoffs."""
        for name in self.MODULES[self.workload]:
            setattr(self, name, importlib.import_module(f"gaussqi.{name}"))
        if self.workload == "fock-gate":
            tx, target = self.transmitters, self.target
            anchor = target.TargetConfig(kappa=FOCK_ANCHOR["kappa"], n_b=FOCK_ANCHOR["n_b"])
            cutoffs = {}
            for kind in ("vacuum", "coherent", "smsv"):
                spec = tx.TransmitterSpec(kind, 0.0 if kind == "vacuum" else FOCK_ANCHOR["n_s"])
                cutoffs[kind] = self.fock_oracle.choose_cutoff(spec, anchor, tol=FOCK_ANCHOR["tol"])
            cutoffs["tmss"] = FOCK_TMSS_CUTOFF
            self.setup_info["cutoffs"] = cutoffs

    def run_block(self, inputs) -> Block:
        """Run and check one block.

        An item function does the program's work and returns a callable
        that checks it after the item's clock has stopped, giving
        (failure reason or None, record of the outputs).
        """
        block = Block()
        before = self._kernel()
        if self.workload == "advantage-map":
            self._advantage_block(inputs, block)
            after = self._kernel()
            block.kernel_s.append((before + after) / 2)
        else:
            for item in inputs:
                self.set_item(self.next_item)
                self.next_item += 1
                start = time.perf_counter()
                try:
                    finish = self._fock_item(*item)
                except Exception as exc:  # an item that raises is a failed item
                    finish = lambda exc=exc: (f"raised {type(exc).__name__}: {exc}", repr(exc))
                elapsed = time.perf_counter() - start
                self.set_item(NO_ITEM)
                after = self._kernel()
                block.kernel_s.append((before + after) / 2)
                before = after
                reason, record = finish()
                block.seconds += elapsed
                block.latencies_ms.append(elapsed * 1e3)
                block.failures.append(reason)
                block.digest.update(record.encode())
        return block

    def _kernel(self) -> float:
        return self.kernel() if self.kernel is not None else 0.0

    # -- advantage-map ------------------------------------------------------

    def _advantage_block(self, inputs, block: Block) -> None:
        plan = os.path.join(self.work_dir, "plan.txt")
        out = os.path.join(self.work_dir, "rows.csv")
        with open(plan, "w") as fh:
            fh.write(
                "transmitter = tmss\n"
                "quantity = ratio_vs_coherent\n"
                f"kappa = {inputs['kappa']!r}\n"
                f"grid_ns = {','.join(repr(x) for x in inputs['n_s'])}\n"
                f"grid_nb = {','.join(repr(x) for x in inputs['n_b'])}\n"
            )
        if os.path.exists(out):
            os.remove(out)
        rows = len(inputs["n_s"]) * len(inputs["n_b"])
        self.set_item(self.next_item)
        start = time.perf_counter()
        try:
            code = self.cli.main(["sweep", plan, "--out", out])
        except Exception as exc:  # a raising sweep fails all of its rows
            code = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.set_item(NO_ITEM)
        self.next_item += rows
        block.seconds = elapsed
        # Rows of one sweep are not timed apart: each sample is the sweep's
        # time per row.
        block.latencies_ms.append(elapsed * 1e3 / rows)
        if code != 0:
            block.failures = [f"gaussqi sweep exited with {code!r}"] * rows
            return
        with open(out, "rb") as fh:
            data = fh.read()
        block.digest.update(data)
        block.failures = checks.check_advantage_csv(
            data.decode(), inputs["n_s"], inputs["n_b"], inputs["kappa"]
        )

    # -- fock-gate ----------------------------------------------------------

    def _fock_item(self, kind, n_s, n_b, kappa):
        spec = self.transmitters.TransmitterSpec(kind, n_s)
        cfg = self.target.TargetConfig(kappa=kappa, n_b=n_b)
        rho0, rho1 = self.fock_oracle.hypothesis_pair_fock(
            spec, cfg, self.setup_info["cutoffs"][kind]
        )
        pair = self.target.make_pair(spec, cfg)
        values = [
            (
                s,
                self.fock_oracle.q_s_fock(rho0, rho1, s),
                self.divergence.q_s_general(pair.rho0, pair.rho1, s),
                self.highprec.log_q_s(kind, n_s, n_b, kappa, s),
            )
            for s in FOCK_S
        ]
        return lambda: (checks.check_fock_item(values), repr(values))
