"""The benchmark's three workloads: a set-up step and one timed pass each.

Every workload drives the public API of ``repro`` from outside and is a
pure function of its seed.  ``setup(seed, tiny)`` does the imports and
the per-process preparation a user of ``python -m repro`` pays on every
invocation; ``run(state)`` is the timed pass and returns a
:class:`PassResult`.  ``tiny`` shrinks a workload for the self-test
only; timed runs always use the full size.

Why each workload exists, and which layers it stresses, is in
``README.md`` beside this file.
"""

import hashlib
import random
from typing import Dict, List, Tuple


class PassResult:
    """What one timed pass produced.

    ``outputs`` holds only deterministic values (digests, consoles,
    virtual latencies): two passes of one seed must agree on them
    exactly, and at a recorded seed they must equal ``expected.json``.
    ``attempted``/``failed`` count the workload's own units of work.
    """

    def __init__(self, attempted: int, failed: int, outputs: Dict):
        self.attempted = attempted
        self.failed = failed
        self.outputs = outputs


# ---------------------------------------------------------------------------
# fuzz-campaign: the r-t6 differential fuzzing campaign
# ---------------------------------------------------------------------------

#: Programs per campaign.  r-t6 runs 64; 40 keeps every fault site
#: armed at least twice and shortens a pass, so a timed run makes about
#: nine passes instead of six (README.md, "Host noise and the bounds").
FUZZ_COUNT = 40
FUZZ_COUNT_TINY = 4


def fuzz_setup(seed: int, tiny: bool) -> Dict:
    from repro.gen.driver import run_campaign

    return {"run_campaign": run_campaign, "seed": seed,
            "count": FUZZ_COUNT_TINY if tiny else FUZZ_COUNT}


def fuzz_run(state: Dict) -> PassResult:
    report = state["run_campaign"](campaign_seed=state["seed"],
                                   count=state["count"], fault_sites=True)
    # A unit is one generated program (slot); a slot that is not ok
    # failed the oracle (divergence, exposure, violation, fault escape).
    return PassResult(report.count, len(report.failures()),
                      {"report_digest": report.digest()})


# ---------------------------------------------------------------------------
# compute-suite: r-f1's twelve kernels, native then cloaked
# ---------------------------------------------------------------------------

#: Each kernel's size is drawn from this band around its
#: ``default_size``.  The band is narrow on purpose: the twelve kernels
#: differ in cost by 10x, so a wide band would make the seed, not the
#: simulator, the main source of run-to-run spread in ``wall_s``.
SIZE_BAND = (0.95, 1.05)
TINY_KERNELS = ("matmul", "rle", "crcsweep")
TINY_SCALE = 0.1


def kernel_sizes(seed: int, tiny: bool) -> List[Tuple[type, int]]:
    """``(kernel class, size)`` for every kernel of the suite, from seed."""
    from repro.apps.compute import COMPUTE_SUITE

    rng = random.Random(f"perfbench:compute:{seed}")
    sizes = []
    for cls in COMPUTE_SUITE:
        factor = rng.uniform(*SIZE_BAND)
        if tiny:
            if cls.name not in TINY_KERNELS:
                continue
            factor *= TINY_SCALE
        sizes.append((cls, max(1, round(cls.default_size * factor))))
    return sizes


def sized_kernel(cls: type, size: int) -> type:
    """A subclass of ``cls`` whose default size is ``size``.

    ``Machine.register`` instantiates programs without arguments, so
    the size rides on the class.  The subclass keeps the kernel's
    registry name, so it replaces the default-sized kernel on the
    machine it is registered on.
    """
    return type(f"{cls.__name__}Size{size}", (cls,),
                {"default_size": size, "__module__": __name__})


def compute_setup(seed: int, tiny: bool) -> Dict:
    from repro.bench.runner import fresh_machine

    # The golden boots (one native, one cloaked) are per-process
    # preparation: every later machine is restored from them.
    for cloaked in (False, True):
        fresh_machine(cloaked=cloaked)
    kernels = [(sized_kernel(cls, size), size)
               for cls, size in kernel_sizes(seed, tiny)]
    return {"fresh_machine": fresh_machine, "kernels": kernels}


def compute_run(state: Dict) -> PassResult:
    fresh_machine = state["fresh_machine"]
    consoles = {}
    failed = 0
    for kernel, size in state["kernels"]:
        results = []
        for cloaked in (False, True):
            machine = fresh_machine(cloaked=cloaked)
            machine.register(kernel, cloaked=cloaked)
            results.append(machine.run_program(kernel.name))
        native, cloaked_result = results
        # A unit is one kernel: it fails on a nonzero exit in either
        # configuration or when cloaking is not transparent.
        if (native.exit_code != 0 or cloaked_result.exit_code != 0
                or native.console != cloaked_result.console):
            failed += 1
        consoles[kernel.name] = {
            "size": size,
            "native": native.console.decode(errors="replace"),
            "cloaked": cloaked_result.console.decode(errors="replace"),
        }
    return PassResult(len(state["kernels"]), failed, {"consoles": consoles})


# ---------------------------------------------------------------------------
# serve-kv: an open-loop cloaked kvstore cluster
# ---------------------------------------------------------------------------

SERVE_REQUESTS = 4096
SERVE_REQUESTS_TINY = 128
#: Mean inter-arrival gap in virtual cycles.  Each of the two shards
#: sees one request per ~30k cycles and serves one in ~15k, so the
#: virtual system keeps up: p99 latency stays far below the deadline.
SERVE_MEAN_GAP = 15_000


def serve_setup(seed: int, tiny: bool) -> Dict:
    from repro.serve.cluster import (ClusterConfig, publish_snapshot,
                                     report_json, run_cluster)
    from repro.serve.loadgen import LoadSpec

    spec = LoadSpec(app="kvstore", arrival="poisson",
                    requests=SERVE_REQUESTS_TINY if tiny else SERVE_REQUESTS,
                    mean_gap=SERVE_MEAN_GAP, keys=256, put_pct=25, seed=seed)
    config = ClusterConfig(spec=spec, shards=2, cloaked=True, inline=True)
    # Boot, capture and publish the shard snapshot both shards restore.
    publish_snapshot(config)
    return {"config": config, "run_cluster": run_cluster,
            "report_json": report_json}


def serve_run(state: Dict) -> PassResult:
    report = state["run_cluster"](state["config"])
    cluster = report["cluster"]
    # A unit is one request: it fails when it never completes or its
    # status is not 200.
    failed = cluster["requests"] - cluster["completed"] + cluster["errors"]
    return PassResult(cluster["requests"], failed, {
        "report_digest": hashlib.sha256(
            state["report_json"](report).encode()).hexdigest(),
        "latency_p50_cycles": cluster["latency"]["p50"],
        "latency_p99_cycles": cluster["latency"]["p99"],
    })


#: name -> (setup, run).
WORKLOADS = {
    "fuzz-campaign": (fuzz_setup, fuzz_run),
    "compute-suite": (compute_setup, compute_run),
    "serve-kv": (serve_setup, serve_run),
}
