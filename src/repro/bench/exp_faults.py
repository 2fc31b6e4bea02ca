"""R-T5: the fault-recovery outcome matrix (extension).

Companion to R-T4: where the attack matrix shows *malice* cannot
defeat cloaking, this table shows *misfortune* cannot either.  Every
registered injection point is armed against a cloaked workload and the
run is classified by the differential oracle — the headline claim is
that every row lands on RECOVERED or DETECTED, never on EXPOSED
(plaintext became kernel-visible) or CORRUPTED (silent divergence).

Availability is explicitly sacrificial, exactly as in the paper: a
detected fault may kill the workload, but it announces itself as a
typed violation first.

Also the home of ``python -m repro faults`` (:func:`faults_main`).
"""

from typing import List

from repro import cli
from repro.bench.tables import Table
from repro.faults import oracle

MATRIX_SEED = 7


def run(verbose: bool = True, seed: int = MATRIX_SEED) -> List["oracle.MatrixRow"]:
    rows = oracle.run_fault_matrix(seed=seed)
    if verbose:
        table = Table(
            f"R-T5: fault-recovery matrix (cloaked victims, seed {seed})",
            ["injection point", "workload", "arm", "opps", "fires",
             "outcome"],
        )
        for row in rows:
            table.add_row(row.site, row.app, row.arm, row.opportunities,
                          row.fires, row.outcome)
        table.show()
    return rows


def all_contained(rows: List["oracle.MatrixRow"]) -> bool:
    """The headline claim: every fault recovers or is detected."""
    return oracle.matrix_contained(rows)


def faults_main(argv: List[str]) -> int:
    """``python -m repro faults``: the fault-injection oracle."""
    parser = cli.command_parser(
        "faults", "Run the differential conformance sweep (every "
        "registered app, native vs cloaked, double-run determinism) and "
        "the fault-recovery matrix; exit 1 if any invariant fails.")
    cli.add_seed(parser, MATRIX_SEED)
    parser.add_argument("--matrix-only", action="store_true",
                        help="skip the (slower) conformance sweep")
    opts, status = cli.parse(parser, argv)
    if opts is None:
        return status

    failures = 0
    if not opts.matrix_only:
        print("## differential conformance (native vs cloaked, "
              "double-run determinism)")
        results = oracle.run_conformance(verbose=True)
        bad = [r for r in results if not r.ok]
        failures += len(bad)
        print(f"conformance: {len(results)} programs, "
              f"{len(bad)} failures")

    print(f"\n## fault-recovery matrix (seed {opts.seed})")
    rows = run(verbose=True, seed=opts.seed)
    escaped = [r for r in rows
               if r.outcome not in oracle.CONTAINED_OUTCOMES]
    unfired = [r for r in rows if r.fires == 0]
    for row in escaped:
        print(f"NOT CONTAINED: {row.site} -> {row.outcome}  "
              f"replay: {row.replay}")
    for row in unfired:
        print(f"NEVER FIRED: {row.site}  replay: {row.replay}")
    failures += len(escaped) + len(unfired)
    print("fault matrix: "
          + ("all contained" if not (escaped or unfired) else "FAILED"))
    return 1 if failures else 0
