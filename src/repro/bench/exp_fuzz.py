"""R-T6: differential fuzzing campaign (extension).

The transparency, determinism, and hygiene claims of R-T2..R-T5 are
only as strong as the workloads behind them — 41 hand-written
programs.  This experiment re-asserts the same invariants over a
*generated* population: a seeded campaign of self-checking guest
programs (:mod:`repro.gen`) spanning weighted mixes of file I/O,
mmap/brk, fork/exec trees, pipes, signal storms, and secret-marker
placement, each run native-vs-cloaked under the differential oracle
with a rotating fault-injection arm.

Headline claims:

* zero divergences — every generated program's architectural state is
  identical native and cloaked, with no violations and no marker
  exposure;
* full surface — the campaign's static footprint covers every syscall
  in the guest ABI, and its cloaked runs walk past every registered
  fault-injection site;
* containment — each rotating armed site classifies RECOVERED or
  DETECTED, never EXPOSED or CORRUPTED.

Also the home of ``python -m repro fuzz`` (:func:`fuzz_main`).
"""

from typing import List

from repro import cli
from repro.bench.tables import Table
from repro.gen import golden
from repro.gen.driver import CampaignReport, parse_replay_token, run_campaign
from repro.gen.generator import generate
from repro.gen.shrink import check_failure

CAMPAIGN_SEED = 0
CAMPAIGN_COUNT = 64


def run(verbose: bool = True, seed: int = CAMPAIGN_SEED,
        count: int = CAMPAIGN_COUNT,
        fault_sites: bool = True) -> CampaignReport:
    report = run_campaign(campaign_seed=seed, count=count,
                          fault_sites=fault_sites)
    if verbose:
        table = Table(
            f"R-T6: differential fuzzing campaign "
            f"(seed {seed}, {count} generated programs)",
            ["preset", "programs", "ops", "determinism runs", "fault arms",
             "contained", "failures"],
        )
        presets = sorted(set(slot.preset for slot in report.slots))
        for preset in presets:
            slots = [s for s in report.slots if s.preset == preset]
            armed = [s for s in slots if s.fault_site is not None]
            table.add_row(
                preset, len(slots), sum(s.ops for s in slots),
                sum(1 for s in slots if s.determinism_checked),
                len(armed),
                sum(1 for s in armed
                    if s.fault_outcome in ("RECOVERED", "DETECTED")),
                sum(1 for s in slots if not s.ok),
            )
        table.show()
        print(f"  syscall coverage: {len(report.syscalls)} reached, "
              f"missing {report.syscalls_missing() or 'none'}")
        print(f"  fault-site coverage: {len(report.fault_sites)}/14, "
              f"missing {report.fault_sites_missing() or 'none'}")
        print(f"  probe coverage: {len(report.probes)} event kinds")
        print(f"  report digest: {report.digest()}")
        for slot in report.failures():
            print(f"  FAILURE slot {slot.slot} [{slot.status}] "
                  f"{slot.detail}\n    replay: {slot.replay}")
    return report


def zero_divergences(report: CampaignReport) -> bool:
    """The headline claim: the generated population finds nothing."""
    return report.ok


def _fuzz_parser():
    parser = cli.command_parser(
        "fuzz", "Run a seeded campaign of generated self-checking guest "
        "programs native-vs-cloaked under the differential oracle.")
    cli.add_seed(parser, CAMPAIGN_SEED)
    parser.add_argument("--count", type=int, default=CAMPAIGN_COUNT,
                        metavar="N",
                        help="generated programs (default: %(default)s)")
    parser.add_argument("--fault-sites", action="store_true",
                        help="arm a rotating fault-injection site per slot")
    parser.add_argument("--no-shrink", dest="shrink", action="store_false",
                        help="report failures without shrinking them")
    cli.add_out(parser)
    parser.add_argument("--replay", type=parse_replay_token,
                        metavar="SEED:SPEC",
                        help="re-run one reproducer exactly as a failing "
                             "campaign printed it")
    parser.add_argument("--write-golden", nargs="?", const=golden.DEFAULT_PATH,
                        metavar="PATH",
                        help="regenerate the pinned generator listings "
                             "(default PATH: %(const)s)")
    return parser


def fuzz_main(argv: List[str]) -> int:
    """``python -m repro fuzz``: seeded differential fuzzing."""
    opts, status = cli.parse(_fuzz_parser(), argv)
    if opts is None:
        return status

    if opts.replay is not None:
        seed, spec = opts.replay
        plan = generate(seed, spec)
        print(f"replaying {plan.name}: seed={seed} preset={spec.preset} "
              f"ops={len(plan.ops)}")
        for line in plan.listing():
            print(f"  {line}")
        kind, detail = check_failure(seed, spec)
        if kind is None:
            print("replay: PASS (native and cloaked agree, hygiene clean)")
            return 0
        print(f"replay: FAIL [{kind}] {detail}")
        return 1

    if opts.write_golden is not None:
        written = golden.write_golden(opts.write_golden)
        print(f"golden listings written: {written}")
        return 0

    report = run_campaign(
        campaign_seed=opts.seed,
        count=opts.count,
        fault_sites=opts.fault_sites,
        shrink_failures=opts.shrink,
        verbose=True,
    )
    print(f"\nfuzz: {report.count} programs, "
          f"{len(report.failures())} failures, "
          f"syscalls missing {report.syscalls_missing() or 'none'}, "
          f"fault sites {len(report.fault_sites)}/14")
    print(f"report digest: {report.digest()}")
    if opts.out is not None:
        with open(opts.out, "w") as sink:
            sink.write(report.to_json())
        print(f"report written: {opts.out}")
    return 0 if report.ok else 1
