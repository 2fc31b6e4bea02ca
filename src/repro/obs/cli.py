"""``python -m repro trace`` — run a program with the probe bus on.

``<program>`` is any registered app (``python -m repro trace mb-read4k
--cloaked``); the pseudo-program ``microbench`` runs the entire
syscall microbenchmark suite on one machine.  ``--out`` writes Chrome
trace-event JSON (load it at https://ui.perfetto.dev — the timeline
unit is *virtual cycles*), ``--jsonl`` the line-per-event form, and
``--metrics``/``--metrics-out`` the counter/histogram snapshot.  The
flame summary and page-thrash report always print unless ``--quiet``.
``python -m repro trace --help`` lists every flag.

Everything emitted is derived from the deterministic virtual-cycle
world, so repeated invocations produce byte-identical files.
"""

from typing import List, Tuple

from repro import cli


def _parser():
    parser = cli.command_parser(
        "trace", "Run a program with the probe bus on; print a cycle "
        "flame summary and a page-thrash report.")
    parser.add_argument("program",
                        help="a registered app, or microbench for the "
                             "whole syscall microbenchmark suite")
    parser.add_argument("args", nargs="*",
                        help="arguments passed to the program")
    parser.add_argument("--cloaked", action="store_true", default=True,
                        help="run the program cloaked (the default)")
    parser.add_argument("--native", dest="cloaked", action="store_false",
                        help="run the program uncloaked")
    cli.add_out(parser)
    parser.add_argument("--jsonl", metavar="PATH",
                        help="write one JSON object per event to PATH")
    parser.add_argument("--metrics", action="store_true",
                        help="print the counter/histogram snapshot")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="write the metrics snapshot to PATH "
                             "(implies --metrics)")
    parser.add_argument("--top", type=int, default=10, metavar="N",
                        help="hottest pages in the thrash report "
                             "(default: %(default)s)")
    parser.add_argument("--quiet", action="store_true",
                        help="skip the flame summary and thrash report")
    return parser


def _run_traced(program: str, args: Tuple[str, ...], cloaked: bool,
                want_metrics: bool):
    """Build a machine, attach sinks, run; returns the sink bundle."""
    from repro.bench.runner import fresh_machine
    from repro.obs import bus
    from repro.obs.export import TraceRecorder
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profile import CycleProfiler

    machine = fresh_machine(cloaked=cloaked)
    recorder = TraceRecorder()
    metrics = MetricsRegistry() if want_metrics else None
    profiler = CycleProfiler(machine.cycles)

    bus.attach(recorder, machine.cycles)
    if metrics is not None:
        bus.attach(metrics, machine.cycles)
    profiler.attach()
    exit_codes = []
    try:
        if program == "microbench":
            from repro.apps.microbench import MICRO_SUITE

            for program_cls in MICRO_SUITE:
                result = machine.run_program(program_cls.name, args)
                exit_codes.append((program_cls.name, result.exit_code))
        else:
            result = machine.run_program(program, args)
            exit_codes.append((program, result.exit_code))
    finally:
        profiler.detach()
        if metrics is not None:
            bus.detach(metrics)
        bus.detach(recorder)
    return machine, recorder, metrics, profiler, exit_codes


def main(argv: List[str]) -> int:
    opts, status = cli.parse(_parser(), argv, intermixed=True)
    if opts is None:
        return status

    try:
        machine, recorder, metrics, profiler, exit_codes = _run_traced(
            opts.program, tuple(opts.args), opts.cloaked,
            opts.metrics or opts.metrics_out is not None)
    except KeyError as exc:
        print(f"trace: unknown program {exc}")
        return 2

    from repro.obs import export

    world = "cloaked" if opts.cloaked else "native"
    distinct = len({name for name, __, __a in recorder.events})
    print(f"trace: {opts.program} ({world}), {len(recorder.events)} events "
          f"across {distinct} probes, "
          f"{machine.cycles.total:,} virtual cycles")
    failed = [(name, code) for name, code in exit_codes if code != 0]
    for name, code in failed:
        print(f"trace: {name} exited {code}")

    if not opts.quiet:
        print()
        print(profiler.render_flame())
        print()
        print(profiler.render_thrash(opts.top))
        if metrics is not None:
            print()
            print(metrics.render())

    if opts.out is not None:
        path = export.write_chrome_trace(recorder.events, opts.out)
        print(f"wrote Chrome trace to {path} "
              "(open at https://ui.perfetto.dev; clock = virtual cycles)")
    if opts.jsonl is not None:
        path = export.write_jsonl(recorder.events, opts.jsonl)
        print(f"wrote JSONL trace to {path}")
    if metrics is not None and opts.metrics_out is not None:
        from pathlib import Path

        Path(opts.metrics_out).write_text(metrics.to_json(),
                                          encoding="utf-8")
        print(f"wrote metrics snapshot to {opts.metrics_out}")
    return 1 if failed else 0
