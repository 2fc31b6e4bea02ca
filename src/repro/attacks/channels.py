"""IPC attacks: the kernel owns every byte that transits its pipes.

Against plain FIFOs this is a freebie (sniff the buffer, rewrite it).
Against sealed channels (FIFOs under ``/secure``) the kernel moves
only sealed records: sniffing yields ciphertext and any rewrite or
re-injection fails verification at CHANNEL_OPEN.
"""

from repro.apps.program import Program
from repro.apps.secrets import SECRET
from repro.attacks.base import Attack, AttackReport
from repro.guestos import uapi
from repro.guestos.pipes import Pipe
from repro.guestos.process import Process
from repro.machine import Machine


class SecretChannelPair(Program):
    """Victim: streams SECRET to a forked same-identity peer.

    argv: (fifo_path,)
    """

    name = "secretchannelpair"
    MARKER = SECRET[:16]

    def child(self, ctx, path_vaddr, path_len):
        fd = yield ctx.open(path_vaddr, path_len, uapi.O_RDONLY)
        buf = ctx.scratch(128)
        got = b""
        while len(got) < len(SECRET):
            count = yield ctx.read(fd, buf, len(SECRET) - len(got))
            if not isinstance(count, int) or count <= 0:
                break
            got += (yield ctx.load(buf, count))
        yield ctx.close(fd)
        return 0 if got == SECRET else 2

    def main(self, ctx):
        path = ctx.argv[0] if ctx.argv else "/secure/chan"
        path_vaddr, path_len = yield from ctx.put_string(path)
        yield ctx.mkfifo(path_vaddr, path_len)
        yield from ctx.print("ready\n")
        pid = yield ctx.fork(self.child, path_vaddr, path_len)
        fd = yield ctx.open(path_vaddr, path_len, uapi.O_WRONLY)
        buf = ctx.scratch(128)
        yield ctx.store(buf, SECRET)
        yield ctx.write(fd, buf, len(SECRET))
        yield ctx.close(fd)
        result = yield ctx.waitpid(pid)
        yield from ctx.print("intact\n" if result[1] == 0 else "peer-failed\n")
        return result[1]


class _PipeInterposer(Attack):
    """Base: patch the pipe layer for the rest of the run."""

    def _with_pipe_hook(self, machine: Machine, victim: Process, on_write):
        original_write = Pipe.write

        def hooked(pipe_self, data):
            result = original_write(pipe_self, data)
            on_write(pipe_self, bytes(data))
            return result

        Pipe.write = hooked
        try:
            final = self.finish(machine, victim)
        finally:
            Pipe.write = original_write
        return final


class ChannelSniff(_PipeInterposer):
    name = "channel-sniff"
    description = "kernel records every byte written to the IPC pipe"

    def run(self, machine: Machine, victim: Process) -> AttackReport:
        captured = bytearray()

        def on_write(pipe, data):
            captured.extend(data)

        final = self._with_pipe_hook(machine, victim, on_write)
        return self.verdict(
            machine, victim, final,
            leaked=self.observed_plaintext(victim, bytes(captured)),
            detail=f"captured={len(captured)}B, victim: {final.strip()!r}")


class ChannelTamper(_PipeInterposer):
    name = "channel-tamper"
    description = "kernel rewrites bytes inside the IPC pipe buffer"

    def run(self, machine: Machine, victim: Process) -> AttackReport:
        state = {"tampered": False}

        def on_write(pipe, data):
            if not state["tampered"] and len(pipe) > 10:
                pipe._buffer[9] ^= 0x01
                state["tampered"] = True

        final = self._with_pipe_hook(machine, victim, on_write)
        return self.verdict(
            machine, victim, final,
            detail=f"tampered={state['tampered']}, victim: {final.strip()!r}")
