"""A victim application for the security evaluation (R-T4).

It places a recognisable secret in memory and in registers, announces
readiness, then keeps re-reading and verifying the secret across many
kernel entries — giving a malicious OS every opportunity to peek,
tamper, or replay, and the VMM every opportunity to catch it.
"""

from repro.apps.program import Program, UserContext

#: The secret the victims hold.
SECRET = b"CLASSIFIED-PAYROLL-DB-KEY-0xC0FFEE"

#: Register the victim parks a secret value in.
SECRET_REG = "r7"
SECRET_REG_VALUE = 0x5EC2E7C0FFEE


class SecretHolder(Program):
    """Writes SECRET, prints "ready", then verify-loops.

    argv: (rounds,)
    """

    name = "secretholder"
    #: What an attacker must never observe (the attack suite's matcher).
    MARKER = SECRET[:16]

    def __init__(self):
        self.secret_vaddr = None

    DECOY = b"second-page-decoy-record"

    def main(self, ctx: UserContext):
        rounds = int(ctx.argv[0]) if ctx.argv else 20
        # Two full data pages: the secret page and a decoy sibling
        # (gives remapping attacks something to swap with).
        base = ctx.scratch(2 * 4096)
        self.secret_vaddr = base
        decoy_vaddr = base + 4096
        yield ctx.store(self.secret_vaddr, SECRET)
        yield ctx.store(decoy_vaddr, self.DECOY)
        yield ctx.set_reg(SECRET_REG, SECRET_REG_VALUE)
        yield from ctx.print("ready\n")

        for round_no in range(rounds):
            # Each yield gives the scheduler (and an attacker) a window.
            yield ctx.sched_yield()
            data = yield ctx.load(self.secret_vaddr, len(SECRET))
            decoy = yield ctx.load(decoy_vaddr, len(self.DECOY))
            if data != SECRET or decoy != self.DECOY:
                yield from ctx.print(f"CORRUPTED at round {round_no}\n")
                return 2
            reg = yield ctx.get_reg(SECRET_REG)
            if reg != SECRET_REG_VALUE:
                yield from ctx.print(f"REGS CLOBBERED at round {round_no}\n")
                return 3
        yield from ctx.print("intact\n")
        return 0


class SecretFileWriter(Program):
    """Writes a secret record to a file, then verify-loops on it.

    argv: (path, rounds) — a ``/secure`` path exercises cloaked-file
    emulation; any other path is the unprotected baseline channel.
    """

    name = "secretfilewriter"

    RECORD = b"SECRET-LEDGER-ROW"
    MARKER = RECORD

    def main(self, ctx: UserContext):
        from repro.guestos import uapi

        path = ctx.argv[0] if ctx.argv else "/secure/ledger.dat"
        rounds = int(ctx.argv[1]) if len(ctx.argv) > 1 else 10

        fd = yield from ctx.open_path(path, uapi.O_CREAT | uapi.O_RDWR)
        if fd < 0:
            yield from ctx.print(f"open failed {fd}\n")
            return 1
        payload = self.RECORD * 8
        yield from ctx.write_bytes(fd, payload)
        yield ctx.sync()
        yield from ctx.print("ready\n")

        for round_no in range(rounds):
            yield ctx.sched_yield()
            yield ctx.lseek(fd, 0, uapi.SEEK_SET)
            data = yield from ctx.read_bytes(fd, len(payload))
            if data != payload:
                yield from ctx.print(f"FILE CORRUPTED at round {round_no}\n")
                return 2
        yield ctx.close(fd)
        yield from ctx.print("intact\n")
        return 0


class SecretWriter(Program):
    """Writes an evolving secret (versions) so replay attacks have an
    old version to roll back to.

    argv: (rounds,)
    """

    name = "secretwriter"
    MARKER = SECRET[:16]

    def __init__(self):
        self.secret_vaddr = None

    def main(self, ctx: UserContext):
        rounds = int(ctx.argv[0]) if ctx.argv else 6
        self.secret_vaddr = ctx.scratch(64)
        for version in range(rounds):
            payload = b"VERSION-%04d:" % version + SECRET[:32]
            yield ctx.store(self.secret_vaddr, payload)
            if version == 0:
                yield from ctx.print("ready\n")
            yield from ctx.print(f"v{version}\n")
            yield ctx.sched_yield()
            data = yield ctx.load(self.secret_vaddr, len(payload))
            if data != payload:
                yield from ctx.print("ROLLBACK OBSERVED\n")
                return 2
        yield from ctx.print("intact\n")
        return 0
