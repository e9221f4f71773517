"""The issue stage's general path: every case :meth:`Core._issue` does
not run inline.

``Core._issue`` executes integer ALU ops, conditional branches and
floating-point arithmetic itself, and issues ``load``/``fload``
through ``Core._issue_load`` while the controller keeps the current
mode's default load hooks.  Every other instruction reaches this
module only after two inline tests: in runahead mode an INV source
sends it to :meth:`IssuePaths._issue_inv`, then a busy unit defers
it.  Stores go to :meth:`IssuePaths._issue_store` and the rest to
:meth:`IssuePaths._try_issue` — other memory operations, other
control flow, ``fcvt``, vector ops and ``rdtsc`` — each with valid
sources and a free slot of its unit.

:class:`IssuePaths` is a base class of
:class:`~repro.pipeline.core.Core`; its methods read the core's state
directly.  The module also holds the constants both share.
"""

from __future__ import annotations

from ..isa.instructions import (INSTR_BYTES, WORD_BYTES, FuKind, Opcode,
                                to_signed64, to_unsigned64)
from ..obs.events import EV_INV as _EV_INV
from .rob import DISPATCHED

MODE_NORMAL = "normal"
MODE_RUNAHEAD = "runahead"

#: Pseudo-levels recorded on load entries.
LEVEL_FORWARD = "fwd"     # store-to-load forwarding
LEVEL_RUNAHEAD = "rac"    # runahead-cache hit
LEVEL_SL = "sl"           # SL-cache hit (secure runahead)

_MASK64 = (1 << 64) - 1

_RET = Opcode.RET
_CALL = Opcode.CALL
_JMP = Opcode.JMP
_JR = Opcode.JR
_RDTSC = Opcode.RDTSC
_CLFLUSH = Opcode.CLFLUSH
_STORE = Opcode.STORE
_VSTORE = Opcode.VSTORE
_FSTORE = Opcode.FSTORE
_FU_MEM = FuKind.MEM
_FU_BRANCH = FuKind.BRANCH

#: Sentinel returned through the issue path when an entry parked itself
#: on a store's wakeup list: it neither issued nor needs a retry — the
#: store's issue will re-queue it.
_WAIT = object()

#: Sentinel returned by ``normal_load_override`` to stall the load (the
#: SL cache's "wait for branch resolution" in Algorithm 1).
BLOCKED = object()


class SimulationError(RuntimeError):
    """Raised on internal inconsistencies (never on wrong-path garbage)."""


class IssuePaths:
    """The general issue path of :class:`~repro.pipeline.core.Core`."""

    def _operand(self, entry, index):
        """Read source ``index`` of ``entry``: (value, inv)."""
        producer = entry.src_producers[index]
        if producer is None:
            return self.reg_read(entry.instr.srcs[index])
        return producer.value, producer.inv

    def _try_issue(self, entry, now):
        """Execute ``entry`` — its sources valid, a slot of its unit
        free — if its path allows; sets value/completion.  Returns True,
        False (retry next cycle) or ``_WAIT`` (parked on a store)."""
        fu = entry.instr.fu
        if fu is _FU_MEM:
            return self._issue_mem(entry, now)
        if fu is _FU_BRANCH:
            return self._issue_branch(entry, now)
        entry.completion = now + self.fus.issue(fu)
        entry.value = self._execute_alu(entry)
        return True

    def _issue_inv(self, entry, now):
        """Poisoned instruction: propagate INV in one cycle, no FU."""
        entry.inv = True
        self.stats.inv_instructions += 1
        if self.trace is not None:
            self.trace.emit(now, _EV_INV, entry.seq, entry.pc)
        instr = entry.instr
        opcode = instr.opcode
        if opcode is _CALL or opcode is _RET:
            entry.value = 0
            entry.actual_target = None
        elif instr.store:
            entry.mem_addr = None
        entry.value = entry.value if entry.value is not None else 0
        entry.completion = now + 1
        return True

    def _execute_alu(self, entry):
        """Evaluate a non-memory, non-branch instruction that
        :meth:`Core._issue` does not execute inline."""
        instr = entry.instr
        opcode = instr.opcode
        if opcode is _RDTSC:
            return self.cycle
        values = [self._operand(entry, i)[0]
                  for i in range(instr.n_srcs)]
        if opcode is Opcode.FCVT:
            return float(to_signed64(_as_int(values[0])))
        if opcode in (Opcode.VADD, Opcode.VMUL):
            a, b = _as_vec(values[0]), _as_vec(values[1])
            if opcode is Opcode.VADD:
                return (to_unsigned64(a[0] + b[0]),
                        to_unsigned64(a[1] + b[1]))
            return (to_unsigned64(a[0] * b[0]), to_unsigned64(a[1] * b[1]))
        if opcode is Opcode.VSPLAT:
            value = _as_int(values[0])
            return (value, value)
        if opcode is Opcode.VEXTRACT:
            return _as_vec(values[0])[instr.imm & 1]
        raise SimulationError(f"unexpected ALU opcode: {opcode!r}")

    # -- branches ---------------------------------------------------------

    def _issue_branch(self, entry, now):
        instr = entry.instr
        opcode = instr.opcode
        if opcode is _CALL:
            return self._issue_call(entry, now)
        if opcode is _RET:
            return self._issue_ret(entry, now)

        self.fus.issue(_FU_BRANCH)
        if opcode is _JMP:
            entry.actual_taken = True
            entry.actual_target = instr.target
        elif opcode is _JR:
            entry.actual_taken = True
            entry.actual_target = _as_int(self._operand(entry, 0)[0]) & ~3
        entry.completion = now + 1
        entry.value = None
        return True

    def _issue_call(self, entry, now):
        """call = push return address (store) + direct jump."""
        blocker = self._blocking_store(entry)
        if blocker is not None:
            return self._wait_on_store(entry, blocker)
        self.fus.issue(_FU_BRANCH)
        sp, _ = self._operand(entry, 0)
        new_sp = to_unsigned64(_as_int(sp) - WORD_BYTES)
        entry.mem_addr = new_sp & ~(WORD_BYTES - 1)
        entry.store_value = entry.pc + INSTR_BYTES
        entry.value = new_sp
        entry.actual_taken = True
        entry.actual_target = entry.instr.target
        entry.completion = now + 1
        return True

    def _issue_ret(self, entry, now):
        """ret = pop return address (load) + indirect jump; the load
        takes a MEM port too."""
        if not self.fus.can_issue(_FU_MEM):
            return False
        sp, _ = self._operand(entry, 0)
        addr = _as_int(sp) & ~(WORD_BYTES - 1)
        outcome = self._load_value(entry, addr, now, as_type="int")
        if outcome is None:
            return False
        if outcome is _WAIT:
            return _WAIT
        value, completion, poisoned = outcome
        entry.value = to_unsigned64(_as_int(sp) + WORD_BYTES)
        entry.actual_taken = True
        entry.actual_target = None if poisoned else value & ~3
        entry.completion = completion
        return True

    # -- memory -----------------------------------------------------------

    def _issue_mem(self, entry, now):
        instr = entry.instr
        if instr.opcode is _CLFLUSH:
            base, _ = self._operand(entry, 0)
            addr = to_unsigned64(_as_int(base) + instr.imm)
            self.fus.issue(_FU_MEM)
            self.hierarchy.flush_line(addr)
            if self.mode == MODE_RUNAHEAD and self.checkpoint is not None \
                    and self.hierarchy.line_of(addr) == \
                    self.checkpoint.stalling_line:
                # Flushing the stalling line drops its in-flight fill; the
                # data must be re-fetched, prolonging runahead (Fig. 10 ③).
                refetch = self.hierarchy.access_data(addr, now, prefetch=True)
                self.extend_stall(refetch.completion)
            entry.completion = now + 1
            return True

        # Loads (``Core._issue`` sends stores to ``_issue_store``).
        base, _ = self._operand(entry, 0)
        addr = to_unsigned64(_as_int(base) + instr.imm) & ~(WORD_BYTES - 1)
        outcome = self._load_value(entry, addr, now, as_type=instr.load_type)
        if outcome is None:
            return False
        if outcome is _WAIT:
            return _WAIT
        value, completion, poisoned = outcome
        entry.value = value
        entry.inv = entry.inv or poisoned
        entry.completion = completion
        return True

    def _issue_store(self, entry, now):
        """A ``store``, ``fstore`` or ``vstore``, its sources valid and a
        MEM port free: claims the port and computes the address and the
        typed value."""
        if len(self.sq) > self.config.sq_size:
            raise SimulationError("store queue overflow")
        instr = entry.instr
        value, base = entry.src_producers
        value = self.arch_regs[instr.srcs[0]] if value is None \
            else value.value
        base = self.arch_regs[instr.srcs[1]] if base is None else base.value
        base = base & _MASK64 if type(base) is int else _as_int(base)
        self.fus.used[_FU_MEM] += 1
        entry.mem_addr = (base + instr.imm) & _MASK64 & ~(WORD_BYTES - 1)
        if type(value) is int and instr.opcode is _STORE:
            entry.store_value = value & _MASK64
        else:
            entry.store_value = _typed_store_value(instr.opcode, value)
        entry.completion = now + 1
        return True

    def _blocking_store(self, entry):
        """Oldest older store whose address is still unknown, or None.

        Conservative disambiguation: a load (or call) may not issue
        until every older store has computed its address.
        """
        seq = entry.seq
        for store in self.sq:
            if store.seq >= seq:
                break
            if store.state == DISPATCHED:
                return store
        return None

    def _wait_on_store(self, entry, blocker):
        """Park ``entry`` on ``blocker``'s wakeup list; returns ``_WAIT``.

        The entry leaves the ready heap entirely — it is re-queued the
        moment the blocking store issues (same cycle, in seq order)
        instead of being re-attempted every cycle.
        """
        if blocker.store_waiters is None:
            blocker.store_waiters = [entry]
        else:
            blocker.store_waiters.append(entry)
        return _WAIT

    @staticmethod
    def _store_covers(store, addr):
        """True if ``store`` writes the word at ``addr``."""
        mem_addr = store.mem_addr
        if mem_addr is None:
            return False
        if store.instr.opcode is _VSTORE:
            return addr == mem_addr or addr == mem_addr + WORD_BYTES
        return addr == mem_addr

    def _forward_from_store(self, entry, addr):
        """Youngest older store covering the same word, if any."""
        best = None
        seq = entry.seq
        for store in self.sq:
            if store.seq >= seq:
                break
            if self._store_covers(store, addr):
                best = store
        return best

    def _forwarded_value(self, store, addr, as_type):
        value = store.store_value
        if store.instr.opcode is _VSTORE:
            value = value[1] if addr == store.mem_addr + WORD_BYTES \
                else value[0]
        return _typed_load_value(as_type, value)

    def _load_value(self, entry, addr, now, as_type):
        """Common load path (loads and ret), a MEM port known free.

        Returns ``(value, completion, poisoned)`` or None if the load
        cannot issue yet.  Claims the MEM port on success.
        """
        fus = self.fus
        blocker = self._blocking_store(entry)
        if blocker is not None:
            return self._wait_on_store(entry, blocker)
        entry.mem_addr = addr

        if as_type == "vec":
            # A vector load overlapping any in-flight store waits for the
            # store to drain (conservative; avoids partial forwarding).
            seq = entry.seq
            for store in self.sq:
                if store.seq >= seq:
                    break
                if self._store_covers(store, addr) or \
                        self._store_covers(store, addr + WORD_BYTES):
                    return None
        else:
            store = self._forward_from_store(entry, addr)
            if store is not None:
                fus.issue(_FU_MEM)
                entry.mem_level = LEVEL_FORWARD
                if store.inv:
                    return 0, now + 1, True
                return self._forwarded_value(store, addr, as_type), \
                    now + 1, False

        if self.mode == MODE_RUNAHEAD:
            cached = self.runahead_cache.read(addr)
            if cached is not None:
                fus.issue(_FU_MEM)
                entry.mem_level = LEVEL_RUNAHEAD
                value, inv = cached
                latency = self.config.hierarchy.l1d.latency
                if inv:
                    return 0, now + latency, True
                return _typed_load_value(as_type, value), now + latency, False
            override = self.runahead.runahead_load_override(self, entry,
                                                            addr, now)
            if override is not None:
                fus.issue(_FU_MEM)
                entry.mem_level = LEVEL_SL
                value = self._read_memory_word(addr, as_type)
                return value, now + override, False

        if self.mode == MODE_NORMAL:
            override = self.runahead.normal_load_override(self, entry, addr,
                                                          now)
            if override is not None:
                if override is BLOCKED:
                    return None
                fus.issue(_FU_MEM)
                entry.mem_level = LEVEL_SL
                value = self._read_memory_word(addr, as_type)
                return value, now + override, False

        fus.issue(_FU_MEM)
        fill = True
        if self.mode == MODE_RUNAHEAD:
            fill = self.runahead.runahead_load_fill(self, entry)
        result = self.hierarchy.access_data(
            addr, now, fill=fill, prefetch=self.mode == MODE_RUNAHEAD)
        entry.mem_level = result.level

        if self.mode == MODE_RUNAHEAD:
            self.runahead.on_runahead_load(self, entry, result)
            if result.is_memory_level:
                # Mutlu'03: runahead loads that miss to memory launch the
                # prefetch but return INV without waiting.
                self.stats.runahead_prefetches += 1
                latency = self.config.hierarchy.l1d.latency
                return 0, now + latency, True
        else:
            self.runahead.on_normal_load(self, entry, result)

        value = self._read_memory_word(addr, as_type)
        return value, now + result.latency, False

    def _read_memory_word(self, addr, as_type):
        word = self.memory.read_word(addr)
        if as_type == "vec":
            second = self.memory.read_word(addr + WORD_BYTES)
            return (_as_int(word), _as_int(second))
        if as_type == "float":
            return float(word)
        return _as_int(word)


def _as_int(value):
    if type(value) is int:
        return value & _MASK64
    if isinstance(value, tuple):
        return to_unsigned64(value[0])
    return to_unsigned64(int(value))


def _as_vec(value):
    if isinstance(value, tuple):
        return value
    return (_as_int(value), _as_int(value))


def _typed_store_value(opcode, value):
    if opcode is _FSTORE:
        return float(value)
    if opcode is _VSTORE:
        return value if isinstance(value, tuple) else (_as_int(value), 0)
    return _as_int(value)


def _typed_load_value(as_type, value):
    if as_type == "float":
        return float(value) if not isinstance(value, tuple) else \
            float(value[0])
    if as_type == "vec":
        return value if isinstance(value, tuple) else (_as_int(value), 0)
    return _as_int(value)
