"""Taint tracking with Btag / IS tags (§6, Fig. 12).

The tracker consumes the *pseudo-retired instruction stream* of a
runahead episode in (speculative) program order and assigns to every
load:

* ``Btag = (n, m)`` — the load is the m-th *tainted* load within the
  scope of branch ``Bn`` (``m = 0`` for untainted loads inside a scope,
  ``Btag = None`` outside any scope);
* ``IS`` — the set of branch scopes whose tainted data feeds the load's
  address (possibly empty; non-empty IS outside any scope covers the
  "taint-related loads outside the branch scope" case of the paper).

Taint sources are *untrusted input registers* (the attacker-controlled
``rX``/``rY`` of Fig. 12, or a victim argument register).  An untrusted
value that feeds a load address inside scope ``Bn`` binds the taint to
``Bn``; load results propagate their scope set to dependents through ALU
operations.

Scopes are the fall-through bodies of unresolved forward conditional
branches (the compiler-provided ``Bns``/``Bne`` of the paper, which our
assembler exposes as :meth:`repro.isa.program.Program.scope_end`).
Unresolved *indirect* branches (``jr``/``ret`` with INV targets — the
Fig. 4 variants) get an episode-long scope with no end address: a
conservative generalization beyond the paper's conditional-branch
scheme, needed to cover SpectreBTB/RSB under the same defense.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

#: Taint label for raw untrusted inputs not yet bound to a branch scope.
UNTRUSTED = -1


@dataclass
class Scope:
    """One unresolved-branch scope."""

    scope_id: int
    branch_pc: int
    end_pc: Optional[int]        # None = open until episode end (indirect)
    predicted_taken: bool
    predicted_target: Optional[int]
    parent: Optional[int]        # enclosing scope id (nesting)
    tainted_loads: int = 0       # the per-scope m counter


@dataclass(frozen=True)
class TaintInfo:
    """Tags assigned to one instruction (meaningful for loads)."""

    btag: Optional[Tuple[int, int]]      # (scope id, m) or None
    is_set: FrozenSet[int]               # scope ids feeding the address

    def render_btag(self, names=None):
        if self.btag is None:
            return "0"
        n, m = self.btag
        label = names.get(n, f"B{n}") if names else f"B{n}"
        return f"{label},{m}"

    def render_is(self, names=None):
        if not self.is_set:
            return "0"
        labels = sorted(self.names(names))
        return ", ".join(labels)

    def names(self, names=None):
        return [(names.get(n, f"B{n}") if names else f"B{n}")
                for n in sorted(self.is_set)]


_CLEAN: FrozenSet[int] = frozenset()
#: Tags of every non-load whose sources are all clean (frozen: shareable).
_UNTAGGED = TaintInfo(btag=None, is_set=_CLEAN)


class TaintTracker:
    """Tracks register taint and branch scopes over one speculative stream.

    ``conservative=True`` treats *every* load inside an unresolved-branch
    scope as a USL (no untrusted-input annotations needed); the default
    matches the paper's restriction of USLs to secret-related loads.
    """

    def __init__(self, untrusted_regs=(), conservative=False):
        self._initial_untrusted = frozenset(untrusted_regs)
        self.conservative = conservative
        self.reg_taint: Dict[int, FrozenSet[int]] = {}
        self.scope_stack: List[Scope] = []
        self.scopes: Dict[int, Scope] = {}
        self._next_scope = 1
        self.reset()

    def reset(self):
        """Start a fresh episode: clear register taint and open scopes."""
        self.reg_taint = {reg: frozenset((UNTRUSTED,))
                          for reg in self._initial_untrusted}
        self.scope_stack = []

    # -- scope management ---------------------------------------------------------

    def open_scope(self, branch_pc, end_pc, predicted_taken,
                   predicted_target=None) -> Scope:
        """Push a scope for an unresolved branch."""
        parent = self.scope_stack[-1].scope_id if self.scope_stack else None
        scope = Scope(scope_id=self._next_scope, branch_pc=branch_pc,
                      end_pc=end_pc, predicted_taken=predicted_taken,
                      predicted_target=predicted_target, parent=parent)
        self._next_scope += 1
        self.scopes[scope.scope_id] = scope
        self.scope_stack.append(scope)
        return scope

    def _pop_ended_scopes(self, pc):
        while self.scope_stack:
            top = self.scope_stack[-1]
            if top.end_pc is not None and pc >= top.end_pc:
                self.scope_stack.pop()
            else:
                break

    def innermost(self) -> Optional[Scope]:
        return self.scope_stack[-1] if self.scope_stack else None

    def descendants(self, scope_id) -> Set[int]:
        """``scope_id`` plus every scope nested (transitively) inside it."""
        result = {scope_id}
        changed = True
        while changed:
            changed = False
            for scope in self.scopes.values():
                if scope.parent in result and scope.scope_id not in result:
                    result.add(scope.scope_id)
                    changed = True
        return result

    # -- instruction processing ------------------------------------------------------

    def on_instruction(self, pc, instr) -> TaintInfo:
        """Process one pseudo-retired instruction; returns its tags."""
        self._pop_ended_scopes(pc)
        # Per-pseudo-retire hot path: most sources are clean, so join
        # only the tainted ones and allocate nothing when there are none.
        reg_taint = self.reg_taint
        srcs_taint = _CLEAN
        for src in instr.srcs:
            taint = reg_taint.get(src)
            if taint:
                srcs_taint = srcs_taint | taint if srcs_taint else taint

        if instr.load:
            return self._on_load(instr, srcs_taint)

        # ALU and friends: propagate the union of input taints.
        if instr.dest is not None:
            if srcs_taint:
                reg_taint[instr.dest] = srcs_taint
            else:
                reg_taint.pop(instr.dest, None)
        if not srcs_taint:
            return _UNTAGGED
        return TaintInfo(btag=None, is_set=frozenset(
            label for label in srcs_taint if label != UNTRUSTED))

    def _on_load(self, instr, addr_taint):
        scope = self.innermost()
        scope_part = frozenset(l for l in addr_taint if l != UNTRUSTED) \
            if addr_taint else _CLEAN
        if UNTRUSTED in addr_taint and scope is not None:
            scope_part |= {scope.scope_id}
        if self.conservative and scope is not None:
            scope_part |= {scope.scope_id}
        tainted = bool(scope_part)

        if scope is not None:
            if tainted:
                scope.tainted_loads += 1
                btag = (scope.scope_id, scope.tainted_loads)
            else:
                btag = (scope.scope_id, 0)
        else:
            btag = None

        if instr.dest is not None:
            if scope_part:
                self.reg_taint[instr.dest] = scope_part
            else:
                self.reg_taint.pop(instr.dest, None)
        return TaintInfo(btag=btag, is_set=scope_part)
