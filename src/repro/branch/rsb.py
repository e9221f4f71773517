"""Return stack buffer.

A small circular stack of return addresses: ``call`` pushes, ``ret`` pops
the prediction.  Crucially, the RSB predicts from its *own* copy of the
return address while the architectural ``ret`` reads the in-memory stack —
the divergence SpectreRSB exploits by overwriting (Fig. 4b) or flushing
(Fig. 4c) the stack slot.

The whole speculative state is one immutable tuple ``(entries, top,
depth)``: a push builds a new one, a pop rebinds it.  :meth:`snapshot`
is therefore the state itself — O(1) per predicted branch, and no later
push or pop can change a snapshot already taken.
"""

from __future__ import annotations

from typing import Optional, Tuple


class ReturnStackBuffer:
    """Fixed-capacity circular return-address stack."""

    def __init__(self, capacity=16):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.reset()

    def push(self, return_address):
        """Record a call's return address (wraps around when full)."""
        entries, top, depth = self._state
        self._state = (entries[:top] + (return_address,) + entries[top + 1:],
                       (top + 1) % self.capacity,
                       depth + 1 if depth < self.capacity else depth)

    def pop(self) -> Optional[int]:
        """Predict a return target; None on underflow."""
        entries, top, depth = self._state
        if depth == 0:
            self.underflows += 1
            return None
        top = (top - 1) % self.capacity
        self._state = (entries, top, depth - 1)
        return entries[top]

    def snapshot(self) -> Tuple:
        """The speculative state (immutable, so no copy is needed)."""
        return self._state

    def restore(self, snap):
        self._state = snap

    def reset(self):
        self._state = ((None,) * self.capacity, 0, 0)
        self.underflows = 0
