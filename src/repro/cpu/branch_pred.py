"""Combined branch predictor: gshare + bimodal with a meta chooser, a
set-associative BTB and a return-address stack (Table 2's front end)."""

from __future__ import annotations

from dataclasses import dataclass

from ..config import BranchPredConfig


@dataclass(slots=True)
class BranchStats:
    cond_branches: int = 0
    cond_mispredicts: int = 0
    btb_misses: int = 0
    returns: int = 0
    return_mispredicts: int = 0


class BranchPredictor:
    """See module docstring.

    The timing model calls :meth:`predict_cond` /(jump/return variants) at
    fetch time with the *actual* outcome; the predictor returns whether its
    prediction was correct and trains itself, so prediction accuracy is
    modelled without simulating wrong-path instructions.

    The three direction tables are plain lists of saturating 2-bit
    counters (initialized weakly taken, >= 2 predicts taken); each BTB set
    is a dict kept in LRU order, oldest entry first.
    """

    def __init__(self, cfg: BranchPredConfig) -> None:
        self.cfg = cfg
        self.stats = BranchStats()
        self._bimodal = [2] * cfg.bimodal_entries
        self._gshare = [2] * cfg.gshare_entries
        self._meta = [2] * cfg.meta_entries
        self._bimodal_mask = cfg.bimodal_entries - 1
        self._gshare_mask = cfg.gshare_entries - 1
        self._meta_mask = cfg.meta_entries - 1
        self._history = 0
        self._history_mask = (1 << cfg.history_bits) - 1
        self._btb_sets = cfg.btb_entries // cfg.btb_assoc
        self._btb: list[dict[int, int]] = [{} for __ in range(self._btb_sets)]
        self._btb_assoc = cfg.btb_assoc
        self._ras: list[int] = []

    # ------------------------------------------------------------------
    # BTB
    # ------------------------------------------------------------------

    def _btb_access(self, pc: int, target: int) -> bool:
        """Look ``pc`` up and install ``target`` as its most recent entry
        (evicting the set's least recently used one if full); True if the
        BTB already held ``target`` for ``pc``."""
        s = self._btb[pc % self._btb_sets]
        old = s.pop(pc, None)
        if old is None and len(s) >= self._btb_assoc:
            del s[next(iter(s))]
        s[pc] = target
        return old == target

    # ------------------------------------------------------------------
    # Prediction interfaces (predict + train in one call)
    # ------------------------------------------------------------------

    def predict_cond(self, pc: int, taken: bool, target: int) -> tuple[bool, bool]:
        """Predict a conditional branch; returns (direction_correct,
        target_known).  ``target_known`` is only meaningful when the branch
        is predicted taken."""
        st = self.stats
        st.cond_branches += 1
        history = self._history
        bimodal, gshare, meta = self._bimodal, self._gshare, self._meta
        bi = pc & self._bimodal_mask
        gi = (pc ^ (history << 2)) & self._gshare_mask
        b = bimodal[bi]
        g = gshare[gi]
        bim = b >= 2
        gsh = g >= 2
        mi = pc & self._meta_mask
        m = meta[mi]
        prediction = gsh if m >= 2 else bim
        # Train meta toward the component that was right.
        if gsh != bim:
            if gsh == taken:
                if m < 3:
                    meta[mi] = m + 1
            elif m > 0:
                meta[mi] = m - 1
        if taken:
            if b < 3:
                bimodal[bi] = b + 1
            if g < 3:
                gshare[gi] = g + 1
            self._history = ((history << 1) | 1) & self._history_mask
        else:
            if b > 0:
                bimodal[bi] = b - 1
            if g > 0:
                gshare[gi] = g - 1
            self._history = (history << 1) & self._history_mask

        correct = prediction == taken
        if not correct:
            st.cond_mispredicts += 1
        if not taken:
            return correct, True
        target_known = self._btb_access(pc, target)
        if not target_known:
            st.btb_misses += 1
        return correct, target_known

    def predict_jump(self, pc: int, target: int) -> bool:
        """Direct jump/call: returns True if the BTB knew the target."""
        known = self._btb_access(pc, target)
        if not known:
            self.stats.btb_misses += 1
        return known

    def on_call(self, return_pc: int) -> None:
        """Push the return address at a JAL."""
        if len(self._ras) >= self.cfg.ras_entries:
            del self._ras[0]
        self._ras.append(return_pc)

    def predict_return(self, target: int) -> bool:
        """Indirect jump through RA: returns True if the RAS was right."""
        self.stats.returns += 1
        predicted = self._ras.pop() if self._ras else None
        correct = predicted == target
        if not correct:
            self.stats.return_mispredicts += 1
        return correct
