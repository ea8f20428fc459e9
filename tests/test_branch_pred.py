"""Branch predictor: direction learning, BTB, RAS."""

from repro.config import BranchPredConfig
from repro.cpu.branch_pred import BranchPredictor


def make():
    return BranchPredictor(BranchPredConfig())


class TestConditional:
    def test_learns_always_taken(self):
        bp = make()
        wrong = 0
        for __ in range(50):
            correct, __t = bp.predict_cond(100, True, 50)
            wrong += not correct
        assert wrong <= 2  # warms up almost immediately

    def test_learns_alternating_via_history(self):
        bp = make()
        outcomes = [bool(i % 2) for i in range(200)]
        wrong = sum(
            not bp.predict_cond(100, t, 50)[0] for t in outcomes
        )
        # gshare captures the pattern after warmup
        assert wrong < 40

    def test_btb_learns_target(self):
        bp = make()
        __, known = bp.predict_cond(100, True, 55)
        assert not known  # cold BTB
        __, known = bp.predict_cond(100, True, 55)
        assert known

    def test_btb_target_change_detected(self):
        bp = make()
        bp.predict_cond(100, True, 55)
        bp.predict_cond(100, True, 55)
        __, known = bp.predict_cond(100, True, 77)
        assert not known

    def test_mispredict_ratio(self):
        bp = make()
        for __ in range(10):
            bp.predict_cond(7, True, 2)
        assert 0.0 <= bp.stats.mispredict_ratio <= 1.0
        assert bp.stats.cond_branches == 10


class TestJumpsAndReturns:
    def test_direct_jump_btb(self):
        bp = make()
        assert not bp.predict_jump(200, 300)
        assert bp.predict_jump(200, 300)

    def test_ras_matches_call_return(self):
        bp = make()
        bp.on_call(101)
        bp.on_call(201)
        assert bp.predict_return(201)
        assert bp.predict_return(101)

    def test_ras_mismatch(self):
        bp = make()
        bp.on_call(101)
        assert not bp.predict_return(999)
        assert bp.stats.return_mispredicts == 1

    def test_ras_empty_mispredicts(self):
        bp = make()
        assert not bp.predict_return(42)

    def test_ras_overflow_drops_oldest(self):
        bp = BranchPredictor(BranchPredConfig(ras_entries=2))
        bp.on_call(1)
        bp.on_call(2)
        bp.on_call(3)
        assert bp.predict_return(3)
        assert bp.predict_return(2)
        assert not bp.predict_return(1)  # dropped

    def test_btb_capacity_eviction(self):
        bp = BranchPredictor(BranchPredConfig(btb_entries=8, btb_assoc=2))
        sets = 4
        # fill one set beyond capacity: pcs congruent mod 4
        for pc in (0, 4, 8):
            bp.predict_jump(pc, pc + 100)
        assert not bp.predict_jump(0, 100)  # evicted (LRU was pc=0)

    def test_btb_evicts_least_recently_used(self):
        bp = BranchPredictor(BranchPredConfig(btb_entries=8, btb_assoc=2))
        # pcs 0, 4 and 8 share a set; a hit on 0 makes 4 the LRU entry.
        bp.predict_jump(0, 100)
        bp.predict_jump(4, 104)
        assert bp.predict_jump(0, 100)
        bp.predict_jump(8, 108)
        assert bp.predict_jump(0, 100)
        assert bp.predict_jump(8, 108)
        assert not bp.predict_jump(4, 104)  # evicted
