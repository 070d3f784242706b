package gpu

import (
	"math/bits"
	"slices"

	"gpufaultsim/internal/isa"
)

// firstCheckpoint is the CTA-relative issue count of the hang detector's
// first snapshot. Later snapshots double it (Brent's cycle detection), so
// a CTA that runs n issues takes about log2(n/firstCheckpoint) of them,
// and a cycle of period P entered after issue mu is found within the
// CTA's first 4*max(mu, P, firstCheckpoint) issues.
const firstCheckpoint = 1024

// hangState is the launch arena's cycle detector: one snapshot of the
// current CTA's whole state, taken at power-of-two issue counts from the
// CTA's start and compared with the state at the top of every later
// schedule step. Its buffers keep their capacity across CTAs and
// launches.
type hangState struct {
	on   bool   // the launch's hooks all opted in; cleared once a CTA matched
	base uint64 // Result.Issues when the CTA started
	next uint64 // Result.Issues at which the next snapshot is taken

	// The snapshot. rr is -1 while none is held, so no step matches it.
	at          uint64 // Result.Issues at the snapshot
	unit        [6]uint64
	ops         uint64
	rr          int
	live, ready uint64
	warps       []warpSnap
	rows        [][isa.WarpSize]uint32 // filled register rows, warp by warp
	shared      []uint32
	lo, hi      int32 // the global store range, [lo,hi)
	global      []uint32
}

// warpSnap is the part of a warp's state a CTA can change, except the
// register rows. The issue-set cache is left out: it is a function of the
// lane state whenever it is set.
type warpSnap struct {
	pc              [isa.WarpSize]int32
	exited, barrier uint32
	preds           [isa.WarpSize]uint8
	filled          uint64
}

// memoryless reports whether every hook opted in to the fast-forward.
func (d *Device) memoryless() bool {
	for _, h := range d.hooks {
		if m, ok := h.(MemorylessHook); !ok || !m.Memoryless() {
			return false
		}
	}
	return true
}

// startCTA arms the detector for a CTA that starts now.
func (h *hangState) startCTA(issues uint64) {
	h.base, h.next, h.rr = issues, issues+firstCheckpoint, -1
}

// fastForward runs once the CTA's state has recurred: the CTA is
// periodic, so the whole periods left before the watchdog are added to
// the counters, and detection stops for the rest of the launch.
func (st *launchState) fastForward() {
	h, res := &st.hang, &st.res
	p := res.Issues - h.at
	k := (st.dev.Cfg.MaxIssues - res.Issues) / p
	for u, n := range res.UnitIssues {
		res.UnitIssues[u] = n + k*(n-h.unit[u])
	}
	res.ThreadOps += k * (res.ThreadOps - h.ops)
	res.Issues += k * p
	res.Skipped += k * p
	h.on = false
}

// snapshot records the CTA's state and schedules the next snapshot at
// twice the CTA-relative issue count.
func (st *launchState) snapshot(rr int, live, ready uint64) {
	h, res := &st.hang, &st.res
	h.at, h.unit, h.ops = res.Issues, res.UnitIssues, res.ThreadOps
	h.next = h.at + (h.at - h.base)
	h.rr, h.live, h.ready = rr, live, ready
	h.warps, h.rows = h.warps[:0], h.rows[:0]
	for i := range st.warps {
		w := &st.warps[i]
		h.warps = append(h.warps, warpSnap{w.PC, w.Exited, w.Barrier, w.Preds, w.filled})
		for f := w.filled; f != 0; f &= f - 1 {
			h.rows = append(h.rows, w.regs[bits.TrailingZeros64(f)])
		}
	}
	h.shared = append(h.shared[:0], st.shared...)
	h.lo, h.hi = st.lo, st.hi
	h.global = h.global[:0]
	if st.lo < st.hi {
		h.global = append(h.global, st.dev.Global[st.lo:st.hi]...)
	}
}

// sameState reports whether the CTA's warps, shared segment and stored
// global words equal the snapshot, cheapest comparisons first. The
// caller has matched the scheduler state.
//
//vetsim:hotpath
func (st *launchState) sameState() bool {
	h := &st.hang
	for i := range st.warps {
		w, s := &st.warps[i], &h.warps[i]
		if w.PC != s.pc || w.Exited != s.exited || w.Barrier != s.barrier ||
			w.Preds != s.preds || w.filled != s.filled {
			return false
		}
	}
	rows := h.rows
	for i := range st.warps {
		w := &st.warps[i]
		for f := w.filled; f != 0; f &= f - 1 {
			if w.regs[bits.TrailingZeros64(f)] != rows[0] {
				return false
			}
			rows = rows[1:]
		}
	}
	return slices.Equal(st.shared, h.shared) && st.lo == h.lo && st.hi == h.hi &&
		(st.lo >= st.hi || slices.Equal(st.dev.Global[st.lo:st.hi], h.global))
}
