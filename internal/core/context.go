package core

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/queue"
	"repro/internal/regfile"
	"repro/internal/rename"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Context is one hardware thread context. The paper replicates fetch and
// dispatch state, register map tables, register files and all queues per
// context; the issue logic, functional units and caches are shared (and
// live in Core).
type Context struct {
	// ID is the thread index.
	ID int
	// Exhausted marks that the source has run dry; the thread idles.
	Exhausted bool

	// src is the thread's instruction stream, read a chunk at a time;
	// win holds the current chunk's unread records. Fetch and the
	// functional warp peek at &win[0] — fetch must inspect an
	// instruction before deciding to consume it, because the
	// control-speculation limit stops *before* a branch — and consume by
	// reslicing.
	src trace.Chunker
	win []isa.Inst

	// FetchBuf holds fetched instructions awaiting dispatch. Its length
	// is the ICOUNT fetch-policy metric.
	FetchBuf *queue.Ring[*DynInst]
	// APQ and EPQ are the per-unit in-order issue queues. EPQ is the
	// paper's Instruction Queue — the decoupling slippage window.
	APQ, EPQ *queue.Ring[*DynInst]
	// ROB is the reorder buffer (program order, graduation from the head).
	ROB *queue.Ring[*DynInst]
	// SAQ is the store address queue: stores from dispatch until their
	// data is written to the cache. Loads check it for older conflicting
	// stores.
	SAQ *queue.Ring[*DynInst]

	// APFile and EPFile are the physical register files.
	APFile, EPFile *regfile.File
	// Map is the architectural→physical register map table.
	Map *rename.Table
	// Pred is the thread's private branch predictor.
	Pred branch.Predictor

	// NextSeq numbers dynamic instructions in program order.
	NextSeq int64
	// Unresolved counts in-flight (fetched, unresolved) branches; fetch
	// stalls at the speculation limit.
	Unresolved int
	// issuedBranches holds issued branches awaiting resolution. Branches
	// issue in program order with a fixed latency, so their DoneAt times
	// are monotone and the queue resolves strictly from the head — no
	// scan, no reordering.
	issuedBranches *queue.Ring[*DynInst]
	// nextBranchResolveAt is the head of issuedBranches' DoneAt (Never
	// when empty): resolveBranches skips the context until that cycle,
	// and fast-forward uses it as the branch event bound. Maintained at
	// branch issue and after every resolution pass.
	nextBranchResolveAt int64
	// FetchBlocked is the mispredicted branch currently freezing fetch.
	FetchBlocked *DynInst
	// FetchResumeAt is the earliest cycle fetch may resume after a
	// mispredict redirect.
	FetchResumeAt int64

	// PendingAccess lists issued loads awaiting cache acceptance, in age
	// order.
	PendingAccess []*DynInst
	// nextAccessAt is the earliest cycle a pending load can probe the
	// cache (now+1 when one is blocked and must retry): cacheAccess's
	// active-set gate. Maintained at load issue and after every walk.
	nextAccessAt int64

	// gradNextAt is the earliest cycle the ROB head can possibly
	// graduate, when that bound is known (0 = probe every cycle, Never =
	// parked on an empty ROB until dispatch pushes): graduate's
	// active-set gate.
	gradNextAt int64

	// issueStall caches a provably-stalled stream head's verdict per
	// unit: until the recorded cycle, issueStream replays the verdict —
	// reason, and the head's memory-stall accrual via mem — without
	// walking the queue. Armed only for blocking conditions with a known
	// expiry; the empty-queue verdict (until = Never) is disarmed by the
	// next dispatch push.
	issueStall [isa.NumUnits]issueStall

	// sinceLoD counts fetched instructions toward the next
	// loss-of-decoupling event (config.Speculation.LoDEvery), and
	// lodPending holds fetch until the execute queue drains once one
	// fires. Untouched (always zero) when the extension is off.
	sinceLoD   int64
	lodPending bool

	// files indexes the physical register files by unit (branch-free
	// file()).
	files [isa.NumUnits]*regfile.File

	// pool recycles DynInst allocations.
	pool []*DynInst
}

// issueStall is one stream's cached stall verdict (see Context.issueStall).
type issueStall struct {
	until  int64
	reason stats.WasteReason
	mem    *DynInst // head charged with MemStall while cached, if any
}

// newContext builds a context for machine m.
func newContext(id int, m config.Machine, src trace.Reader) (*Context, error) {
	kind := m.Predictor
	if kind == "" {
		kind = branch.KindBHT
	}
	pred, err := branch.New(kind, m.BHTEntries)
	if err != nil {
		return nil, err
	}
	maxBr := m.MaxUnresolvedBranches
	if maxBr < 1 {
		maxBr = 1
	}
	c := &Context{
		ID:                  id,
		src:                 trace.Chunks(src),
		nextBranchResolveAt: Never,
		issuedBranches:      queue.New[*DynInst](maxBr),
		FetchBuf:            queue.New[*DynInst](m.FetchBufSize),
		APQ:                 queue.New[*DynInst](m.APQSize),
		EPQ:                 queue.New[*DynInst](m.IQSize),
		ROB:                 queue.New[*DynInst](m.ROBSize),
		SAQ:                 queue.New[*DynInst](m.SAQSize),
		APFile:              regfile.New(m.APRegs),
		EPFile:              regfile.New(m.EPRegs),
		Map:                 rename.NewTable(),
		Pred:                pred,
	}
	c.files[isa.AP] = c.APFile
	c.files[isa.EP] = c.EPFile
	if err := c.Map.Init(c.APFile, c.EPFile); err != nil {
		return nil, fmt.Errorf("thread %d: %w", id, err)
	}
	return c, nil
}

// file returns the register file for the given unit.
func (c *Context) file(u isa.Unit) *regfile.File { return c.files[u] }

// poolBlock is the batch size of DynInst pool growth: one backing array
// per block amortizes ramp-up allocation and keeps in-flight instructions
// dense in memory.
const poolBlock = 64

// alloc takes a DynInst from the pool (growing it a block at a time) and
// resets it. In steady state the pool recycles without allocating.
func (c *Context) alloc() *DynInst {
	if len(c.pool) == 0 {
		block := make([]DynInst, poolBlock)
		for i := range block {
			c.pool = append(c.pool, &block[i])
		}
	}
	n := len(c.pool) - 1
	d := c.pool[n]
	c.pool = c.pool[:n]
	d.reset()
	return d
}

// release returns a graduated DynInst to the pool.
func (c *Context) release(d *DynInst) {
	c.pool = append(c.pool, d)
}

// peekSource returns the next trace instruction without consuming it:
// a pointer into the current chunk, valid until consumeSource.
func (c *Context) peekSource() (*isa.Inst, bool) {
	if len(c.win) == 0 && !c.refill() {
		return nil, false
	}
	return &c.win[0], true
}

// refill loads the source's next chunk into the window, marking the
// context exhausted when the source has run dry.
func (c *Context) refill() bool {
	if c.Exhausted {
		return false
	}
	c.win = c.src.NextChunk()
	if len(c.win) == 0 {
		c.Exhausted = true
		return false
	}
	return true
}

// consumeSource consumes the peeked instruction.
func (c *Context) consumeSource() { c.win = c.win[1:] }

// InFlight returns the number of instructions in the ROB (dispatched, not
// graduated), used by tests and the drain logic.
func (c *Context) InFlight() int { return c.ROB.Len() }
