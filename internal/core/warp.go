package core

// This file implements the machinery behind sampled execution: draining
// the pipeline to a clean architectural boundary, and the functional
// warp that advances trace cursors, branch-predictor state and the cache
// footprint across a sampling gap without simulating any timing.

// drainMaxCycles bounds a pipeline drain as a deadlock guard; real
// drains finish within queue depths × memory latencies, orders of
// magnitude sooner.
const drainMaxCycles = 1 << 20

// PipelineEmpty reports whether every context's pipeline state has
// drained: nothing fetched awaiting dispatch, nothing in flight in the
// ROB, no store awaiting commit. (An empty ROB implies the issue queues
// and issued-branch list are empty too — every dispatched instruction
// sits in the ROB until it graduates.)
func (c *Core) PipelineEmpty() bool {
	for _, ctx := range c.ctxs {
		if ctx.FetchBuf.Len() > 0 || ctx.ROB.Len() > 0 || ctx.SAQ.Len() > 0 {
			return false
		}
	}
	return true
}

// DrainPipeline freezes fetch and ticks the machine until the pipeline
// has emptied and the memory system has no miss in flight — the clean
// boundary the functional warp resumes from — then unfreezes fetch. It
// reports whether the drain completed within the cycle guard. The
// drained cycles are simulated normally and land in the current
// statistics window; the sampling driver resets statistics afterwards.
func (c *Core) DrainPipeline() bool {
	c.fetchFrozen = true
	limit := c.now + drainMaxCycles
	for !(c.PipelineEmpty() && c.mem.Quiescent()) && c.now < limit {
		c.Tick()
	}
	c.fetchFrozen = false
	return c.PipelineEmpty() && c.mem.Quiescent()
}

// warpRound advances at most one instruction per context (round-robin
// fairness, mirroring fetch's rotation) up to n total, returning how
// many were consumed. Exhausted contexts are skipped.
func (c *Core) warpRound(n int64) int64 {
	var done int64
	for _, ctx := range c.ctxs {
		if done >= n {
			break
		}
		in, ok := ctx.peekSource()
		if !ok {
			continue
		}
		if in.IsBranch() {
			// Train the predictor exactly as fetch would (fetch updates at
			// fetch time, in architectural order), so prediction accuracy
			// carries across the gap.
			ctx.Pred.Update(in.PC, in.Taken)
		} else if in.IsMem() {
			c.mem.Warm(in.Addr, in.IsStore())
		}
		ctx.consumeSource()
		done++
	}
	return done
}

// Warp advances architectural state by up to n instructions without any
// timing: trace cursors move, branch predictors train, and the memory
// footprint warms the caches functionally. Simulated time does not
// advance and no statistics change. It returns the number of
// instructions consumed, which falls short of n only when every source
// runs dry. Call only on a drained pipeline (DrainPipeline).
//
// The speculative-DAE extension is a timing model (squash penalties and
// LoD fetch holds) and is deliberately not applied across a warp: the
// warped instructions' speculative prefetches coincide with their own
// functional warming, and the per-context LoD countdown simply does not
// advance. Sampled-mode runs therefore estimate a machine whose gaps
// are speculation-free; exact runs model every event.
func (c *Core) Warp(n int64) int64 {
	var done int64
	for done < n {
		k := c.warpRound(n - done)
		if k == 0 {
			break
		}
		done += k
	}
	return done
}

// DrainPipeline is the CMP drain: fetch freezes on every core and the
// lockstep machine ticks until all pipelines and memory systems are
// quiet.
func (p *CMP) DrainPipeline() bool {
	for _, co := range p.cores {
		co.fetchFrozen = true
	}
	limit := p.Now() + drainMaxCycles
	for !p.drained() && p.Now() < limit {
		p.Tick()
	}
	for _, co := range p.cores {
		co.fetchFrozen = false
	}
	return p.drained()
}

func (p *CMP) drained() bool {
	for _, co := range p.cores {
		if !co.PipelineEmpty() || !co.mem.Quiescent() {
			return false
		}
	}
	return true
}

// Warp is the CMP functional warp: each round visits every core in index
// order, one instruction per context — the same deterministic
// interleaving lockstep ticking gives the detailed machine.
func (p *CMP) Warp(n int64) int64 {
	var done int64
	for done < n {
		var round int64
		for _, co := range p.cores {
			if done+round >= n {
				break
			}
			round += co.warpRound(n - done - round)
		}
		if round == 0 {
			break
		}
		done += round
	}
	return done
}
