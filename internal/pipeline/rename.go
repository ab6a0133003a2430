package pipeline

import (
	"cfd/internal/energy"
	"cfd/internal/isa"
	"cfd/internal/pipeline/iq"
)

// needsIQ reports whether the op occupies an issue-queue entry and
// execution lane. Fetch-resolved control, queue bookkeeping handled in the
// front end, and NOP/HALT complete at rename.
func needsIQ(u *uop) bool {
	switch u.inst.Op {
	case isa.NOP, isa.HALT, isa.J, isa.JAL, isa.MarkBQ, isa.ForwardBQ,
		isa.BranchTCR, isa.PopTQ, isa.PopTQOV, isa.BranchBQ,
		isa.SaveBQ, isa.RestoreBQ, isa.SaveVQ, isa.RestoreVQ,
		isa.SaveTQ, isa.RestoreTQ:
		return false
	}
	if u.usedOracle {
		return false // oracle-resolved branches are fetch-resolved
	}
	return true
}

// rename performs in-order register renaming and dispatch: up to
// RenameWidth uops per cycle move from the front-end queue into the ROB,
// issue queue, and load/store queues, allocating physical registers from
// the ring freelist. The VQ renamer (§IV-B2) maps PushVQ/PopVQ onto
// physical registers here. Speculative BranchBQ pops claim their mandatory
// checkpoint here (§III-C2); ordinary predicted branches take one when
// confidence and availability allow.
func (c *Core) rename() error {
	for n := 0; n < c.cfg.RenameWidth; n++ {
		if c.fqLen() == 0 {
			break
		}
		u := c.fqFront()
		if u.readyAt > c.now {
			break
		}
		if c.robCount() >= c.cfg.ROBSize {
			break
		}
		op := u.inst.Op
		inIQ := needsIQ(u)
		if inIQ && c.iqLen >= c.cfg.IQSize {
			break
		}
		isLoad := op.IsLoad() // includes PREF
		if isLoad && c.lqCount >= c.cfg.LQSize {
			break
		}
		if op.IsStore() && int(c.sqTail-c.sqHead) >= c.cfg.SQSize {
			break
		}
		needsDest := op == isa.PushVQ || (op.WritesRd() && u.inst.Rd != isa.Zero)
		if needsDest && c.freeCount() == 0 {
			break
		}
		if op == isa.PushVQ && c.vq.length() >= c.vq.size {
			break
		}
		if op == isa.PopVQ && c.vq.specHead >= c.vq.specTail {
			// Pop with no mapping: an ordering-rule violation on the
			// correct path, wrong-path noise otherwise. Stall; the
			// correct-path case surfaces as a deadlock error.
			break
		}

		// Checkpoint policy.
		if u.specPop && u.bqIdx >= 0 {
			e := c.bq.at(uint64(u.bqIdx))
			if e.pushed {
				// The late push already confirmed (or corrected, via
				// recovery) this pop before it renamed: it no longer
				// needs a checkpoint.
				u.actTaken = e.pred
				u.resolvedFetch = true
			} else {
				// A speculative pop always takes a checkpoint; stall
				// rename until one is free.
				if c.usedCkpts >= c.cfg.NumCheckpoints {
					break
				}
				c.usedCkpts++
				u.hasCkpt = true
				e.popRob = c.robTail
				c.Meter.Add(energy.CkptCreate, 1)
			}
		} else if u.usedPredictor && (u.isCond || u.isJR) && !u.resolvedFetch {
			want := true
			if c.cfg.CkptConfGuided {
				want = !c.conf.HighConfidence(u.pc)
			}
			if want && c.usedCkpts < c.cfg.NumCheckpoints {
				c.usedCkpts++
				u.hasCkpt = true
				c.Meter.Add(energy.CkptCreate, 1)
			}
		}

		// Source renaming.
		if op.ReadsRs1() {
			u.psrc1 = c.rmt[u.inst.Rs1]
		}
		if op.ReadsRs2() {
			u.psrc2 = c.rmt[u.inst.Rs2]
		}
		if op == isa.CMOVZ || op == isa.CMOVNZ {
			u.psrc3 = c.rmt[u.inst.Rd] // conditional moves read their old destination
		}
		if op == isa.PopVQ {
			u.vqIdx = int64(c.vq.specHead)
			u.vqSrcPreg = *c.vq.at(c.vq.specHead)
			c.vq.specHead++
			c.Meter.Add(energy.VQRenAccess, 1)
		}

		// Destination renaming.
		switch {
		case op == isa.PushVQ:
			u.vqIdx = int64(c.vq.specTail)
			pr := c.allocPreg()
			u.pdst = pr
			*c.vq.at(c.vq.specTail) = pr
			c.vq.specTail++
			c.Meter.Add(energy.VQRenAccess, 1)
		case op.WritesRd() && u.inst.Rd != isa.Zero:
			pr := c.allocPreg()
			u.pold = c.rmt[u.inst.Rd]
			c.rmt[u.inst.Rd] = pr
			u.pdst = pr
			if op == isa.JAL {
				c.prf[pr] = u.pc + 1
				c.prfReady[pr] = true
			}
		}

		// Window allocation.
		u.isLoad = isLoad
		u.isStore = op.IsStore()
		if isLoad {
			c.lqCount++
		}
		if u.isStore {
			u.sqPos = c.sqTail
			*c.sqAt(c.sqTail) = sqEntry{seq: u.seq, robPos: c.robTail}
			c.sqTail++
			c.Meter.Add(energy.LSQOp, 1)
		}

		u.inIQ = inIQ
		u.renameAt = c.now
		if !inIQ {
			u.executed = true
			u.doneAt = c.now
		}
		// u already lives in the rob-ring slot at robTail (fetch built it
		// there); renaming it is a pointer bump.
		pos := c.robTail
		c.robTail++
		if inIQ {
			// Wait on the sources still in flight; complete() wakes
			// the entry into the ready set when the last one lands.
			c.iq.Insert(pos, [iq.Srcs]int32{u.psrc1, u.psrc2, u.psrc3, u.vqSrcPreg}, c.prfReady)
			c.iqLen++
			c.Meter.Add(energy.IQWrite, 1)
		}
		c.Meter.Add(energy.Rename, 1)
		c.Meter.Add(energy.ROBWrite, 1)
	}
	return nil
}
