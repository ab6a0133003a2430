package pipeline

import (
	"cfd/internal/cache"
	"cfd/internal/emu"
	"cfd/internal/energy"
	"cfd/internal/isa"
)

// wrong-path addresses above this bound skip the cache model (a real core
// would fault; garbage addresses must not pollute the timing state).
const addrLimit = uint64(1) << 40

type port uint8

const (
	portALU port = iota
	portMem
	portBr
)

func portFor(op isa.Op) (port, bool) {
	switch op.Class() {
	case isa.ClassLoad, isa.ClassStore:
		return portMem, false
	case isa.ClassBranch, isa.ClassJump:
		return portBr, false
	case isa.ClassMul, isa.ClassDiv:
		return portALU, true
	default:
		return portALU, false
	}
}

// issue selects ready instructions from the issue queue — oldest first, up
// to IssueWidth and the per-port limits — and executes them: values are
// computed here (execute-at-execute) and completion is scheduled after the
// operation latency (loads: when the cache hierarchy delivers the line).
//
// Only entries in the ready set (every source register delivered, see
// complete) are visited. A ready load still waits while an older store's
// address is unresolved; that test stays here, at select time, so a store
// executing earlier in this scan unblocks younger loads in the same cycle.
func (c *Core) issue() {
	c.agenStores()
	aluLeft := c.cfg.ALUPorts
	memLeft := c.cfg.MemPorts
	brLeft := c.cfg.BrPorts
	mulDivLeft := 1
	issued := 0

	for pos := c.iq.Next(c.robHead, c.robTail); pos < c.robTail; pos = c.iq.Next(pos+1, c.robTail) {
		if issued >= c.cfg.IssueWidth || aluLeft+memLeft+brLeft == 0 {
			break
		}
		u := c.robAt(pos)
		avail := false
		switch u.port {
		case portALU:
			avail = aluLeft > 0 && (!u.mulDiv || mulDivLeft > 0)
		case portMem:
			avail = memLeft > 0
		case portBr:
			avail = brLeft > 0
		}
		if !avail || (u.isLoad && u.seq > c.sqResolvedTo) {
			continue
		}
		if !c.execute(u, pos) {
			continue // load blocked on a store conflict
		}
		issued++
		switch u.port {
		case portALU:
			aluLeft--
			if u.mulDiv {
				mulDivLeft--
			}
		case portMem:
			memLeft--
		case portBr:
			brLeft--
		}
		u.issued = true
		c.iq.Issue(pos)
		c.iqLen--
		c.Meter.Add(energy.IQIssue, 1)
	}
	c.cycIssued = issued
}

// agenStores resolves store addresses as soon as the base register is
// ready, independent of the data operand, so memory disambiguation does not
// serialize younger loads behind pending store data. It also refreshes
// sqResolvedTo — the seq below which every store queue entry has a resolved
// address — which is all select needs to disambiguate a load.
func (c *Core) agenStores() {
	resolvedTo := ^uint64(0)
	for pos := c.sqHead; pos < c.sqTail; pos++ {
		e := c.sqAt(pos)
		if e.addrOK {
			continue
		}
		u := c.robAt(e.robPos)
		if u.seq == e.seq && !u.squashed && u.psrc1 >= 0 && c.prfReady[u.psrc1] {
			e.addr = c.prf[u.psrc1] + uint64(u.inst.Imm)
			e.size = emu.StoreSize(u.inst.Op)
			e.addrOK = true
			continue
		}
		if resolvedTo == ^uint64(0) {
			resolvedTo = e.seq
		}
	}
	c.sqResolvedTo = resolvedTo
}

// advanceSQResolved recomputes sqResolvedTo after the formerly-oldest
// unresolved store resolved mid-cycle.
func (c *Core) advanceSQResolved() {
	for pos := c.sqHead; pos < c.sqTail; pos++ {
		if e := c.sqAt(pos); !e.addrOK {
			c.sqResolvedTo = e.seq
			return
		}
	}
	c.sqResolvedTo = ^uint64(0)
}

func (c *Core) readSrc(pr int32) (uint64, cache.ServiceLevel) {
	if pr < 0 {
		return 0, cache.NoData
	}
	c.Meter.Add(energy.PRFRead, 1)
	return c.prf[pr], c.prfLevel[pr]
}

// execute computes a uop's result and schedules its completion. It returns
// false when a load must wait for a conflicting store to drain.
func (c *Core) execute(u *uop, pos uint64) bool {
	op := u.inst.Op
	v1, l1 := c.readSrc(u.psrc1)
	v2, l2 := c.readSrc(u.psrc2)
	taint := cache.Max(l1, l2)
	lat := uint64(1)

	switch {
	case op.IsLoad() && op != isa.PREF:
		addr := v1 + uint64(u.inst.Imm)
		u.addr = addr
		size := emu.LoadSize(op)
		val, fwd, wait := c.sqLookup(u.seq, addr, size)
		if wait {
			return false
		}
		c.Meter.Add(energy.AGU, 1)
		c.Meter.Add(energy.LSQOp, 1)
		var lvl cache.ServiceLevel = cache.L1
		if fwd {
			lat = c.cfg.Cache.L1.Latency
		} else {
			val = c.mem.Read(addr, size)
			if addr < addrLimit {
				done, sl := c.hier.Access(addr, c.now)
				lat = done - c.now
				lvl = sl
				c.chargeMemEnergy(sl)
			} else {
				lat = c.cfg.Cache.L1.Latency
			}
		}
		u.memLevel = lvl
		if u.pdst >= 0 {
			c.prf[u.pdst] = emu.ExtendLoad(op, val)
			c.prfLevel[u.pdst] = cache.Max(taint, lvl)
			c.Meter.Add(energy.PRFWrite, 1)
		}

	case op == isa.PREF:
		addr := v1 + uint64(u.inst.Imm)
		u.addr = addr
		c.Meter.Add(energy.AGU, 1)
		if addr < addrLimit {
			c.hier.Prefetch(addr, c.now)
			c.Meter.Add(energy.L1Access, 1)
		}

	case op.IsStore():
		addr := v1 + uint64(u.inst.Imm)
		size := emu.StoreSize(op)
		u.addr, u.storeData, u.storeSize = addr, v2&sizeMask(size), size
		e := c.sqAt(u.sqPos)
		e.addr, e.size, e.addrOK = addr, size, true
		e.data, e.dataOK = u.storeData, true
		if u.seq == c.sqResolvedTo {
			c.advanceSQResolved()
		}
		c.Meter.Add(energy.AGU, 1)
		c.Meter.Add(energy.LSQOp, 1)

	case op == isa.PushBQ:
		u.actTaken = v1 != 0
		u.srcLevel = taint
		c.Meter.Add(energy.ALUOp, 1)

	case op == isa.PushTQ:
		u.storeData = v1
		u.srcLevel = taint
		c.Meter.Add(energy.ALUOp, 1)

	case op == isa.PushVQ:
		c.prf[u.pdst] = v1
		c.prfLevel[u.pdst] = taint
		c.Meter.Add(energy.PRFWrite, 1)
		c.Meter.Add(energy.ALUOp, 1)

	case op == isa.PopVQ:
		v, lvl := c.readSrc(u.vqSrcPreg)
		c.prf[u.pdst] = v
		c.prfLevel[u.pdst] = lvl
		c.Meter.Add(energy.PRFWrite, 1)
		c.Meter.Add(energy.ALUOp, 1)

	case u.isCond: // BEQ..BGEU (queue pops never reach the IQ)
		u.actTaken = emu.EvalBranch(op, v1, v2)
		u.srcLevel = taint
		c.Meter.Add(energy.ALUOp, 1)

	case u.isJR:
		u.actTaken, u.actTarget = true, v1
		u.srcLevel = taint
		c.Meter.Add(energy.ALUOp, 1)

	default: // ALU, MUL, DIV, CMOV
		var old uint64
		if u.psrc3 >= 0 {
			var l3 cache.ServiceLevel
			old, l3 = c.readSrc(u.psrc3)
			taint = cache.Max(taint, l3)
		}
		res := emu.ALUOp(op, v1, v2, uint64(u.inst.Imm), old)
		if u.pdst >= 0 {
			c.prf[u.pdst] = res
			c.prfLevel[u.pdst] = taint
			c.Meter.Add(energy.PRFWrite, 1)
		}
		switch op.Class() {
		case isa.ClassMul:
			lat = uint64(c.cfg.MulLatency)
			c.Meter.Add(energy.MulDivOp, 1)
		case isa.ClassDiv:
			lat = uint64(c.cfg.DivLatency)
			c.Meter.Add(energy.MulDivOp, 1)
		default:
			c.Meter.Add(energy.ALUOp, 1)
		}
	}

	u.issueAt = c.now
	c.schedule(c.now+lat, pos, u.seq)
	return true
}

func sizeMask(size int) uint64 {
	if size >= 8 {
		return ^uint64(0)
	}
	return 1<<(8*size) - 1
}

func (c *Core) chargeMemEnergy(lvl cache.ServiceLevel) {
	c.Meter.Add(energy.L1Access, 1)
	switch lvl {
	case cache.L2:
		c.Meter.Add(energy.L2Access, 1)
	case cache.L3:
		c.Meter.Add(energy.L2Access, 1)
		c.Meter.Add(energy.L3Access, 1)
	case cache.MEM:
		c.Meter.Add(energy.L2Access, 1)
		c.Meter.Add(energy.L3Access, 1)
		c.Meter.Add(energy.MemAccess, 1)
	}
}

// sqLookup searches the store queue for stores older than seq overlapping
// [addr, addr+size). An exact-width match from the youngest such store
// forwards its data; a partial overlap forces the load to wait until the
// store drains.
func (c *Core) sqLookup(seq, addr uint64, size int) (val uint64, fwd, wait bool) {
	for pos := c.sqHead; pos < c.sqTail; pos++ {
		e := c.sqAt(pos)
		if e.seq >= seq {
			break
		}
		if !e.addrOK {
			return 0, false, true // guarded at select; defensive
		}
		if e.addr+uint64(e.size) <= addr || addr+uint64(size) <= e.addr {
			continue
		}
		if e.addr == addr && e.size == size && e.dataOK {
			val, fwd, wait = e.data, true, false
		} else {
			val, fwd, wait = 0, false, true
		}
	}
	return val, fwd, wait
}

// complete drains this cycle's completion events: results become visible to
// dependents, branches resolve (initiating recovery on mispredictions), and
// pushes write their queue entries — including the late-push check against
// speculative pops (§III-C2).
func (c *Core) complete() {
	slot := c.now % eventRing
	n := c.evHead[slot]
	if n == 0 {
		return
	}
	c.evHead[slot], c.evTail[slot] = 0, 0
	for n != 0 {
		// Copy the node out and free it before acting on it: a parked
		// event's reschedule may reuse it.
		ev := c.evPool[n]
		c.evPool[n].next = c.evFree
		c.evFree = n
		n = ev.next
		c.cycCompleted++
		if ev.at > c.now {
			// Parked long-latency event: reschedule (now within ring
			// range or parks again).
			c.schedule(ev.at, ev.robPos, ev.seq)
			continue
		}
		u := c.robAt(ev.robPos)
		if u.seq != ev.seq || u.squashed {
			continue
		}
		u.executed = true
		u.doneAt = c.now
		if u.pdst >= 0 {
			c.prfReady[u.pdst] = true
			c.iq.Wake(u.pdst)
		}
		switch {
		case u.inst.Op == isa.PushBQ:
			c.completePushBQ(u)
		case u.inst.Op == isa.PushTQ:
			e := c.tq.at(uint64(u.tqIdx))
			e.overflow = u.storeData > maxTripCount
			e.count = uint32(u.storeData & maxTripCount)
			e.pushed = true
		case u.isCond && !u.resolvedFetch:
			c.resolveBranch(u, ev.robPos)
		case u.isJR:
			c.resolveBranch(u, ev.robPos)
		}
	}
}

const maxTripCount = 1<<16 - 1

// resolveBranch checks a predicted branch at execute. Mispredictions
// recover immediately through the branch's checkpoint, or wait for
// retirement when it has none (the timing cost of running out of
// checkpoints).
func (c *Core) resolveBranch(u *uop, pos uint64) {
	correct := u.actTaken == u.predTaken
	if u.isJR {
		correct = u.actTarget == u.predTarget
	}
	if u.actTaken {
		c.btb.Insert(u.pc, u.actTarget)
	}
	if correct {
		if c.cfg.CkptOoOReclaim && u.hasCkpt {
			c.usedCkpts--
			u.hasCkpt = false
		}
		return
	}
	u.mispredict = true
	newPC := u.actTarget
	if u.isCond && !u.actTaken {
		newPC = u.pc + 1
	}
	if u.hasCkpt {
		c.Stats.Recoveries++
		c.pred.Restore(c.br[pos&c.robMask].hist)
		if u.isCond {
			c.pred.OnFetchOutcome(u.pc, u.actTaken)
		}
		c.recoverAfter(u.seq, newPC)
		c.noteRecovery(u.seq, u.srcLevel, u.specPop)
		c.Meter.Add(energy.CkptRestore, 1)
		if c.cfg.CkptOoOReclaim {
			c.usedCkpts--
			u.hasCkpt = false
		}
	} else {
		u.retireRecover = true
	}
}

// completePushBQ implements the push side of BQ operation (Fig 10): write
// the predicate and pushed bit; if a speculative pop already claimed this
// entry, confirm its prediction or initiate recovery from the pop's
// checkpoint (late push).
func (c *Core) completePushBQ(u *uop) {
	c.Meter.Add(energy.BQAccess, 1)
	e := c.bq.at(uint64(u.bqIdx))
	pred := u.actTaken
	e.srcLevel = u.srcLevel
	if e.popped {
		if e.predPred != pred {
			c.lateRecover(e, pred)
		} else {
			c.confirmSpecPop(e, pred)
		}
	}
	e.pred = pred
	e.pushed = true
}

// confirmSpecPop marks the speculating pop resolved and releases its
// checkpoint.
func (c *Core) confirmSpecPop(e *bqEntryHW, pred bool) {
	pop, _ := c.findPop(e)
	if pop == nil {
		return
	}
	pop.actTaken = pred
	pop.resolvedFetch = true
	if pop.hasCkpt && c.cfg.CkptOoOReclaim {
		c.usedCkpts--
		pop.hasCkpt = false
	}
}

// findPop locates the speculating pop for a BQ entry, in the ROB or still
// in the front-end queue, and returns it with its ring position.
func (c *Core) findPop(e *bqEntryHW) (*uop, uint64) {
	if e.popRob != ^uint64(0) && e.popRob >= c.robHead && e.popRob < c.robTail {
		u := c.robAt(e.popRob)
		if u.seq == e.popSeq {
			return u, e.popRob
		}
	}
	for pos := c.robTail; pos < c.fqTail; pos++ {
		if u := c.robAt(pos); u.seq == e.popSeq {
			return u, pos
		}
	}
	return nil, 0
}

// lateRecover handles a late push whose predicate disagrees with the
// speculative pop's prediction: recover to the pop using the checkpoint it
// claimed, exactly like a branch misprediction anchored at the pop.
func (c *Core) lateRecover(e *bqEntryHW, pred bool) {
	pop, pos := c.findPop(e)
	if pop == nil {
		return // pop squashed between the claim and now; popped bit was stale
	}
	pop.actTaken = pred
	pop.predTaken = pred // the front end proceeds down the corrected path
	pop.mispredict = true
	pop.resolvedFetch = true
	newPC := pop.pc + 1
	if pred {
		newPC = pop.actTarget
	}
	c.Stats.Recoveries++
	c.pred.Restore(c.br[pos&c.robMask].hist)
	c.pred.OnFetchOutcome(pop.pc, pred)
	c.recoverAfter(pop.seq, newPC)
	c.noteRecovery(pop.seq, e.srcLevel, true)
	c.Meter.Add(energy.CkptRestore, 1)
	if pop.hasCkpt {
		c.usedCkpts--
		pop.hasCkpt = false
	}
	pop.srcLevel = e.srcLevel
}
