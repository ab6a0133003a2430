package pipeline

import (
	"fmt"
	"strings"
)

// Dump renders the core's internal state for debugging deadlocks and model
// bugs: window occupancy, the oldest instructions, resource counters, and
// queue pointers.
func (c *Core) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle %d  fetchPC %d  stallTill %d  halt %v\n",
		c.now, c.fetchPC, c.fetchStallTill, c.haltFetched)
	fmt.Fprintf(&b, "rob %d/%d  iq %d/%d  sq %d/%d  lq %d/%d  frontQ %d\n",
		c.robCount(), c.cfg.ROBSize, c.iqLen, c.cfg.IQSize,
		int(c.sqTail-c.sqHead), c.cfg.SQSize, c.lqCount, c.cfg.LQSize, c.fqLen())
	fmt.Fprintf(&b, "ckpts %d/%d  freeRegs %d\n", c.usedCkpts, c.cfg.NumCheckpoints, c.freeCount())
	fmt.Fprintf(&b, "BQ head %d tail %d comm %d mark %d(%v)  TQ head %d tail %d comm %d  TCR %d\n",
		c.bq.specHead, c.bq.specTail, c.bq.commHead, c.bq.specMark, c.bq.markOK,
		c.tq.specHead, c.tq.specTail, c.tq.commHead, c.specTCR)
	fmt.Fprintf(&b, "VQ head %d tail %d comm %d\n", c.vq.specHead, c.vq.specTail, c.vq.commHead)
	n := 0
	for pos := c.robHead; pos < c.robTail && n < 8; pos++ {
		u := c.robAt(pos)
		fmt.Fprintf(&b, "  rob[%d] seq=%d pc=%d %-24s exec=%v issued=%v inIQ=%v srcs=(%d,%d,%d) vq=%d dst=%d\n",
			pos, u.seq, u.pc, u.inst.String(), u.executed, u.issued, u.inIQ,
			u.psrc1, u.psrc2, u.psrc3, u.vqSrcPreg, u.pdst)
		n++
	}
	if c.fqLen() > 0 {
		u := c.fqFront()
		fmt.Fprintf(&b, "  frontQ[0] seq=%d pc=%d %s readyAt=%d\n", u.seq, u.pc, u.inst.String(), u.readyAt)
	}
	return b.String()
}
