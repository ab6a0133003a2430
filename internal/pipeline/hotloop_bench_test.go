package pipeline

import (
	"fmt"
	"testing"

	"cfd/internal/config"
	"cfd/internal/isa"
	"cfd/internal/mem"
	"cfd/internal/prog"
)

// missChase is an endless pointer chase over a chain larger than the L3,
// so every load misses to memory, with dependents of each load that
// cannot issue until it returns. Fetch runs far ahead of the chase, so
// the issue queue sits full of waiting entries and almost every cycle
// selects nothing — the case where select pays for the queue it scans.
func missChase(deps int) (*prog.Program, *mem.Memory) {
	const (
		base   = 0x100000
		stride = 64      // one cache line per node
		nodes  = 1 << 16 // 4 MiB, twice the default L3
	)
	chain := make([]uint64, nodes*stride/8)
	for i := 0; i < nodes; i++ {
		chain[i*stride/8] = base + uint64((i+1)%nodes)*stride
	}
	m := mem.New()
	m.WriteUint64s(base, chain)
	b := prog.NewBuilder().Li(1, base).Label("chase")
	b.Load(isa.LD, 1, 1, 0)
	for d := 0; d < deps; d++ {
		b.I(isa.ADDI, isa.Reg(2+d%8), 1, int64(d))
	}
	return b.Jump("chase").Halt().MustBuild(), m
}

// BenchmarkPipelineIssueSelect times one clock cycle with a full issue
// queue of entries waiting on a memory miss, at the baseline IQ (54) and
// the largest window's (205). One op is one Cycle().
func BenchmarkPipelineIssueSelect(b *testing.B) {
	for _, cfg := range []config.Core{config.SandyBridge(), config.Scaled(640)} {
		b.Run(fmt.Sprintf("IQ%d", cfg.IQSize), func(b *testing.B) {
			p, m := missChase(8)
			c, err := New(cfg, p, m)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 20000; i++ {
				if err := c.Cycle(); err != nil {
					b.Fatal(err)
				}
			}
			if c.iqLen != cfg.IQSize {
				b.Fatalf("IQ holds %d entries after warm-up, want full (%d)", c.iqLen, cfg.IQSize)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Cycle(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelineFetchNonBranch times fetch alone on straight-line ALU
// code: each op is one fetch() call filling FetchWidth front-end slots,
// which are then discarded so the front-end queue never fills. ns/uop is
// the per-instruction cost, dominated by building the uop in its slot.
func BenchmarkPipelineFetchNonBranch(b *testing.B) {
	bld := prog.NewBuilder()
	for i := 0; i < 64; i++ {
		bld.I(isa.ADDI, 1, 1, 1)
	}
	c, err := New(config.SandyBridge(), bld.Halt().MustBuild(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.fetchPC, c.fqTail = 0, c.robTail
		if err := c.fetch(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(c.Stats.Fetched), "ns/uop")
}

// BenchmarkPipelineNew times building a baseline core: the fixed cost
// every spec pays before its first cycle, which dominates sweeps of many
// short runs.
func BenchmarkPipelineNew(b *testing.B) {
	p := prog.NewBuilder().Halt().MustBuild()
	cfg := config.SandyBridge()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(cfg, p, nil); err != nil {
			b.Fatal(err)
		}
	}
}
