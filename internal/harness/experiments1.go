package harness

import (
	"fmt"
	"io"
	"math"
	"sort"

	"cfd/internal/classify"
	"cfd/internal/config"
	"cfd/internal/manifest"
	"cfd/internal/prog"
	"cfd/internal/stats"
	"cfd/internal/workload"
)

// withVariant lists the workloads implementing v.
func withVariant(v workload.Variant) []*workload.Spec {
	var out []*workload.Spec
	for _, s := range workload.All() {
		if s.HasVariant(v) {
			out = append(out, s)
		}
	}
	return out
}

func gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

var levelLabels = []string{"NoData", "L1", "L2", "L3", "MEM"}

func levelShares(byLevel [5]uint64) [5]float64 {
	var total uint64
	for _, v := range byLevel {
		total += v
	}
	var out [5]float64
	if total == 0 {
		return out
	}
	for i, v := range byLevel {
		out[i] = float64(v) / float64(total)
	}
	return out
}

func init() {
	registerExp(&Experiment{
		ID:    "fig1",
		Title: "Fig 1: IPC and energy, real vs perfect branch prediction",
		Manifest: expManifest("fig1", manifest.Sweep{
			Workloads: implementing("cfd"),
			Variants: []manifest.VariantExpr{
				{Variant: "base"},
				{Variant: "base", PerfectAll: true},
			},
		}),
		Run: func(r *Runner, w io.Writer) error {
			t := stats.NewTable("Fig 1a/1b: baseline vs perfect prediction",
				"workload", "base IPC", "perfect IPC", "IPC gain", "energy saved")
			for _, s := range withVariant(workload.CFD) {
				base, err := r.Run(RunSpec{Workload: s.Name, Variant: workload.Base, Config: config.SandyBridge()})
				if err != nil {
					return err
				}
				perf, err := r.Run(RunSpec{Workload: s.Name, Variant: workload.Base, Config: config.SandyBridge(), PerfectAll: true})
				if err != nil {
					return err
				}
				t.Addf(s.Name, base.Stats.IPC(), perf.Stats.IPC(),
					stats.Pct(Speedup(base, perf)), stats.Share(EnergyReduction(base, perf)))
			}
			_, err := fmt.Fprintln(w, t)
			return err
		},
	})

	registerExp(&Experiment{
		ID:    "fig2a",
		Title: "Fig 2a: misprediction breakdown by furthest memory level",
		Manifest: expManifest("fig2a", manifest.Sweep{
			Workloads: manifest.Selector{All: true},
			Variants:  variants("base"),
		}),
		Run: func(r *Runner, w io.Writer) error {
			t := stats.NewTable("Fig 2a: mispredicted branches by feeding memory level",
				"workload", "NoData", "L1", "L2", "L3", "MEM", "MPKI")
			for _, s := range workload.All() {
				base, err := r.Run(RunSpec{Workload: s.Name, Variant: workload.Base, Config: config.SandyBridge()})
				if err != nil {
					return err
				}
				sh := levelShares(base.Stats.MispredByLevel)
				t.Addf(s.Name, stats.Share(sh[0]), stats.Share(sh[1]), stats.Share(sh[2]),
					stats.Share(sh[3]), stats.Share(sh[4]), base.Stats.MPKI())
			}
			_, err := fmt.Fprintln(w, t)
			return err
		},
	})

	registerExp(&Experiment{
		ID:    "fig2b",
		Title: "Fig 2b: IPC vs window size, real vs perfect prediction (memory-fed workload)",
		Manifest: expManifest("fig2b", manifest.Sweep{
			Workloads: byNames("mcflike"),
			Variants: []manifest.VariantExpr{
				{Variant: "base"},
				{Variant: "base", PerfectAll: true},
			},
			Configs: mutationsFor(config.WindowSweep()...),
		}),
		Run: func(r *Runner, w io.Writer) error {
			t := stats.NewTable("Fig 2b: mcflike IPC scaling with window size",
				"window", "real BP", "perfect BP")
			for _, cfg := range config.WindowSweep() {
				base, err := r.Run(RunSpec{Workload: "mcflike", Variant: workload.Base, Config: cfg})
				if err != nil {
					return err
				}
				perf, err := r.Run(RunSpec{Workload: "mcflike", Variant: workload.Base, Config: cfg, PerfectAll: true})
				if err != nil {
					return err
				}
				t.Addf(cfg.ROBSize, base.Stats.IPC(), perf.Stats.IPC())
			}
			_, err := fmt.Fprintln(w, t)
			return err
		},
	})

	registerExp(&Experiment{
		ID:    "fig6",
		Title: "Fig 6: control-flow classification study (MPKI-weighted)",
		Run: func(r *Runner, w io.Writer) error {
			st, err := r.classification()
			if err != nil {
				return err
			}
			t := stats.NewTable("Fig 6a: misprediction share per suite", "suite", "share")
			suites := st.SuiteShares()
			var names []string
			for s := range suites {
				names = append(names, s)
			}
			sort.Strings(names)
			for _, s := range names {
				t.Addf(s, stats.Share(suites[s]))
			}
			fmt.Fprintln(w, t)
			fmt.Fprintf(w, "Fig 6b: targeted share of cumulative MPKI = %s (paper: ~78%%)\n\n",
				stats.Share(st.TargetedShare()))
			t2 := stats.NewTable("Fig 6c: targeted mispredictions by class", "class", "share")
			shares := st.ClassShares()
			var classes []prog.BranchClass
			for c := range shares {
				classes = append(classes, c)
			}
			sort.Slice(classes, func(i, j int) bool { return shares[classes[i]] > shares[classes[j]] })
			for _, c := range classes {
				t2.Addf(c.String(), stats.Share(shares[c]))
			}
			fmt.Fprintln(w, t2)
			_, err = fmt.Fprintf(w, "separable (CFD-applicable) share = %s (paper: 41.4%%)\n",
				stats.Share(st.SeparableShare()))
			return err
		},
	})

	registerExp(&Experiment{
		ID:    "table1",
		Title: "Table I: targeted workloads and their MPKI",
		Run: func(r *Runner, w io.Writer) error {
			st, err := r.classification()
			if err != nil {
				return err
			}
			t := stats.NewTable("Table I: workloads, MPKI (ISL-TAGE), targeted?",
				"workload", "suite", "MPKI", "miss rate", "targeted")
			for _, rep := range st.Reports {
				t.Addf(rep.Workload, rep.Suite, rep.MPKI(),
					stats.Share(rep.MissRate()), fmt.Sprint(rep.Targeted()))
			}
			_, err = fmt.Fprintln(w, t)
			return err
		},
	})

	registerExp(&Experiment{
		ID:    "table2",
		Title: "Table II: minimum fetch-to-execute latency of contemporary cores",
		Run: func(r *Runner, w io.Writer) error {
			t := stats.NewTable("Table II: minimum fetch-to-execute latency (cycles)", "core", "cycles")
			tab := config.TableII()
			var names []string
			for n := range tab {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				t.Addf(n, tab[n])
			}
			_, err := fmt.Fprintln(w, t)
			return err
		},
	})

	registerExp(&Experiment{
		ID:    "fig17",
		Title: "Fig 17: baseline core configuration and CFD storage overhead",
		Run: func(r *Runner, w io.Writer) error {
			c := config.SandyBridge()
			t := stats.NewTable("Fig 17a: baseline core (Sandy Bridge-like)", "parameter", "value")
			t.Addf("fetch/rename/retire width", c.FetchWidth)
			t.Addf("issue width (ALU/mem/br ports)", fmt.Sprintf("%d (%d/%d/%d)", c.IssueWidth, c.ALUPorts, c.MemPorts, c.BrPorts))
			t.Addf("min fetch-to-execute", c.FrontEndDepth)
			t.Addf("ROB / IQ / LQ / SQ", fmt.Sprintf("%d / %d / %d / %d", c.ROBSize, c.IQSize, c.LQSize, c.SQSize))
			t.Addf("physical registers", c.NumPhysRegs)
			t.Addf("checkpoints", fmt.Sprintf("%d (conf-guided, OoO reclaim)", c.NumCheckpoints))
			t.Addf("predictor", c.Predictor.String())
			t.Addf("BTB", fmt.Sprintf("%d sets x %d ways", 1<<c.BTBLogSets, c.BTBWays))
			t.Addf("L1D", fmt.Sprintf("%dKB %d-way, %d cycles", c.Cache.L1.SizeKB, c.Cache.L1.Ways, c.Cache.L1.Latency))
			t.Addf("L2", fmt.Sprintf("%dKB %d-way, %d cycles", c.Cache.L2.SizeKB, c.Cache.L2.Ways, c.Cache.L2.Latency))
			t.Addf("L3", fmt.Sprintf("%dKB %d-way, %d cycles", c.Cache.L3.SizeKB, c.Cache.L3.Ways, c.Cache.L3.Latency))
			t.Addf("memory latency / L1 MSHRs", fmt.Sprintf("%d cycles / %d", c.Cache.MemLatency, c.Cache.NumMSHRs))
			fmt.Fprintln(w, t)
			t2 := stats.NewTable("Fig 17b: CFD storage overhead", "structure", "bits")
			t2.Addf("BQ (128 x {pred,pushed,popped,ckpt-id})", c.BQSize*(1+1+1+4))
			t2.Addf("VQ renamer (128 x preg-id)", c.VQSize*8)
			t2.Addf("TQ (256 x {16-bit trip, pushed, overflow}) + TCR", c.TQSize*(16+1+1)+16)
			_, err := fmt.Fprintln(w, t2)
			return err
		},
	})

	registerExp(&Experiment{
		ID:    "table3",
		Title: "Table III: CFD(BQ) and DFD instruction overheads",
		Manifest: expManifest("table3", manifest.Sweep{
			Workloads: manifest.Selector{Class: "separable", HasVariant: "cfd"},
			Variants:  variants("base", "cfd", "cfd+", "dfd", "cfd+dfd"),
		}),
		// Tolerant: a failing variant renders as an "err" cell below, so a
		// sweep error must not abort the table.
		Tolerant: true,
		Run: func(r *Runner, w io.Writer) error {
			t := stats.NewTable("Table III: retired-instruction overhead factor vs base",
				"workload", "cfd", "cfd+", "dfd", "cfd+dfd")
			for _, s := range workload.CFDClass() {
				if !s.HasVariant(workload.CFD) {
					continue
				}
				base, err := r.Run(RunSpec{Workload: s.Name, Variant: workload.Base, Config: config.SandyBridge()})
				if err != nil {
					return err
				}
				cell := func(v workload.Variant) string {
					if !s.HasVariant(v) {
						return "-"
					}
					res, err2 := r.Run(RunSpec{Workload: s.Name, Variant: v, Config: config.SandyBridge()})
					if err2 != nil {
						return "err"
					}
					return fmt.Sprintf("%.2f", float64(res.Stats.Retired)/float64(base.Stats.Retired))
				}
				t.Add(s.Name, cell(workload.CFD), cell(workload.CFDPlus), cell(workload.DFD), cell(workload.CFDDFD))
			}
			_, err := fmt.Fprintln(w, t)
			return err
		},
	})

	registerExp(&Experiment{
		ID:    "table4",
		Title: "Table IV: CFD(TQ) instruction overheads",
		Manifest: expManifest("table4", manifest.Sweep{
			Workloads: implementing("cfdtq"),
			Variants:  variants("base", "cfdtq", "cfdbq", "cfdbqtq"),
		}),
		Tolerant: true,
		Run: func(r *Runner, w io.Writer) error {
			t := stats.NewTable("Table IV: TQ-variant overhead factor vs base",
				"workload", "cfdtq", "cfdbq", "cfdbqtq")
			for _, s := range withVariant(workload.CFDTQ) {
				base, err := r.Run(RunSpec{Workload: s.Name, Variant: workload.Base, Config: config.SandyBridge()})
				if err != nil {
					return err
				}
				cell := func(v workload.Variant) string {
					if !s.HasVariant(v) {
						return "-"
					}
					res, err2 := r.Run(RunSpec{Workload: s.Name, Variant: v, Config: config.SandyBridge()})
					if err2 != nil {
						return "err"
					}
					return fmt.Sprintf("%.2f", float64(res.Stats.Retired)/float64(base.Stats.Retired))
				}
				t.Add(s.Name, cell(workload.CFDTQ), cell(workload.CFDBQ), cell(workload.CFDBQTQ))
			}
			_, err := fmt.Fprintln(w, t)
			return err
		},
	})

	registerExp(&Experiment{
		ID:    "table5",
		Title: "Table V: modified-code details (CFD(BQ) workloads)",
		Run:   tableCodeDetails(workload.CFD),
	})
	registerExp(&Experiment{
		ID:    "table6",
		Title: "Table VI: modified-code details (CFD(TQ) workloads)",
		Run:   tableCodeDetails(workload.CFDTQ),
	})
}

func tableCodeDetails(v workload.Variant) func(r *Runner, w io.Writer) error {
	return func(r *Runner, w io.Writer) error {
		t := stats.NewTable("Modified-code details",
			"workload", "analog", "function", "time%", "class", "variants")
		for _, s := range withVariant(v) {
			t.Addf(s.Name, s.Analog, s.Function, s.TimePct, s.Class.String(),
				fmt.Sprint(s.Variants))
		}
		_, err := fmt.Fprintln(w, t)
		return err
	}
}

// classification returns the §II classification study at the Runner's
// Scale, running it on first use.
func (r *Runner) classification() (*classify.Study, error) {
	r.classOnce.Do(func() { r.classStudy, r.classErr = classify.Run(r.Scale) })
	return r.classStudy, r.classErr
}
