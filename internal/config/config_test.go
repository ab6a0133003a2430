package config

import (
	"strings"
	"testing"
)

func TestSandyBridgeValid(t *testing.T) {
	c := SandyBridge()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.ROBSize != 168 || c.FrontEndDepth != 10 || c.NumCheckpoints != 8 {
		t.Errorf("baseline parameters drifted: %+v", c)
	}
	if c.BQSize != 128 || c.TQSize != 256 {
		t.Errorf("queue sizes: BQ=%d TQ=%d, want 128,256", c.BQSize, c.TQSize)
	}
}

func TestScaledWindows(t *testing.T) {
	for _, rob := range []int{256, 384, 512, 640} {
		c := Scaled(rob)
		if err := c.Validate(); err != nil {
			t.Fatalf("Scaled(%d): %v", rob, err)
		}
		if c.ROBSize != rob {
			t.Errorf("ROB = %d, want %d", c.ROBSize, rob)
		}
		base := SandyBridge()
		if c.IQSize <= base.IQSize || c.LQSize <= base.LQSize {
			t.Errorf("Scaled(%d) did not scale IQ/LQ: %d,%d", rob, c.IQSize, c.LQSize)
		}
		if c.NumCheckpoints != base.NumCheckpoints {
			t.Errorf("checkpoint count must stay fixed across windows")
		}
	}
}

func TestScaledNoShrink(t *testing.T) {
	c := Scaled(64)
	if c.ROBSize != SandyBridge().ROBSize {
		t.Errorf("Scaled below baseline must clamp, got ROB %d", c.ROBSize)
	}
}

func TestWindowSweep(t *testing.T) {
	sweep := WindowSweep()
	if len(sweep) != 5 || sweep[0].ROBSize != 168 || sweep[4].ROBSize != 640 {
		t.Errorf("sweep = %v", sweep)
	}
}

func TestWithDepth(t *testing.T) {
	c := SandyBridge().WithDepth(20)
	if c.FrontEndDepth != 20 {
		t.Errorf("depth = %d", c.FrontEndDepth)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []func(*Core){
		func(c *Core) { c.FetchWidth = 0 },
		func(c *Core) { c.ROBSize = 0 },
		func(c *Core) { c.NumPhysRegs = 10 },
		func(c *Core) { c.FrontEndDepth = 1 },
		func(c *Core) { c.BQSize = 0 },
		func(c *Core) { c.NumCheckpoints = -1 },
	}
	for i, mutate := range cases {
		c := SandyBridge()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestValidateNamesField pins, per field, one value the model honours
// and one it cannot, each one past the boundary: the bad config must be
// rejected with the field's path in the error.
func TestValidateNamesField(t *testing.T) {
	for _, tc := range []struct {
		field     string
		set       func(c *Core, v int)
		good, bad int
	}{
		{"Cache.L1.Ways", func(c *Core, v int) { c.Cache.L1.Ways = v }, 1, 0},
		{"Cache.L2.Ways", func(c *Core, v int) { c.Cache.L2.Ways = v }, 16, -1},
		{"Cache.L3.Ways", func(c *Core, v int) { c.Cache.L3.Ways = v }, 32, 0},
		{"Cache.L1.SizeKB", func(c *Core, v int) { c.Cache.L1.SizeKB = v }, 1, 0},
		{"Cache.L2.SizeKB", func(c *Core, v int) { c.Cache.L2.SizeKB = v }, 512, 384},
		{"Cache.L3.SizeKB", func(c *Core, v int) { c.Cache.L3.SizeKB = v }, 64, 48},
		// 1 KiB of 6 ways gives 2 sets that hold only 768 bytes.
		{"Cache.L1.SizeKB", func(c *Core, v int) { c.Cache.L1.Ways = 6; c.Cache.L1.SizeKB = v }, 3, 1},
		{"Cache.LineBytes", func(c *Core, v int) { c.Cache.LineBytes = v }, 32, 48},
		{"Cache.NumMSHRs", func(c *Core, v int) { c.Cache.NumMSHRs = v }, 1, 0},
		{"Cache.L1.Latency", func(c *Core, v int) { c.Cache.L1.Latency = uint64(v) }, 1, 0},
		{"Cache.L2.Latency", func(c *Core, v int) { c.Cache.L2.Latency = uint64(v) }, 1, 0},
		{"Cache.L3.Latency", func(c *Core, v int) { c.Cache.L3.Latency = uint64(v) }, 1, 0},
		{"Cache.MemLatency", func(c *Core, v int) { c.Cache.MemLatency = uint64(v) }, 1, 0},
		{"MulLatency", func(c *Core, v int) { c.MulLatency = v }, 1, 0},
		{"DivLatency", func(c *Core, v int) { c.DivLatency = v }, 1, 0},
		{"ALUPorts", func(c *Core, v int) { c.ALUPorts = v }, 1, 0},
		{"MemPorts", func(c *Core, v int) { c.MemPorts = v }, 1, 0},
		{"BrPorts", func(c *Core, v int) { c.BrPorts = v }, 1, 0},
		{"BTBWays", func(c *Core, v int) { c.BTBWays = v }, 1, 0},
		{"BTBLogSets", func(c *Core, v int) { c.BTBLogSets = v }, 0, -1},
		{"RASDepth", func(c *Core, v int) { c.RASDepth = v }, 1, 0},
	} {
		c := SandyBridge()
		tc.set(&c, tc.good)
		if err := c.Validate(); err != nil {
			t.Errorf("%s = %d rejected: %v", tc.field, tc.good, err)
		}
		c = SandyBridge()
		tc.set(&c, tc.bad)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s = %d accepted", tc.field, tc.bad)
		} else if !strings.Contains(err.Error(), tc.field+" ") {
			t.Errorf("%s = %d: error %q does not name the field", tc.field, tc.bad, err)
		}
	}
}

func TestTableII(t *testing.T) {
	tab := TableII()
	if tab["IBM Power7"] != 19 || tab["Intel Pentium 4"] != 20 {
		t.Errorf("Table II values drifted: %v", tab)
	}
}

func TestPolicyStrings(t *testing.T) {
	if SpecPop.String() != "spec" || StallFetch.String() != "stall" {
		t.Error("policy strings")
	}
	if PredISLTAGE.String() != "isl-tage" || PredGshare.String() != "gshare" || PredBimodal.String() != "bimodal" {
		t.Error("predictor strings")
	}
}
